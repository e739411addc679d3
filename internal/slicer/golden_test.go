package slicer

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hidisc/internal/cfg"
	"hidisc/internal/mem"
	"hidisc/internal/profile"
	"hidisc/internal/workloads"
)

// TestCompileGolden pins the compile stages on all nine workloads at
// both scales: a digest of the reaching-definitions chains (Defs of
// every source operand and Uses of every instruction) and of both
// separated bundles, plain and profile-guided, as JSON. A change to
// the dataflow or the profile that moves one chain or one stream
// instruction changes a digest. Paper scale is there for the profile:
// at test scale only DM misses enough for a cache-management slice.
// Regenerate with
// HIDISC_UPDATE_GOLDEN=1 go test -run TestCompileGolden ./internal/slicer.
func TestCompileGolden(t *testing.T) {
	var got strings.Builder
	for _, sc := range []struct {
		name  string
		scale workloads.Scale
	}{{"test", workloads.ScaleTest}, {"paper", workloads.ScalePaper}} {
		for _, w := range append(workloads.All(sc.scale), workloads.Extra(sc.scale)...) {
			fmt.Fprintf(&got, "%s %s", sc.name, compileDigest(t, w))
		}
	}
	path := filepath.Join("testdata", "compile.golden")
	if os.Getenv("HIDISC_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("compile stages differ from the golden file\n--- got\n%s--- want\n%s", got.String(), want)
	}
}

// compileDigest runs the compile stages on one workload and returns
// its golden line.
func compileDigest(t *testing.T, w *workloads.Workload) string {
	t.Helper()
	p, err := w.Program()
	if err != nil {
		t.Fatal(err)
	}
	g, err := cfg.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	df := cfg.ReachingDefs(g)
	chains := sha256.New()
	for i, in := range p.Insts {
		fmt.Fprintf(chains, "%d:", i)
		for _, r := range in.Sources() {
			fmt.Fprintf(chains, " %d%v", r, df.Defs(i, r))
		}
		fmt.Fprintf(chains, " uses%v\n", df.Uses(i))
	}
	plain, err := Separate(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	prof, err := profile.CacheProfile(p, mem.DefaultHierConfig(), w.MaxInsts)
	if err != nil {
		t.Fatal(err)
	}
	cmas, err := Separate(p, Options{Profile: prof})
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%s defs %x plain %s cmas %s\n", w.Name, chains.Sum(nil)[:8],
		bundleDigest(t, plain), bundleDigest(t, cmas))
}

func bundleDigest(t *testing.T, b *Bundle) string {
	t.Helper()
	buf, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(buf))[:16]
}
