package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"hidisc/internal/workloads"
)

const keyVersionGolden = "testdata/key_version.golden"

// fig8MeasurementHash hashes the stored bytes (json.Marshal, as the
// result store and the job service keep them) of every test-scale
// Figure 8 measurement, in Fig8Jobs order.
func fig8MeasurementHash(t *testing.T) string {
	t.Helper()
	r := NewRunner(workloads.ScaleTest)
	ms, err := r.RunJobs(0, Fig8Jobs(r.Hier, r.Scale))
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, m := range ms {
		enc, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(enc)
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestKeyVersionGuard couples the key version with what the model
// measures. A stored measurement is served by key without simulating,
// so a change that moves any measurement byte while keeping keyVersion
// would have every existing store answer with the old model's numbers.
// The golden holds the version and a hash of the 28 test-scale Figure 8
// measurements; the test fails when the hash moves but the version does
// not, and HIDISC_UPDATE_GOLDEN=1 refuses to rewrite the golden in that
// case, so neither value can be changed alone.
func TestKeyVersionGuard(t *testing.T) {
	got := fig8MeasurementHash(t)
	raw, err := os.ReadFile(keyVersionGolden)
	if err != nil {
		t.Fatal(err)
	}
	wantVersion, wantHash, _ := strings.Cut(strings.TrimSpace(string(raw)), " ")
	if wantVersion == keyVersion && wantHash != got {
		t.Fatalf("test-scale Figure 8 measurements moved (hash %s, golden %s) but the key version is still %q:\n"+
			"bump keyVersion in parallel.go so stores written by the old model stop answering, then regenerate %s",
			got, wantHash, keyVersion, keyVersionGolden)
	}
	if os.Getenv("HIDISC_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(keyVersionGolden, []byte(keyVersion+" "+got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if wantVersion != keyVersion {
		t.Fatalf("key version is %q, golden has %q: regenerate %s with HIDISC_UPDATE_GOLDEN=1",
			keyVersion, wantVersion, keyVersionGolden)
	}
}
