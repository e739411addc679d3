package profile

import (
	"slices"
	"testing"

	"hidisc/internal/fnsim"
	"hidisc/internal/isa"
	"hidisc/internal/mem"
	"hidisc/internal/workloads"
)

// TestProfileMatchesReference pins the profiling pass to the
// functional reference run on every workload at both scales, on both
// the compiled and the interpreted simulator: the profile executes the
// same program to completion, so its dynamic instruction count is the
// sequential program's, which the experiment runner reports as
// SeqInsts, and its output and final memory image are the reference's.
// The test-scale counts are pinned outright.
func TestProfileMatchesReference(t *testing.T) {
	want := map[string]uint64{
		"DM": 31936, "RayTray": 17754, "Pointer": 19817, "Update": 13505,
		"Field": 61587, "NB": 11956, "TC": 95605, "Matrix": 23970, "CornerTurn": 35957,
	}
	ws := append(workloads.All(workloads.ScaleTest), workloads.Extra(workloads.ScaleTest)...)
	if len(ws) != len(want) {
		t.Fatalf("%d workloads, want %d", len(ws), len(want))
	}
	for _, w := range ws {
		if got := checkProfileMatchesReference(t, w); got != want[w.Name] {
			t.Errorf("%s: reference ran %d instructions, want %d", w.Name, got, want[w.Name])
		}
	}
	for _, w := range append(workloads.All(workloads.ScalePaper), workloads.Extra(workloads.ScalePaper)...) {
		checkProfileMatchesReference(t, w)
	}
}

// checkProfileMatchesReference profiles w on both simulator paths,
// compares each with a reference run and returns the reference's
// instruction count.
func checkProfileMatchesReference(t *testing.T, w *workloads.Workload) uint64 {
	t.Helper()
	p, err := w.Program()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := fnsim.RunProgram(p, w.MaxInsts)
	if err != nil {
		t.Fatalf("%s: reference run: %v", w.Name, err)
	}
	for _, run := range []struct {
		name string
		fn   func(p *isa.Program, hcfg mem.HierConfig, maxInsts uint64) (*Profile, error)
	}{{"compiled", CacheProfile}, {"interpreted", CacheProfileInterp}} {
		prof, err := run.fn(p, mem.DefaultHierConfig(), w.MaxInsts)
		if err != nil {
			t.Fatalf("%s %s: %v", w.Name, run.name, err)
		}
		if prof.ExecutedInsts != ref.Insts {
			t.Errorf("%s %s: profile ran %d instructions, reference %d", w.Name, run.name, prof.ExecutedInsts, ref.Insts)
		}
		if !slices.Equal(prof.Output, ref.Output) || prof.MemHash != ref.MemHash {
			t.Errorf("%s %s: profile output %v, memory %#x; reference %v, %#x",
				w.Name, run.name, prof.Output, prof.MemHash, ref.Output, ref.MemHash)
		}
	}
	return ref.Insts
}
