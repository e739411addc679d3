package main

import (
	"math"
	"testing"

	"hidisc/internal/experiments"
	"hidisc/internal/workloads"
)

// A fig8 entry that fails once misses every limit for the rest of the
// run, even if a later pass of it succeeds.
func TestFig8FailedEntryMissesEveryLimit(t *testing.T) {
	r := experiments.NewRunner(workloads.ScaleTest)
	r.NoMemo = true
	expect := map[string]int64{}
	for _, j := range experiments.Fig8Jobs(r.Hier, r.Scale) {
		m, err := r.Run(j.Workload, j.Arch, j.Hier)
		if err != nil {
			t.Fatal(err)
		}
		expect[j.Workload+"/"+string(j.Arch)] = m.Cycles
	}
	f := newFig8Run(r.Scale, expect, 1)
	f.runner = r
	rep := newReport()
	for i := range f.jobs {
		f.run(rep, i, true)
	}
	if rep.failed != 0 || math.IsInf(f.jobsPerSec(), 0) || f.jobsPerSec() <= 0 {
		t.Fatalf("all entries correct: %d failed, %v jobs/s", rep.failed, f.jobsPerSec())
	}

	f.expect[0]++ // entry 0 now disagrees with the cycle ledger
	f.run(rep, 0, true)
	f.expect[0]--
	f.run(rep, 0, true) // a later correct run does not clear the failure
	if rep.failed != 1 || !math.IsInf(f.best[0], 1) {
		t.Fatalf("after one failed run: %d failed, best %v s; want 1, +Inf", rep.failed, f.best[0])
	}
	if f.jobsPerSec() != 0 {
		t.Errorf("jobs_per_s %v with a failed entry; want 0", f.jobsPerSec())
	}
	best := dist{xs: msOf(f.best)}
	if finite(best.quantile(1)) != 1e12 {
		t.Errorf("slowest entry %v ms with a failed entry; want 1e12", finite(best.quantile(1)))
	}
}

// At test scale an entry's first run fixes the cycles every later run
// of it must give.
func TestFig8TestScaleRunsMustRepeatTheirCycles(t *testing.T) {
	f := newFig8Run(workloads.ScaleTest, nil, 1)
	if err := f.setUp(); err != nil {
		t.Fatal(err)
	}
	rep := newReport()
	f.run(rep, 0, true)
	f.run(rep, 0, true)
	if rep.failed != 0 || f.expect[0] <= 0 || f.count[0] != 2 {
		t.Fatalf("two correct runs: %d failed, expect %d cycles, %d counted", rep.failed, f.expect[0], f.count[0])
	}
	f.expect[0]++
	f.run(rep, 0, true)
	if rep.failed != 1 || !math.IsInf(f.best[0], 1) {
		t.Fatalf("a run that differs from the first: %d failed, best %v s; want 1, +Inf", rep.failed, f.best[0])
	}
}
