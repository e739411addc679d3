package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"hidisc/internal/machine"
	"hidisc/internal/mem"
	"hidisc/internal/workloads"
)

// TestJobKeyDeterministicAndDistinct pins the canonical content hash:
// equal inputs hash equally (across value copies, so the key is usable
// as a cross-process cache key) and every input field participates.
func TestJobKeyDeterministic(t *testing.T) {
	base := Job{Workload: "Pointer", Arch: machine.HiDISC, Hier: mem.DefaultHierConfig(), Scale: workloads.ScalePaper}
	copy := Job{Workload: "Pointer", Arch: machine.HiDISC, Hier: mem.DefaultHierConfig(), Scale: workloads.ScalePaper}
	if base.Key() != copy.Key() {
		t.Fatalf("equal jobs hash differently: %s vs %s", base.Key(), copy.Key())
	}
	if base.Key() != base.Key() {
		t.Fatal("Key is not deterministic across calls")
	}
	if len(base.Key()) != 64 {
		t.Fatalf("key %q is not a sha256 hex digest", base.Key())
	}
	// The Configure hook is excluded by design: a perturbed job shares
	// the unperturbed key and must therefore never be cached by key.
	perturbed := base
	perturbed.Configure = func(*machine.Config) {}
	if perturbed.Key() != base.Key() {
		t.Fatal("Configure participates in Key; it must be excluded")
	}
}

// TestJobKeyGolden pins the exact digest for one known job. The key is
// an on-disk contract: hidisc-serve's result store addresses records by
// it, so any drift in the preimage — field order, separator, a renamed
// arch — silently orphans every persisted result. If this test breaks,
// either revert the change or bump the "hidisc-job-v1" version string
// so old stores are recognisably incompatible rather than quietly
// missed.
func TestJobKeyGolden(t *testing.T) {
	j := Job{Workload: "Pointer", Arch: machine.HiDISC, Hier: mem.DefaultHierConfig(), Scale: workloads.ScalePaper}
	const want = "58fae46b130923fdaf83489fdd355f9a6e3c531e52a80862034977b7e1f0c245"
	if got := j.Key(); got != want {
		t.Fatalf("canonical key drifted:\n got %s\nwant %s\nexisting result stores are now unreadable under this key scheme", got, want)
	}
}

// TestJobKeyPreimage checks Key against the preimage written by
// fmt, over jobs whose strings and numbers stretch the stack buffer,
// and pins Key to one allocation.
func TestJobKeyPreimage(t *testing.T) {
	ref := func(j Job) string {
		h := sha256.New()
		fmt.Fprintf(h, "%s|%s|%s|%d|%d,%d,%d,%d|%d,%d,%d,%d|%d",
			keyVersion, j.Workload, j.Arch, j.Scale,
			j.Hier.L1D.Sets, j.Hier.L1D.Ways, j.Hier.L1D.BlockSize, j.Hier.L1D.Latency,
			j.Hier.L2.Sets, j.Hier.L2.Ways, j.Hier.L2.BlockSize, j.Hier.L2.Latency,
			j.Hier.MemLatency)
		return hex.EncodeToString(h.Sum(nil))
	}
	base := Job{Workload: "Pointer", Arch: machine.HiDISC, Hier: mem.DefaultHierConfig(), Scale: workloads.ScalePaper}
	jobs := []Job{base}
	for _, mutate := range []func(*Job){
		func(j *Job) { j.Workload = "" },
		func(j *Job) { j.Workload = strings.Repeat("w", 300) },
		func(j *Job) { j.Arch = machine.Arch("é|,") },
		func(j *Job) { j.Scale = workloads.ScaleTest },
		func(j *Job) { j.Scale = -7 },
		func(j *Job) { j.Hier.L1D.Sets, j.Hier.L1D.Ways = -1, math.MaxInt },
		func(j *Job) { j.Hier.L2.BlockSize, j.Hier.L2.Latency = math.MinInt, 0 },
		func(j *Job) { j.Hier = j.Hier.WithLatencies(40, 376) },
	} {
		j := base
		mutate(&j)
		jobs = append(jobs, j)
	}
	for _, j := range jobs {
		if got, want := j.Key(), ref(j); got != want {
			t.Errorf("%.40q on %q: key %s, fmt preimage gives %s", j.Workload, j.Arch, got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _ = base.Key() }); n != 1 {
		t.Errorf("Key allocates %v times, want 1", n)
	}
}

func TestJobKeyDistinctness(t *testing.T) {
	base := Job{Workload: "Pointer", Arch: machine.HiDISC, Hier: mem.DefaultHierConfig(), Scale: workloads.ScalePaper}
	mutations := map[string]func(*Job){
		"workload":    func(j *Job) { j.Workload = "Update" },
		"arch":        func(j *Job) { j.Arch = machine.Superscalar },
		"scale":       func(j *Job) { j.Scale = workloads.ScaleTest },
		"l1 sets":     func(j *Job) { j.Hier.L1D.Sets *= 2 },
		"l1 ways":     func(j *Job) { j.Hier.L1D.Ways *= 2 },
		"l1 block":    func(j *Job) { j.Hier.L1D.BlockSize *= 2 },
		"l1 latency":  func(j *Job) { j.Hier.L1D.Latency++ },
		"l2 sets":     func(j *Job) { j.Hier.L2.Sets *= 2 },
		"l2 latency":  func(j *Job) { j.Hier.L2.Latency++ },
		"mem latency": func(j *Job) { j.Hier.MemLatency++ },
		"fig10 point": func(j *Job) { j.Hier = j.Hier.WithLatencies(4, 40) },
	}
	seen := map[string]string{base.Key(): "base"}
	for field, mutate := range mutations {
		j := base
		mutate(&j)
		k := j.Key()
		if prev, dup := seen[k]; dup {
			t.Errorf("mutating %s collides with %s", field, prev)
		}
		seen[k] = field
	}
}

func TestEffectiveWorkers(t *testing.T) {
	ncpu := runtime.NumCPU()
	for n, want := range map[int]int{0: ncpu, -1: ncpu, -100: ncpu, 1: 1, 7: 7} {
		if got := EffectiveWorkers(n); got != want {
			t.Errorf("EffectiveWorkers(%d) = %d, want %d", n, got, want)
		}
	}
}

// TestRunJobsZeroWorkers exercises the RunJobs fix directly: a zero
// (or negative) worker count must mean "one per CPU", not a wedged or
// serialised pool, and results must match the sequential path.
func TestRunJobsZeroWorkers(t *testing.T) {
	r := NewRunner(workloads.ScaleTest)
	jobs := []Job{
		{Workload: "Pointer", Arch: machine.Superscalar, Hier: r.Hier},
		{Workload: "Pointer", Arch: machine.HiDISC, Hier: r.Hier},
	}
	got, err := r.RunJobs(0, jobs)
	if err != nil {
		t.Fatal(err)
	}
	seq := NewRunner(workloads.ScaleTest)
	want, err := seq.RunJobs(1, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("job %d: workers=0 result differs from sequential", i)
		}
	}
}

// TestRunnerNoMemo pins the memo bypass used by hidisc-serve: with
// NoMemo the runner re-simulates (SimTotals grows) yet results stay
// identical.
func TestRunnerNoMemo(t *testing.T) {
	r := NewRunner(workloads.ScaleTest)
	r.NoMemo = true
	m1, err := r.Run("Pointer", machine.Superscalar, r.Hier)
	if err != nil {
		t.Fatal(err)
	}
	c1, _ := r.SimTotals()
	m2, err := r.Run("Pointer", machine.Superscalar, r.Hier)
	if err != nil {
		t.Fatal(err)
	}
	c2, _ := r.SimTotals()
	if c2 != 2*c1 {
		t.Errorf("NoMemo runner did not re-simulate: totals %d then %d", c1, c2)
	}
	if !reflect.DeepEqual(m1, m2) {
		t.Error("re-simulated result differs")
	}
}
