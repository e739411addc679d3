package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"time"

	"hidisc/internal/experiments"
	"hidisc/internal/fnsim"
	"hidisc/internal/machine"
	"hidisc/internal/mem"
	"hidisc/internal/profile"
	"hidisc/internal/slicer"
	"hidisc/internal/workloads"
)

// compileReps is how many times the traced run times each compile
// stage.
const compileReps = 3

// runFig8 measures the paper's 28-job Figure 8 matrix, one simulation
// at a time. The timed part runs the matrix at test scale in seeded
// passes for the whole window, cut into fig8Segments segments, each on a
// runner set up (Runner.Compile of the seven workloads) just before it.
// Each entry keeps its fastest run and setup_s the fastest set-up: host
// contention only ever adds time, and a test-scale entry runs over a
// hundred times in a window, so its minimum finds the host's calm
// moments in every run. At paper scale an entry runs only three or four
// times in a window, and its minimum spread by 12-44% between runs
// (NOTES.md).
// After the window one paper-scale pass checks every entry's simulated
// cycles against BENCH_fig8.json; it is not timed.
func runFig8(o options) (*report, error) {
	rep := newReport()
	expect, err := loadExpectedCycles(filepath.Join(o.repoRoot, "BENCH_fig8.json"))
	if err != nil {
		return nil, err
	}
	if o.trace {
		return tracedFig8(o, rep, expect)
	}
	before := readRuntime()
	f := newFig8Run(workloads.ScaleTest, nil, o.seed)
	var setups []float64
	for part := 0; part < fig8Segments; part++ {
		t0 := time.Now()
		if err := f.setUp(); err != nil {
			return nil, err
		}
		setups = append(setups, elapsedSince(t0))
		f.runFor(rep, o.seconds/fig8Segments)
	}
	after := readRuntime()
	rep.set("jobs_per_s", f.jobsPerSec())
	best := dist{xs: msOf(f.best)}
	rep.setDist("p50_ms", &best)
	// 28 entries are too few for a p99: the tail metric is the slowest
	// entry's time.
	rep.set("p99_ms", best.quantile(1))
	rep.set("setup_s", minOf(setups))
	rep.note("fig8 test scale: %d runs in %.3f s, runs per entry %d-%d; setup reps %.4f s",
		f.runs, f.timed, slices.Min(f.count), slices.Max(f.count), setups)
	noteRuntime(rep, before, after, f.runs)

	pf := newFig8Run(workloads.ScalePaper, expect, o.seed)
	if err := pf.setUp(); err != nil {
		return nil, err
	}
	t0 := time.Now()
	pf.pass(rep)
	rep.note("fig8 paper-scale check pass: %.3f s", elapsedSince(t0))
	rep.set("success_ratio", successRatio(rep))
	return rep, nil
}

// tracedFig8 prints the per-layer ledger at paper scale, where each
// entry runs long enough for the CPU profiler to sample it.
func tracedFig8(o options, rep *report, expect map[string]int64) (*report, error) {
	f := newFig8Run(workloads.ScalePaper, expect, o.seed)
	if err := f.setUp(); err != nil {
		return nil, err
	}
	compileLedger(rep, workloads.ScaleTest, mem.DefaultHierConfig(), compileReps)

	// One pass in which every job runs twice back to back, plain and
	// under the CPU profiler, alternating which goes first. The plain
	// runs give the machine ledger; the profiled runs give the
	// per-package CPU split. Adjacent runs see the same host, so their
	// ratio is the cost of observing even while the host's speed drifts.
	before := readRuntime()
	plain, profiled, allocBytes, profiles, err := f.pairedPass(rep, o.workdir)
	after := readRuntime()
	if err != nil {
		return nil, err
	}
	sums := map[string]float64{}
	for i, j := range f.jobs {
		sums[archMetric(j.Arch)] += f.best[i]
		sums["machine."+j.Workload+"_s"] += f.best[i]
	}
	for _, a := range machine.Arches {
		rep.set(archMetric(a), sums[archMetric(a)])
	}
	for _, w := range workloads.Names() {
		rep.set("machine."+w+"_s", sums["machine."+w+"_s"])
	}
	rep.set("machine.sim_mcycles_per_s", float64(f.totalCycles())/sum(f.best)/1e6)
	allocKB := float64(allocBytes) / 1024 / float64(len(f.jobs))
	rep.set("machine.alloc_kb_per_job", allocKB)
	rep.set("runtime.alloc_kb_per_op", allocKB)
	rep.set("runtime.gc_cpu_share", after.gcShareSince(before))
	rep.set("tracing.overhead_pct", 100*(profiled-plain)/plain)
	shares, samples, err := cpuShares(profiles)
	if err != nil {
		return nil, err
	}
	for _, grp := range cpuShareGroups {
		rep.set("cpu_share."+grp, shares[grp])
	}
	rep.note("fig8 paired pass: plain %.3f s, profiled %.3f s, %.0f ms of CPU samples", plain, profiled, samples)
	serviceIdle(rep)
	return rep, nil
}

// fig8Segments is how many set-ups a fig8 run interleaves with its
// window. A test-scale set-up takes about 10 ms, so many cost nothing,
// and their minimum is steadier than that of a few.
const fig8Segments = 16

// fig8Run is the state of one series of passes.
type fig8Run struct {
	scale  workloads.Scale
	runner *experiments.Runner // set up before each segment
	jobs   []experiments.Job
	// expect is the simulated cycles every run of an entry must give:
	// BENCH_fig8.json's at paper scale, the entry's first run at test
	// scale (0 until then).
	expect []int64
	best   []float64
	count  []int // runs per entry
	rng    *rand.Rand
	runs   int64
	timed  float64 // seconds spent in the runs that were kept
}

func newFig8Run(scale workloads.Scale, expect map[string]int64, seed uint64) *fig8Run {
	jobs := experiments.Fig8Jobs(mem.DefaultHierConfig(), scale)
	f := &fig8Run{scale: scale, jobs: jobs, best: make([]float64, len(jobs)),
		expect: make([]int64, len(jobs)), count: make([]int, len(jobs)),
		rng: rand.New(rand.NewPCG(seed, streamFig8))}
	for i, j := range jobs {
		f.expect[i] = expect[j.Workload+"/"+string(j.Arch)]
	}
	return f
}

// setUp replaces the runner with a new one and compiles the seven
// workloads on it.
func (f *fig8Run) setUp() error {
	r := experiments.NewRunner(f.scale)
	r.NoMemo = true
	for _, w := range workloads.Names() {
		if _, err := r.Compile(w); err != nil {
			return err
		}
	}
	f.runner = r
	return nil
}

// runFor runs seeded passes over the matrix until the given seconds
// have passed; the last pass stops where the time runs out.
func (f *fig8Run) runFor(rep *report, seconds float64) {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for time.Now().Before(deadline) {
		for _, i := range f.rng.Perm(len(f.jobs)) {
			if !time.Now().Before(deadline) {
				break
			}
			f.run(rep, i, true)
		}
	}
}

// pass runs every entry once, in a seeded order.
func (f *fig8Run) pass(rep *report) {
	for _, i := range f.rng.Perm(len(f.jobs)) {
		f.run(rep, i, true)
	}
}

// pairedPass runs every job plain and profiled (one profile file per
// job). It returns the two total times, the bytes the plain runs
// allocated, and the profile files.
func (f *fig8Run) pairedPass(rep *report, dir string) (plain, profiled float64, alloc uint64, files []string, err error) {
	for k, i := range f.rng.Perm(len(f.jobs)) {
		path := filepath.Join(dir, fmt.Sprintf("cpu%02d.pprof", i))
		files = append(files, path)
		for r := 0; r < 2; r++ {
			if (k+r)%2 == 0 {
				before := readRuntime()
				plain += f.run(rep, i, true)
				alloc += readRuntime().allocBytes - before.allocBytes
				continue
			}
			d, err := f.runProfiled(rep, i, path)
			if err != nil {
				return 0, 0, 0, nil, err
			}
			profiled += d
		}
	}
	return plain, profiled, alloc, files, nil
}

func (f *fig8Run) runProfiled(rep *report, i int, path string) (float64, error) {
	pf, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	if err := pprof.StartCPUProfile(pf); err != nil {
		pf.Close()
		return 0, err
	}
	d := f.run(rep, i, false)
	pprof.StopCPUProfile()
	return d, pf.Close()
}

// run simulates job i once, checks it, and returns its wall time;
// keep folds the time into the entry's minimum. A failed run sets the
// entry's time to +Inf for good, so it misses every limit: jobs_per_s
// drops to 0 and the latencies print as 1e12.
func (f *fig8Run) run(rep *report, i int, keep bool) float64 {
	j := f.jobs[i]
	rep.attempted++
	t0 := time.Now()
	m, err := f.runner.Run(j.Workload, j.Arch, j.Hier)
	d := elapsedSince(t0)
	switch {
	case err != nil: // includes the Runner's fnsim output check
		rep.fail("fig8 %s/%s: %v", j.Workload, j.Arch, err)
		f.best[i] = math.Inf(1)
	case m.Cycles <= 0 || f.expect[i] != 0 && m.Cycles != f.expect[i]:
		src := "its first run"
		if f.scale == workloads.ScalePaper {
			src = "BENCH_fig8.json"
		}
		rep.fail("fig8 %s/%s: %d cycles, %s has %d", j.Workload, j.Arch, m.Cycles, src, f.expect[i])
		f.best[i] = math.Inf(1)
	case keep:
		f.expect[i] = m.Cycles
		f.runs++
		f.count[i]++
		f.timed += d
		if !math.IsInf(f.best[i], 1) && (f.best[i] == 0 || d < f.best[i]) {
			f.best[i] = d
		}
	}
	return d
}

// jobsPerSec is the matrix size over the sum of per-entry minimums.
func (f *fig8Run) jobsPerSec() float64 { return float64(len(f.jobs)) / sum(f.best) }

func (f *fig8Run) totalCycles() int64 {
	t := int64(0)
	for _, c := range f.expect {
		t += c
	}
	return t
}

func loadExpectedCycles(path string) (map[string]int64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading the cycle ledger: %w", err)
	}
	var doc struct {
		Scale   string `json:"scale"`
		Entries []struct {
			Workload  string `json:"workload"`
			Arch      string `json:"arch"`
			SimCycles int64  `json:"simCycles"`
		} `json:"entries"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if doc.Scale != "paper" {
		return nil, fmt.Errorf("%s: scale %q, want paper", path, doc.Scale)
	}
	out := map[string]int64{}
	for _, e := range doc.Entries {
		out[e.Workload+"/"+e.Arch] = e.SimCycles
	}
	for _, j := range experiments.Fig8Jobs(mem.DefaultHierConfig(), workloads.ScalePaper) {
		if out[j.Workload+"/"+string(j.Arch)] == 0 {
			return nil, fmt.Errorf("%s: no entry for %s/%s", path, j.Workload, j.Arch)
		}
	}
	return out, nil
}

// compileLedger times each compile stage through its public function,
// summed over the seven workloads, reps times.
func compileLedger(rep *report, scale workloads.Scale, hier mem.HierConfig, reps int) {
	stage := map[string]*dist{}
	for _, s := range compileStages {
		stage[s] = &dist{}
	}
	var insts uint64
	var fnsimSec float64
	for i := 0; i < reps; i++ {
		tot := map[string]float64{}
		for _, name := range workloads.Names() {
			t := time.Now()
			lap := func(s string) float64 {
				ms := elapsedSince(t) * 1e3
				tot[s] += ms
				t = time.Now()
				return ms
			}
			w, err := workloads.ByName(name, scale)
			if err != nil {
				rep.fail("compile %s: %v", name, err)
				continue
			}
			p, err := w.Program()
			lap("program")
			if err != nil {
				rep.fail("compile %s: %v", name, err)
				continue
			}
			ref, err := fnsim.RunProgram(p, w.MaxInsts)
			refMs := lap("fnsim_ref")
			if err == nil {
				insts += ref.Insts
				fnsimSec += refMs / 1e3
				_, err = slicer.Separate(p, slicer.Options{})
				lap("separate")
			}
			var prof *profile.Profile
			if err == nil {
				prof, err = profile.CacheProfile(p, hier, w.MaxInsts)
				lap("profile")
			}
			if err == nil {
				_, err = slicer.Separate(p, slicer.Options{Profile: prof})
				lap("separate_cmas")
			}
			rep.attempted++
			if err != nil {
				rep.fail("compile %s: %v", name, err)
			}
		}
		for _, s := range compileStages {
			stage[s].add(tot[s])
		}
	}
	for _, s := range compileStages {
		rep.setDist("compile."+s+"_ms", stage[s])
	}
	rep.set("compile.fnsim_minsts_per_s", float64(insts)/fnsimSec/1e6)
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func msOf(secs []float64) []float64 {
	out := make([]float64, len(secs))
	for i, s := range secs {
		out[i] = s * 1e3
	}
	return out
}

func successRatio(rep *report) float64 {
	return float64(rep.attempted-rep.failed) / float64(rep.attempted)
}
