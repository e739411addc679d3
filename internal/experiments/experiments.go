// Package experiments reproduces the paper's evaluation (Section 5):
// Table 1 (simulation parameters), Figure 8 (speedup over the
// superscalar baseline for the seven benchmarks on four architecture
// models), Table 2 (average speedups), Figure 9 (cache-miss-rate
// reduction), and Figure 10 (IPC under increasing L2/memory latency
// for Pointer and Neighborhood).
//
// Matching the paper's experimental setup: the Superscalar and CP+AP
// models run the streams without cache-management slices, while CP+CMP
// and HiDISC use the profile-guided CMAS bundle.
package experiments

import (
	"bytes"
	"context"
	"fmt"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"text/tabwriter"

	"hidisc/internal/machine"
	"hidisc/internal/mem"
	"hidisc/internal/profile"
	"hidisc/internal/slicer"
	"hidisc/internal/workloads"
)

// Compiled bundles one workload's build products.
type Compiled struct {
	Workload *workloads.Workload
	SeqInsts uint64         // dynamic instruction count of the sequential binary
	MemHash  uint64         // the sequential binary's final memory image checksum
	Plain    *slicer.Bundle // no CMAS (Superscalar, CP+AP)
	CMAS     *slicer.Bundle // profile-guided CMAS (CP+CMP, HiDISC)
}

// Measurement is one (workload, architecture, hierarchy) simulation.
type Measurement struct {
	Workload    string
	Arch        machine.Arch
	Cycles      int64
	SeqInsts    uint64
	IPC         float64
	L1DAccesses uint64
	L1DMisses   uint64
	L1DMissRate float64
	Prefetches  uint64
	UsefulPref  uint64
	QueueWaitCP int64
	Result      machine.Result
}

// Runner compiles workloads once and executes measurements, verifying
// every simulation's output and final memory image against the
// functional reference.
//
// A Runner is safe for concurrent use: compilation is single-flight
// per workload, the measurement cache is mutex-guarded, and each
// simulation builds its own machine.Machine (the simulator packages
// hold no package-level mutable state — see DESIGN.md §4). The
// Configure hook may be called from several goroutines at once and
// must only mutate the *machine.Config it is handed.
type Runner struct {
	Scale workloads.Scale
	Hier  mem.HierConfig
	// Workers bounds the fan-out of RunJobs/RunAll/RunFig10; <= 0
	// means GOMAXPROCS.
	Workers int
	// Configure, when non-nil, post-processes the machine configuration
	// before each run (used by ablation benches).
	Configure func(*machine.Config)
	// Ctx, when non-nil, bounds every simulation this runner starts
	// (the figure helpers have no context parameter of their own); a
	// cancelled run surfaces as *simfault.TimeoutFault.
	Ctx context.Context
	// NoMemo disables the runner's internal measurement memo (compiled
	// bundles are still memoised). Long-lived callers that keep their
	// own bounded cache — the hidisc-serve LRU — set this so a runner
	// serving an unbounded job stream cannot grow without bound.
	NoMemo bool
	// NoCompile forces the cache-profile pass, which is also the
	// functional reference run, onto the pure fnsim interpreter
	// instead of the basic-block-compiled fast path. Both paths are
	// bit-identical by contract; the differential tests set this to
	// prove it.
	NoCompile bool

	mu       sync.Mutex
	compiled map[string]*compileEntry
	cache    map[string]Measurement

	simCycles atomic.Int64 // total simulated cycles actually executed
	simInsts  atomic.Int64 // total committed instructions actually executed
}

// compileEntry single-flights a workload compilation: the first caller
// does the work, concurrent callers wait on the Once.
type compileEntry struct {
	once sync.Once
	c    *Compiled
	err  error
}

// NewRunner returns a runner at the given scale with the Table 1
// hierarchy.
func NewRunner(scale workloads.Scale) *Runner {
	return &Runner{
		Scale:    scale,
		Hier:     mem.DefaultHierConfig(),
		compiled: map[string]*compileEntry{},
		cache:    map[string]Measurement{},
	}
}

// SimTotals returns the cumulative simulated cycles and committed
// instructions this runner has executed (cache hits excluded), for
// throughput reporting.
func (r *Runner) SimTotals() (cycles, insts int64) {
	return r.simCycles.Load(), r.simInsts.Load()
}

// Compile builds (and memoises) both bundles for the named workload.
// Concurrent calls for the same workload compile it exactly once.
func (r *Runner) Compile(name string) (*Compiled, error) {
	r.mu.Lock()
	e, ok := r.compiled[name]
	if !ok {
		e = &compileEntry{}
		r.compiled[name] = e
	}
	r.mu.Unlock()
	e.once.Do(func() { e.c, e.err = r.compile(name) })
	return e.c, e.err
}

func (r *Runner) compile(name string) (*Compiled, error) {
	w, err := workloads.ByName(name, r.Scale)
	if err != nil {
		return nil, err
	}
	p, err := w.Program()
	if err != nil {
		return nil, err
	}
	// The cache profile runs the sequential program to completion on
	// the functional simulator, so it is the functional reference too:
	// one pass yields the profile, the instruction count, the output
	// and the final memory image every machine run is checked against.
	runProf := profile.CacheProfile
	if r.NoCompile {
		runProf = profile.CacheProfileInterp
	}
	prof, err := runProf(p, r.Hier, w.MaxInsts)
	if err != nil {
		return nil, fmt.Errorf("%s: profile: %w", name, err)
	}
	if err := verifyOutput(w, prof.Output); err != nil {
		return nil, fmt.Errorf("%s: functional reference: %w", name, err)
	}
	plain, err := slicer.Separate(p, slicer.Options{})
	if err != nil {
		return nil, fmt.Errorf("%s: separate: %w", name, err)
	}
	cmas, err := slicer.Separate(p, slicer.Options{Profile: prof})
	if err != nil {
		return nil, fmt.Errorf("%s: separate with profile: %w", name, err)
	}
	return &Compiled{Workload: w, SeqInsts: prof.ExecutedInsts, MemHash: prof.MemHash, Plain: plain, CMAS: cmas}, nil
}

// bundleFor selects the paper-faithful bundle per architecture.
func (c *Compiled) bundleFor(arch machine.Arch) *slicer.Bundle {
	if arch == machine.CPCMP || arch == machine.HiDISC {
		return c.CMAS
	}
	return c.Plain
}

// ctx returns the runner's ambient context.
func (r *Runner) ctx() context.Context {
	if r.Ctx != nil {
		return r.Ctx
	}
	return context.Background()
}

// Run measures one workload on one architecture with the given
// hierarchy, verifying program output against the reference.
func (r *Runner) Run(name string, arch machine.Arch, hier mem.HierConfig) (Measurement, error) {
	return r.RunContext(r.ctx(), name, arch, hier)
}

// RunContext is Run under an explicit context; cancellation surfaces
// as *simfault.TimeoutFault. Successful measurements are memoised
// (unless NoMemo) under the job's canonical content key.
func (r *Runner) RunContext(ctx context.Context, name string, arch machine.Arch, hier mem.HierConfig) (Measurement, error) {
	j := Job{Workload: name, Arch: arch, Hier: hier, Scale: r.Scale}
	if r.NoMemo {
		return r.measure(ctx, j)
	}
	key := j.Key()
	r.mu.Lock()
	m, ok := r.cache[key]
	r.mu.Unlock()
	if ok {
		return m, nil
	}
	m, err := r.measure(ctx, j)
	if err != nil {
		return Measurement{}, err
	}
	r.mu.Lock()
	r.cache[key] = m
	r.mu.Unlock()
	return m, nil
}

// runJob executes one job. Jobs carrying a per-job Configure hook are
// perturbed (fault injection, ablations) and bypass the measurement
// cache entirely so they can never pollute healthy results.
func (r *Runner) runJob(ctx context.Context, j Job) (Measurement, error) {
	if j.Configure == nil {
		return r.RunContext(ctx, j.Workload, j.Arch, j.Hier)
	}
	return r.measure(ctx, j)
}

// measure compiles, simulates and verifies one job, uncached.
func (r *Runner) measure(ctx context.Context, j Job) (Measurement, error) {
	name, arch := j.Workload, j.Arch
	c, err := r.Compile(name)
	if err != nil {
		return Measurement{}, err
	}
	cfg := machine.DefaultConfig(arch)
	cfg.Hier = j.Hier
	if r.Configure != nil {
		r.Configure(&cfg)
	}
	if j.Configure != nil {
		j.Configure(&cfg)
	}
	mach, err := machine.New(c.bundleFor(arch), cfg)
	if err != nil {
		return Measurement{}, err
	}
	// Label the simulation span so a CPU profile taken over a whole
	// figure attributes its samples per (workload, arch) job. Labels
	// cost nothing when no profiler is attached.
	var res machine.Result
	pprof.Do(ctx, pprof.Labels("workload", name, "arch", string(arch)),
		func(ctx context.Context) { res, err = mach.RunContext(ctx) })
	if err != nil {
		return Measurement{}, fmt.Errorf("%s on %s: %w", name, arch, err)
	}
	if err := verifyOutput(c.Workload, res.Output); err != nil {
		return Measurement{}, fmt.Errorf("%s on %s: %w", name, arch, err)
	}
	if res.MemHash != c.MemHash {
		return Measurement{}, fmt.Errorf("%s on %s: memory image %#x differs from the functional reference %#x",
			name, arch, res.MemHash, c.MemHash)
	}
	r.simCycles.Add(res.Cycles)
	r.simInsts.Add(int64(res.Committed()))
	st := res.Hier.L1D
	m := Measurement{
		Workload:    name,
		Arch:        arch,
		Cycles:      res.Cycles,
		SeqInsts:    c.SeqInsts,
		IPC:         float64(c.SeqInsts) / float64(res.Cycles),
		L1DAccesses: st.DemandAccesses,
		L1DMisses:   st.DemandMisses,
		L1DMissRate: st.DemandMissRate(),
		Prefetches:  res.Hier.PrefetchIssued,
		UsefulPref:  st.UsefulPrefetch,
		Result:      res,
	}
	if cp, ok := res.Cores["cp"]; ok {
		m.QueueWaitCP = cp.QueueWaitCycles
	}
	return m, nil
}

func verifyOutput(w *workloads.Workload, got []string) error {
	if len(got) != len(w.Expected) {
		return fmt.Errorf("output %v, want %v", got, w.Expected)
	}
	for i := range w.Expected {
		if got[i] != w.Expected[i] {
			return fmt.Errorf("output[%d] = %q, want %q", i, got[i], w.Expected[i])
		}
	}
	return nil
}

// Fig8Jobs returns the Figure 8 job matrix — every benchmark on every
// architecture — at the given hierarchy and scale, in the canonical
// (workload-major) order. The same list is built by local runs and by
// remote clients so both paths simulate exactly the same jobs.
func Fig8Jobs(hier mem.HierConfig, scale workloads.Scale) []Job {
	jobs := make([]Job, 0, len(workloads.Names())*len(machine.Arches))
	for _, name := range workloads.Names() {
		for _, arch := range machine.Arches {
			jobs = append(jobs, Job{Workload: name, Arch: arch, Hier: hier, Scale: scale})
		}
	}
	return jobs
}

// GroupByWorkloadArch indexes per-job measurements (in job order) by
// workload and architecture.
func GroupByWorkloadArch(jobs []Job, ms []Measurement) map[string]map[machine.Arch]Measurement {
	out := map[string]map[machine.Arch]Measurement{}
	for i, j := range jobs {
		if out[j.Workload] == nil {
			out[j.Workload] = map[machine.Arch]Measurement{}
		}
		out[j.Workload][j.Arch] = ms[i]
	}
	return out
}

// RunAll measures every benchmark on every architecture at the default
// hierarchy, fanning the independent simulations across r.Workers
// goroutines.
func (r *Runner) RunAll() (map[string]map[machine.Arch]Measurement, error) {
	jobs := Fig8Jobs(r.Hier, r.Scale)
	ms, err := r.RunJobs(r.Workers, jobs)
	if err != nil {
		return nil, err
	}
	return GroupByWorkloadArch(jobs, ms), nil
}

// --- Table 1 ---

// Table1 renders the simulation parameters (the paper's Table 1).
func Table1() string {
	cfg := machine.DefaultConfig(machine.HiDISC)
	var b bytes.Buffer
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	row := func(k, v string) { fmt.Fprintf(tw, "%s\t%s\n", k, v) }
	fmt.Fprintln(&b, "Table 1: simulation parameters")
	row("Branch predict mode", "Bimodal")
	row("Branch table size", "2048")
	row("Issue/commit width", "8")
	row("Instruction window", fmt.Sprintf("Superscalar/AP %d, CP %d", cfg.AP.WindowSize, cfg.CP.WindowSize))
	row("Load/store queue", fmt.Sprintf("%d entries", 32))
	row("Integer units", "ALU x4, MUL/DIV (superscalar, CP, AP, CMP)")
	row("FP units", "ALU x4, MUL/DIV (superscalar and CP)")
	row("Memory ports", "2 per memory-facing processor")
	row("Data L1 cache", fmt.Sprintf("%d sets, %dB block, %d-way, LRU",
		cfg.Hier.L1D.Sets, cfg.Hier.L1D.BlockSize, cfg.Hier.L1D.Ways))
	row("Data L1 latency", fmt.Sprintf("%d cycle", cfg.Hier.L1D.Latency))
	row("Unified L2 cache", fmt.Sprintf("%d sets, %dB block, %d-way, LRU",
		cfg.Hier.L2.Sets, cfg.Hier.L2.BlockSize, cfg.Hier.L2.Ways))
	row("L2 latency", fmt.Sprintf("%d cycles", cfg.Hier.L2.Latency))
	row("Memory latency", fmt.Sprintf("%d cycles", cfg.Hier.MemLatency))
	row("Architectural queues", fmt.Sprintf("LDQ/SDQ %d, CQ %d, SCQ %d", cfg.LDQCap, cfg.CQCap, cfg.SCQCap))
	tw.Flush()
	return b.String()
}

// --- Figure 8 / Table 2 ---

// Fig8 holds per-benchmark speedups normalised to the superscalar.
type Fig8 struct {
	Rows map[string]map[machine.Arch]float64 // speedup
	Meas map[string]map[machine.Arch]Measurement
}

// RunFig8 produces Figure 8's data.
func RunFig8(r *Runner) (*Fig8, error) {
	all, err := r.RunAll()
	if err != nil {
		return nil, err
	}
	return Fig8From(all), nil
}

// Fig8From assembles Figure 8 from grouped measurements, however they
// were obtained (a local RunAll or a remote batch via hidisc-serve).
func Fig8From(all map[string]map[machine.Arch]Measurement) *Fig8 {
	f := &Fig8{Rows: map[string]map[machine.Arch]float64{}, Meas: all}
	for name, per := range all {
		base := per[machine.Superscalar].Cycles
		f.Rows[name] = map[machine.Arch]float64{}
		for arch, m := range per {
			f.Rows[name][arch] = float64(base) / float64(m.Cycles)
		}
	}
	return f
}

// String renders Figure 8 as a table of normalised performance.
func (f *Fig8) String() string {
	var b bytes.Buffer
	fmt.Fprintln(&b, "Figure 8: speed-up compared to the baseline superscalar")
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprint(tw, "benchmark\t")
	for _, a := range machine.Arches {
		fmt.Fprintf(tw, "%s\t", a)
	}
	fmt.Fprintln(tw)
	for _, name := range workloads.Names() {
		fmt.Fprintf(tw, "%s\t", name)
		for _, a := range machine.Arches {
			fmt.Fprintf(tw, "%.3f\t", f.Rows[name][a])
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	return b.String()
}

// Table2 holds the average speedup of the three enhanced models.
type Table2 struct {
	Avg map[machine.Arch]float64
}

// RunTable2 averages Figure 8's speedups (the paper's Table 2).
func RunTable2(f *Fig8) *Table2 {
	t := &Table2{Avg: map[machine.Arch]float64{}}
	for _, a := range machine.Arches {
		sum := 0.0
		for _, name := range workloads.Names() {
			sum += f.Rows[name][a]
		}
		t.Avg[a] = sum / float64(len(workloads.Names()))
	}
	return t
}

// String renders Table 2.
func (t *Table2) String() string {
	var b bytes.Buffer
	fmt.Fprintln(&b, "Table 2: average speed-up for the three architecture models")
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "configuration\tcharacteristic\tspeed-up\n")
	fmt.Fprintf(tw, "CP + AP\taccess/execute decoupling\t%+.1f%%\n", (t.Avg[machine.CPAP]-1)*100)
	fmt.Fprintf(tw, "CP + CMP\tcache prefetching\t%+.1f%%\n", (t.Avg[machine.CPCMP]-1)*100)
	fmt.Fprintf(tw, "HiDISC\tdecoupling and prefetching\t%+.1f%%\n", (t.Avg[machine.HiDISC]-1)*100)
	tw.Flush()
	return b.String()
}

// --- Figure 9 ---

// Fig9 holds normalised L1D demand-miss counts (config / baseline).
type Fig9 struct {
	Rows map[string]map[machine.Arch]float64
}

// RunFig9 produces Figure 9's data from the same measurements.
func RunFig9(f *Fig8) *Fig9 {
	g := &Fig9{Rows: map[string]map[machine.Arch]float64{}}
	for name, per := range f.Meas {
		base := per[machine.Superscalar].L1DMisses
		g.Rows[name] = map[machine.Arch]float64{}
		for arch, m := range per {
			if base == 0 {
				g.Rows[name][arch] = 1
				continue
			}
			g.Rows[name][arch] = float64(m.L1DMisses) / float64(base)
		}
	}
	return g
}

// String renders Figure 9.
func (g *Fig9) String() string {
	var b bytes.Buffer
	fmt.Fprintln(&b, "Figure 9: L1D demand misses normalised to the baseline superscalar")
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprint(tw, "benchmark\t")
	for _, a := range machine.Arches {
		fmt.Fprintf(tw, "%s\t", a)
	}
	fmt.Fprintln(tw)
	for _, name := range workloads.Names() {
		fmt.Fprintf(tw, "%s\t", name)
		for _, a := range machine.Arches {
			fmt.Fprintf(tw, "%.3f\t", g.Rows[name][a])
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	return b.String()
}

// AverageReduction returns the mean miss reduction of HiDISC over the
// benchmarks that miss at all.
func (g *Fig9) AverageReduction(arch machine.Arch) float64 {
	sum, n := 0.0, 0
	for _, per := range g.Rows {
		if v, ok := per[arch]; ok {
			sum += 1 - v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// --- Figure 10 ---

// LatencyPoints is the paper's L2/memory latency sweep.
var LatencyPoints = []struct{ L2, Mem int }{
	{4, 40}, {8, 80}, {12, 120}, {16, 160},
}

// Fig10 holds IPC per latency point per architecture for one workload.
type Fig10 struct {
	Workload string
	IPC      map[machine.Arch][]float64 // indexed by LatencyPoints
}

// Fig10Jobs returns the latency-sweep job list for one workload in
// canonical (architecture-major) order.
func Fig10Jobs(name string, hier mem.HierConfig, scale workloads.Scale) []Job {
	jobs := make([]Job, 0, len(machine.Arches)*len(LatencyPoints))
	for _, arch := range machine.Arches {
		for _, lp := range LatencyPoints {
			jobs = append(jobs, Job{Workload: name, Arch: arch, Hier: hier.WithLatencies(lp.L2, lp.Mem), Scale: scale})
		}
	}
	return jobs
}

// Fig10From assembles one Figure 10 panel from the Fig10Jobs job list
// and its per-job measurements (in job order).
func Fig10From(name string, jobs []Job, ms []Measurement) *Fig10 {
	f := &Fig10{Workload: name, IPC: map[machine.Arch][]float64{}}
	for i, j := range jobs {
		f.IPC[j.Arch] = append(f.IPC[j.Arch], ms[i].IPC)
	}
	return f
}

// RunFig10 produces Figure 10's data for one workload, running the
// latency sweep's independent points in parallel.
func RunFig10(r *Runner, name string) (*Fig10, error) {
	jobs := Fig10Jobs(name, r.Hier, r.Scale)
	ms, err := r.RunJobs(r.Workers, jobs)
	if err != nil {
		return nil, err
	}
	return Fig10From(name, jobs, ms), nil
}

// String renders one Figure 10 panel.
func (f *Fig10) String() string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "Figure 10 (%s): IPC vs L2/memory latency\n", f.Workload)
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprint(tw, "config\t")
	for _, lp := range LatencyPoints {
		fmt.Fprintf(tw, "%d/%d\t", lp.L2, lp.Mem)
	}
	fmt.Fprintln(tw, "degradation\t")
	for _, a := range machine.Arches {
		fmt.Fprintf(tw, "%s\t", a)
		ipcs := f.IPC[a]
		for _, v := range ipcs {
			fmt.Fprintf(tw, "%.3f\t", v)
		}
		fmt.Fprintf(tw, "%.1f%%\t\n", f.Degradation(a)*100)
	}
	tw.Flush()
	return b.String()
}

// Degradation returns the relative IPC loss from the shortest to the
// longest latency point.
func (f *Fig10) Degradation(arch machine.Arch) float64 {
	ipcs := f.IPC[arch]
	if len(ipcs) == 0 || ipcs[0] == 0 {
		return 0
	}
	return (ipcs[0] - ipcs[len(ipcs)-1]) / ipcs[0]
}

// LODTable renders the loss-of-decoupling analysis of Section 5.3: for
// the decoupled machines, the fraction of cycles each processor's
// oldest instruction was stalled on an architectural queue. High CP
// numbers mean the CP starves for AP data (healthy decoupling has the
// CP comfortably behind); high AP numbers mean the AP waits on
// computed values — the loss-of-decoupling events the paper blames for
// Neighborhood's slowdown.
func LODTable(f *Fig8) string {
	var b bytes.Buffer
	fmt.Fprintln(&b, "Loss-of-decoupling analysis (queue-wait cycle fraction)")
	tw := tabwriter.NewWriter(&b, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "benchmark\tCP wait (cp+ap)\tAP wait (cp+ap)\tCP wait (hidisc)\tAP wait (hidisc)\t")
	for _, name := range workloads.Names() {
		fmt.Fprintf(tw, "%s\t", name)
		for _, arch := range []machine.Arch{machine.CPAP, machine.HiDISC} {
			m := f.Meas[name][arch]
			for _, core := range []string{"cp", "ap"} {
				s := m.Result.Cores[core]
				frac := 0.0
				if s.Cycles > 0 {
					frac = float64(s.QueueWaitCycles) / float64(s.Cycles)
				}
				fmt.Fprintf(tw, "%.3f\t", frac)
			}
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
	return b.String()
}
