// Command hidisc-bench regenerates the paper's evaluation: Table 1
// (simulation parameters), Figure 8 (speedup per benchmark), Table 2
// (average speedups), Figure 9 (cache-miss reduction), and Figure 10
// (latency tolerance for Pointer and Neighborhood).
//
// Usage:
//
//	hidisc-bench [-scale test|paper] [-j N] [-table1] [-fig8] [-table2] [-fig9] [-fig10] [-all]
//	hidisc-bench -remote http://HOST:PORT -fig8   # drive a hidisc-serve instance
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"hidisc/internal/experiments"
	"hidisc/internal/machine"
	"hidisc/internal/mem"
	"hidisc/internal/simclient"
	"hidisc/internal/simfault"
	"hidisc/internal/simserver"
	"hidisc/internal/stats"
	"hidisc/internal/telemetry"
	"hidisc/internal/workloads"
)

// validateTelemetryFlags rejects flag combinations that silently record
// nothing: -trace and -timeline instrument the local simulator, so a
// -remote run (where the simulations happen in another process) cannot
// honour them.
func validateTelemetryFlags(remote, trace, timeline string) error {
	if remote == "" {
		return nil
	}
	if trace != "" {
		return fmt.Errorf("-trace records the local simulator and cannot be combined with -remote (the simulations run on %s)", remote)
	}
	if timeline != "" {
		return fmt.Errorf("-timeline records the local simulator and cannot be combined with -remote (the simulations run on %s)", remote)
	}
	return nil
}

// writeTimelines exports every job's timeline into one NDJSON file;
// the per-row label field identifies the job.
func writeTimelines(path string, samplers []*telemetry.Sampler) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	for _, s := range samplers {
		if err == nil {
			err = s.Timeline().WriteNDJSON(f)
		}
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func main() {
	scale := flag.String("scale", "paper", "workload scale: test or paper")
	jobs := flag.Int("j", 0, "number of parallel simulation workers (<= 0: one per CPU)")
	remote := flag.String("remote", "", "submit simulations to a hidisc-serve instance at this base URL instead of running locally")
	t1 := flag.Bool("table1", false, "print Table 1 (simulation parameters)")
	f8 := flag.Bool("fig8", false, "run Figure 8 (speedups)")
	t2 := flag.Bool("table2", false, "run Table 2 (average speedups)")
	f9 := flag.Bool("fig9", false, "run Figure 9 (miss reduction)")
	f10 := flag.Bool("fig10", false, "run Figure 10 (latency tolerance)")
	lod := flag.Bool("lod", false, "run the loss-of-decoupling analysis table")
	extras := flag.Bool("extras", false, "also run the Matrix and CornerTurn stressmarks")
	all := flag.Bool("all", false, "run everything")
	timeout := flag.Duration("timeout", 0, "abort wedged simulations after this long (0 = no limit)")
	dumpDir := flag.String("dump-on-fault", "", "write fault snapshots as JSON into this directory")
	noSkip := flag.Bool("no-skip", false, "disable event-driven idle-cycle skipping (tick every cycle)")
	noCompile := flag.Bool("no-compile", false, "run the functional reference and cache profile on the pure interpreter instead of the compiled fast path")
	traceFile := flag.String("trace", "", "write a machine-wide event trace of every simulation to FILE (forces -j 1)")
	traceFormat := flag.String("trace-format", "", "trace encoding: perfetto (default) or ndjson")
	timelineFile := flag.String("timeline", "", "write per-job interval time series as NDJSON to FILE (forces -j 1)")
	timelineInterval := flag.Int64("timeline-interval", 0, "sampling interval in cycles (default 1024)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
	benchJSON := flag.String("bench-json", "", "run the Figure 8 matrix sequentially and write per-run timings as JSON to this file")
	benchReps := flag.Int("bench-reps", 3, "bench-json repetitions per entry, interleaved; each entry commits its minimum wall time")
	flag.Parse()

	faultDumpDir = *dumpDir
	if err := validateTelemetryFlags(*remote, *traceFile, *timelineFile); err != nil {
		fatal(err)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
	}
	cpuProfiling = *cpuProfile != ""
	memProfilePath = *memProfile
	defer stopProfiles()

	sc, err := workloads.ParseScale(*scale, workloads.ScalePaper)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hidisc-bench: -scale:", err)
		os.Exit(2)
	}
	if !(*t1 || *f8 || *t2 || *f9 || *f10 || *lod || *extras) {
		*all = true
	}

	r := experiments.NewRunner(sc)
	r.Workers = *jobs
	r.NoCompile = *noCompile
	if *noSkip {
		r.Configure = func(c *machine.Config) { c.NoSkip = true }
	}
	var tw *telemetry.TraceWriter
	var samplers []*telemetry.Sampler
	if *traceFile != "" || *timelineFile != "" {
		format, err := telemetry.ParseFormat(*traceFormat)
		if err != nil {
			fatal(err)
		}
		if *traceFile != "" {
			f, err := os.Create(*traceFile)
			if err != nil {
				fatal(err)
			}
			tw = telemetry.NewTraceWriter(f, format)
		}
		// One machine at a time so trace sessions never interleave on the
		// shared writer, and no memo so every job actually simulates (a
		// memo hit would leave a silent hole in the trace).
		r.Workers = 1
		r.NoMemo = true
		prev := r.Configure
		var jobSeq int
		r.Configure = func(c *machine.Config) {
			if prev != nil {
				prev(c)
			}
			jobSeq++
			label := fmt.Sprintf("job%03d/%s", jobSeq, c.Arch)
			if tw != nil {
				c.Trace = tw.Session(label)
			}
			if *timelineFile != "" {
				s := telemetry.NewSampler(*timelineInterval)
				s.SetLabel(label)
				c.Sampler = s
				samplers = append(samplers, s)
			}
		}
	}
	finishTelemetry := func() {
		if tw != nil {
			if err := tw.Close(); err != nil {
				fatal(fmt.Errorf("writing %s: %w", *traceFile, err))
			}
			fmt.Fprintf(os.Stderr, "trace written to %s (%d events)\n", *traceFile, tw.Events())
		}
		if *timelineFile != "" {
			if err := writeTimelines(*timelineFile, samplers); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "timeline written to %s (%d jobs)\n", *timelineFile, len(samplers))
		}
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
		r.Ctx = ctx
	}
	var rem *remoteRunner
	if *remote != "" {
		// DefaultOptions carries the production retry policy: ride
		// through server restarts and overload shedding instead of
		// failing the figure. The server is content-addressed (and, with
		// -store, durable), so a retried batch re-simulates nothing that
		// already completed. The same Options value configures the
		// coordinator's per-worker clients, so pointing -remote at a
		// cluster coordinator needs no flag changes.
		rc := simclient.NewWithOptions(*remote, simclient.DefaultOptions())
		rem = &remoteRunner{c: rc, ctx: ctx, scale: *scale, hier: mem.DefaultHierConfig()}
		if err := rem.c.Healthz(ctx); err != nil {
			fatal(fmt.Errorf("remote %s: %w", *remote, err))
		}
	}
	start := time.Now()

	if *benchJSON != "" {
		if err := writeBenchJSON(r, *scale, *noSkip, *noCompile, *benchReps, *benchJSON); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "bench timings written to %s in %v\n",
			*benchJSON, time.Since(start).Round(time.Millisecond))
		finishTelemetry()
		return
	}

	if *all || *t1 {
		fmt.Println(experiments.Table1())
	}
	var fig8 *experiments.Fig8
	if *all || *f8 || *t2 || *f9 || *lod {
		var err error
		if rem != nil {
			fig8, err = rem.fig8()
		} else {
			fig8, err = experiments.RunFig8(r)
		}
		if err != nil {
			fatal(err)
		}
	}
	if *all || *f8 {
		fmt.Println(fig8)
	}
	if *all || *t2 {
		fmt.Println(experiments.RunTable2(fig8))
	}
	if *all || *f9 {
		fig9 := experiments.RunFig9(fig8)
		fmt.Println(fig9)
		fmt.Printf("average HiDISC miss reduction: %.1f%%\n\n", fig9.AverageReduction("hidisc")*100)
	}
	if *all || *lod {
		fmt.Println(experiments.LODTable(fig8))
	}
	if *all || *f10 {
		for _, name := range []string{"Pointer", "NB"} {
			var p *experiments.Fig10
			var err error
			if rem != nil {
				p, err = rem.fig10(name)
			} else {
				p, err = experiments.RunFig10(r, name)
			}
			if err != nil {
				fatal(err)
			}
			fmt.Println(p)
		}
	}
	if *all || *extras {
		fmt.Println("Extra stressmarks (suite completion; not in the paper's figures):")
		for _, name := range []string{"Matrix", "CornerTurn"} {
			var base int64
			for _, arch := range machine.Arches {
				var m experiments.Measurement
				var err error
				if rem != nil {
					m, err = rem.run(name, arch)
				} else {
					m, err = r.Run(name, arch, r.Hier)
				}
				if err != nil {
					fatal(err)
				}
				if arch == machine.Superscalar {
					base = m.Cycles
				}
				fmt.Printf("  %-10s %-12s %10d cycles  %.3fx  IPC %.3f\n",
					name, arch, m.Cycles, float64(base)/float64(m.Cycles), m.IPC)
			}
		}
		fmt.Println()
	}
	finishTelemetry()
	wall := time.Since(start)
	if rem != nil {
		if ms, err := rem.c.Metrics(ctx); err == nil {
			fmt.Fprintf(os.Stderr, "total wall time: %v (remote %s): server %s\n",
				wall.Round(time.Millisecond), *remote, ms.Throughput)
		} else {
			fmt.Fprintf(os.Stderr, "total wall time: %v (remote %s)\n", wall.Round(time.Millisecond), *remote)
		}
		return
	}
	cycles, insts := r.SimTotals()
	tp := stats.Throughput{SimCycles: cycles, SimInsts: insts, Wall: wall}
	fmt.Fprintf(os.Stderr, "total wall time: %v (-j %d): %s\n",
		wall.Round(time.Millisecond), experiments.EffectiveWorkers(*jobs), tp)
}

// remoteRunner drives the figures through a hidisc-serve instance. The
// job lists are the same canonical ones the local path runs, so the
// assembled figures are bit-identical to a local run (pinned by the
// simserver end-to-end test).
type remoteRunner struct {
	c     *simclient.Client
	ctx   context.Context
	scale string
	hier  mem.HierConfig
}

// submit runs a job list remotely and returns measurements in job
// order.
func (rr *remoteRunner) submit(jobs []experiments.Job) ([]experiments.Measurement, error) {
	br := simserver.BatchRequest{Scale: rr.scale}
	for _, j := range jobs {
		br.Jobs = append(br.Jobs, simserver.JobRequest{
			Workload: j.Workload, Arch: j.Arch, Hier: simserver.HierJSON(j.Hier),
		})
	}
	ms, _, err := rr.c.Measurements(rr.ctx, br)
	return ms, err
}

func (rr *remoteRunner) fig8() (*experiments.Fig8, error) {
	jobs := experiments.Fig8Jobs(rr.hier, 0)
	ms, err := rr.submit(jobs)
	if err != nil {
		return nil, err
	}
	return experiments.Fig8From(experiments.GroupByWorkloadArch(jobs, ms)), nil
}

func (rr *remoteRunner) fig10(name string) (*experiments.Fig10, error) {
	jobs := experiments.Fig10Jobs(name, rr.hier, 0)
	ms, err := rr.submit(jobs)
	if err != nil {
		return nil, err
	}
	return experiments.Fig10From(name, jobs, ms), nil
}

func (rr *remoteRunner) run(name string, arch machine.Arch) (experiments.Measurement, error) {
	resp, err := rr.c.Run(rr.ctx, simserver.JobRequest{
		Workload: name, Arch: arch, Scale: rr.scale, Hier: simserver.HierJSON(rr.hier),
	})
	if err != nil {
		return experiments.Measurement{}, err
	}
	return resp.Decode()
}

// benchEntry is one (workload, architecture) timing in the bench-json
// report: the repo's performance trajectory is tracked as a series of
// these files (BENCH_fig8.json on main is the current baseline).
// WallSeconds is the minimum over the report's reps — the least-noisy
// estimator of the true cost on a shared host, since scheduling and
// cache interference only ever add time.
type benchEntry struct {
	Workload      string  `json:"workload"`
	Arch          string  `json:"arch"`
	SimCycles     int64   `json:"simCycles"`
	WallSeconds   float64 `json:"wallSeconds"`
	MCyclesPerSec float64 `json:"mcyclesPerSec"`
}

type benchReport struct {
	Scale     string `json:"scale"`
	Reps      int    `json:"reps"`
	GoVersion string `json:"goVersion"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"numCPU"`
	NoSkip    bool   `json:"noSkip,omitempty"`
	NoCompile bool   `json:"noCompile,omitempty"`
	// Totals are sums over the per-entry minima (and the cycle total is
	// additionally verified identical on every repetition).
	TotalWallSeconds   float64      `json:"totalWallSeconds"`
	TotalSimCycles     int64        `json:"totalSimCycles"`
	TotalMCyclesPerSec float64      `json:"totalMCyclesPerSec"`
	Entries            []benchEntry `json:"entries"`
}

// writeBenchJSON times the Figure 8 matrix sequentially — one
// simulation at a time, compile time excluded — and writes the report
// to path. The matrix is repeated reps times in interleaved order
// (whole matrix, then again) so a transient noise burst cannot poison
// every repetition of one entry, and each entry commits its minimum.
// Every run is labelled with its workload and arch for -cpuprofile
// attribution, and every repetition must reproduce the entry's cycle
// count exactly — a mismatch means the simulator went nondeterministic
// and fails the report.
func writeBenchJSON(r *experiments.Runner, scale string, noSkip, noCompile bool, reps int, path string) error {
	if reps < 1 {
		reps = 1
	}
	rep := benchReport{
		Scale: scale, Reps: reps, NoSkip: noSkip, NoCompile: noCompile,
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(),
	}
	r.NoMemo = true // every timed repetition must actually simulate
	type job struct {
		name string
		arch machine.Arch
	}
	var jobs []job
	for _, name := range workloads.Names() {
		if _, err := r.Compile(name); err != nil {
			return err
		}
		for _, arch := range machine.Arches {
			jobs = append(jobs, job{name, arch})
		}
	}
	entries := make([]benchEntry, len(jobs))
	for rp := 0; rp < reps; rp++ {
		for i, j := range jobs {
			var m experiments.Measurement
			var err error
			t0 := time.Now()
			pprof.Do(context.Background(),
				pprof.Labels("workload", j.name, "arch", string(j.arch)),
				func(context.Context) { m, err = r.Run(j.name, j.arch, r.Hier) })
			if err != nil {
				return fmt.Errorf("%s/%s: %w", j.name, j.arch, err)
			}
			wall := time.Since(t0).Seconds()
			e := &entries[i]
			switch {
			case rp == 0:
				*e = benchEntry{
					Workload: j.name, Arch: string(j.arch),
					SimCycles: m.Cycles, WallSeconds: wall,
				}
			case m.Cycles != e.SimCycles:
				return fmt.Errorf("%s/%s: nondeterministic cycle count: rep %d simulated %d cycles, rep 0 simulated %d",
					j.name, j.arch, rp+1, m.Cycles, e.SimCycles)
			case wall < e.WallSeconds:
				e.WallSeconds = wall
			}
		}
	}
	for i := range entries {
		e := &entries[i]
		e.MCyclesPerSec = float64(e.SimCycles) / 1e6 / e.WallSeconds
		rep.TotalSimCycles += e.SimCycles
		rep.TotalWallSeconds += e.WallSeconds
	}
	rep.Entries = entries
	if rep.TotalWallSeconds > 0 {
		rep.TotalMCyclesPerSec = float64(rep.TotalSimCycles) / 1e6 / rep.TotalWallSeconds
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// faultDumpDir, when set by -dump-on-fault, receives JSON snapshots of
// every typed fault carried by the error that killed the run.
var faultDumpDir string

// Profile state shared with fatal(): os.Exit skips defers, so the
// error path must flush profiles explicitly or a faulting run would
// leave a truncated, unusable profile.
var (
	cpuProfiling   bool
	memProfilePath string
)

func stopProfiles() {
	if cpuProfiling {
		pprof.StopCPUProfile()
		cpuProfiling = false
	}
	if memProfilePath != "" {
		f, err := os.Create(memProfilePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hidisc-bench: heap profile:", err)
			return
		}
		defer f.Close()
		runtime.GC() // materialise final live-heap numbers
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "hidisc-bench: heap profile:", err)
		}
		memProfilePath = ""
	}
}

func fatal(err error) {
	stopProfiles()
	if faultDumpDir != "" {
		paths, werr := simfault.WriteSnapshots(faultDumpDir, err)
		if werr != nil {
			fmt.Fprintln(os.Stderr, "hidisc-bench: writing fault snapshots:", werr)
		}
		for _, p := range paths {
			fmt.Fprintln(os.Stderr, "hidisc-bench: fault snapshot written to", p)
		}
	}
	fmt.Fprintln(os.Stderr, "hidisc-bench:", err)
	os.Exit(1)
}
