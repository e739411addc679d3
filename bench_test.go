package hidisc

// The benchmark harness: one testing.B benchmark per table and figure
// of the paper's evaluation (Section 5), plus ablations over the
// design knobs DESIGN.md calls out. Results are reported as custom
// metrics (speedup, IPC, normalised misses) so `go test -bench` output
// is directly comparable with the paper's numbers.
//
// Workloads default to the fast test scale; set HIDISC_SCALE=paper to
// run the paper-scale working sets (as cmd/hidisc-bench does).

import (
	"fmt"
	"os"
	"testing"

	"hidisc/internal/asm"
	"hidisc/internal/experiments"
	"hidisc/internal/fnsim"
	"hidisc/internal/isa"
	"hidisc/internal/machine"
	"hidisc/internal/mem"
	"hidisc/internal/profile"
	"hidisc/internal/queue"
	"hidisc/internal/slicer"
	"hidisc/internal/stats"
	"hidisc/internal/workloads"
)

// reportThroughput attaches the simulator-speed metrics to a benchmark:
// simulated cycles and committed instructions per wall-clock second
// (stats.Throughput). Pass the simulated work actually performed during
// the benchmark; memoised re-runs contribute nothing, so a benchmark
// whose measurements were already cached honestly reports ~0.
func reportThroughput(b *testing.B, cycles, insts int64) {
	b.Helper()
	tp := stats.Throughput{SimCycles: cycles, SimInsts: insts, Wall: b.Elapsed()}
	b.ReportMetric(tp.CyclesPerSec()/1e6, "simMcycles/s")
	b.ReportMetric(tp.MIPS(), "simMIPS")
}

func benchScale() workloads.Scale {
	if os.Getenv("HIDISC_SCALE") == "paper" {
		return workloads.ScalePaper
	}
	return workloads.ScaleTest
}

// sharedRunner memoises compilations and simulations across benchmark
// iterations and benchmarks.
var sharedRunner = experiments.NewRunner(benchScale())

func measure(b *testing.B, name string, arch machine.Arch, hier mem.HierConfig) experiments.Measurement {
	b.Helper()
	m, err := sharedRunner.Run(name, arch, hier)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkTable1Params renders the simulation-parameter table.
func BenchmarkTable1Params(b *testing.B) {
	var s string
	for i := 0; i < b.N; i++ {
		s = experiments.Table1()
	}
	if len(s) == 0 {
		b.Fatal("empty table")
	}
	reportThroughput(b, 0, 0) // renders a table; no simulation
}

// BenchmarkFig8Speedup regenerates Figure 8: per-benchmark speedup of
// each architecture over the superscalar baseline.
func BenchmarkFig8Speedup(b *testing.B) {
	hier := mem.DefaultHierConfig()
	for _, name := range workloads.Names() {
		name := name
		b.Run(name, func(b *testing.B) {
			c0, i0 := sharedRunner.SimTotals()
			var base experiments.Measurement
			for i := 0; i < b.N; i++ {
				base = measure(b, name, machine.Superscalar, hier)
			}
			for _, arch := range machine.Arches[1:] {
				m := measure(b, name, arch, hier)
				b.ReportMetric(float64(base.Cycles)/float64(m.Cycles), string(arch)+"-speedup")
			}
			b.ReportMetric(base.IPC, "baseline-IPC")
			c1, i1 := sharedRunner.SimTotals()
			reportThroughput(b, c1-c0, i1-i0)
		})
	}
}

// BenchmarkTable2AverageSpeedup regenerates Table 2: the average
// speedup of the three enhanced models.
func BenchmarkTable2AverageSpeedup(b *testing.B) {
	c0, i0 := sharedRunner.SimTotals()
	var t2 *experiments.Table2
	for i := 0; i < b.N; i++ {
		fig8, err := experiments.RunFig8(sharedRunner)
		if err != nil {
			b.Fatal(err)
		}
		t2 = experiments.RunTable2(fig8)
	}
	b.ReportMetric((t2.Avg[machine.CPAP]-1)*100, "cp+ap-pct")
	b.ReportMetric((t2.Avg[machine.CPCMP]-1)*100, "cp+cmp-pct")
	b.ReportMetric((t2.Avg[machine.HiDISC]-1)*100, "hidisc-pct")
	c1, i1 := sharedRunner.SimTotals()
	reportThroughput(b, c1-c0, i1-i0)
}

// BenchmarkFig9MissReduction regenerates Figure 9: L1D demand misses
// normalised to the baseline.
func BenchmarkFig9MissReduction(b *testing.B) {
	c0, i0 := sharedRunner.SimTotals()
	var fig9 *experiments.Fig9
	for i := 0; i < b.N; i++ {
		fig8, err := experiments.RunFig8(sharedRunner)
		if err != nil {
			b.Fatal(err)
		}
		fig9 = experiments.RunFig9(fig8)
	}
	for _, name := range workloads.Names() {
		b.ReportMetric(fig9.Rows[name][machine.HiDISC], name+"-normmiss")
	}
	b.ReportMetric(fig9.AverageReduction(machine.HiDISC)*100, "avg-reduction-pct")
	c1, i1 := sharedRunner.SimTotals()
	reportThroughput(b, c1-c0, i1-i0)
}

// BenchmarkFig10LatencyTolerance regenerates Figure 10: IPC under
// growing L2/memory latency for Pointer and Neighborhood.
func BenchmarkFig10LatencyTolerance(b *testing.B) {
	for _, name := range []string{"Pointer", "NB"} {
		name := name
		b.Run(name, func(b *testing.B) {
			c0, i0 := sharedRunner.SimTotals()
			var fig *experiments.Fig10
			for i := 0; i < b.N; i++ {
				var err error
				fig, err = experiments.RunFig10(sharedRunner, name)
				if err != nil {
					b.Fatal(err)
				}
			}
			for _, arch := range machine.Arches {
				b.ReportMetric(fig.Degradation(arch)*100, string(arch)+"-degradation-pct")
			}
			c1, i1 := sharedRunner.SimTotals()
			reportThroughput(b, c1-c0, i1-i0)
		})
	}
}

// --- Ablations (DESIGN.md section 5) ---

// ablationRun compiles Update (the most prefetch-sensitive workload)
// and runs HiDISC under a modified configuration.
func ablationRun(b *testing.B, mutate func(*machine.Config)) experiments.Measurement {
	b.Helper()
	r := experiments.NewRunner(benchScale())
	r.Configure = mutate
	m, err := r.Run("Update", machine.HiDISC, mem.DefaultHierConfig())
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkAblationSCQDepth sweeps the slip-control queue depth — the
// CMAS run-ahead bound the paper proposes controlling dynamically.
func BenchmarkAblationSCQDepth(b *testing.B) {
	for _, depth := range []int{4, 16, 32, 128} {
		depth := depth
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			var m experiments.Measurement
			var cycles, insts int64
			for i := 0; i < b.N; i++ {
				m = ablationRun(b, func(c *machine.Config) { c.SCQCap = depth })
				cycles += m.Cycles
				insts += int64(m.Result.Committed())
			}
			b.ReportMetric(float64(m.Cycles), "cycles")
			reportThroughput(b, cycles, insts)
		})
	}
}

// BenchmarkAblationCPWindow sweeps the Computation Processor window
// (Table 1 fixes it at 16; the loss-of-decoupling cases are sensitive
// to it).
func BenchmarkAblationCPWindow(b *testing.B) {
	for _, win := range []int{8, 16, 32, 64} {
		win := win
		b.Run(fmt.Sprintf("window%d", win), func(b *testing.B) {
			r := experiments.NewRunner(benchScale())
			r.Configure = func(c *machine.Config) { c.CP.WindowSize = win }
			var m experiments.Measurement
			for i := 0; i < b.N; i++ {
				var err error
				m, err = r.Run("NB", machine.CPAP, mem.DefaultHierConfig())
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(m.IPC, "IPC")
			cycles, insts := r.SimTotals()
			reportThroughput(b, cycles, insts)
		})
	}
}

// BenchmarkAblationBlockingHandshake compares the default annotation
// handshake against the paper's literal blocking GETSCQ/PUTSCQ
// (Figure 3) on the Update stressmark.
func BenchmarkAblationBlockingHandshake(b *testing.B) {
	w, err := workloads.ByName("Update", benchScale())
	if err != nil {
		b.Fatal(err)
	}
	for _, blocking := range []bool{false, true} {
		blocking := blocking
		name := "annotations"
		if blocking {
			name = "blocking-getscq"
		}
		b.Run(name, func(b *testing.B) {
			p := mustProgram(b, w)
			prof, err := profileFor(p, w.MaxInsts)
			if err != nil {
				b.Fatal(err)
			}
			bundle, err := slicer.Separate(p, slicer.Options{
				Profile: prof, BlockingHandshake: blocking,
			})
			if err != nil {
				b.Fatal(err)
			}
			cfg := machine.DefaultConfig(machine.HiDISC)
			cfg.AP.BlockingSCQ = blocking
			var last, cycles, insts int64
			for i := 0; i < b.N; i++ {
				m, err := machine.New(bundle, cfg)
				if err != nil {
					b.Fatal(err)
				}
				res, err := m.Run()
				if err != nil {
					b.Fatal(err)
				}
				last = res.Cycles
				cycles += res.Cycles
				insts += int64(res.Committed())
			}
			b.ReportMetric(float64(last), "cycles")
			reportThroughput(b, cycles, insts)
		})
	}
}

// BenchmarkAblationPrefetchDistance sweeps the static prefetch
// distance applied to strided CMAS seeds.
func BenchmarkAblationPrefetchDistance(b *testing.B) {
	w, err := workloads.ByName("TC", benchScale())
	if err != nil {
		b.Fatal(err)
	}
	for _, dist := range []int32{-1, 64, 128, 512} {
		dist := dist
		name := fmt.Sprintf("dist%d", dist)
		if dist < 0 {
			name = "dist0"
		}
		b.Run(name, func(b *testing.B) {
			p := mustProgram(b, w)
			prof, err := profileFor(p, w.MaxInsts)
			if err != nil {
				b.Fatal(err)
			}
			d := dist
			if d < 0 {
				d = 1 // effectively no run-ahead offset
			}
			bundle, err := slicer.Separate(p, slicer.Options{Profile: prof, PrefetchDistance: d})
			if err != nil {
				b.Fatal(err)
			}
			var last, cycles, insts int64
			for i := 0; i < b.N; i++ {
				res, err := machine.RunArch(bundle, machine.HiDISC, mem.DefaultHierConfig())
				if err != nil {
					b.Fatal(err)
				}
				last = res.Cycles
				cycles += res.Cycles
				insts += int64(res.Committed())
			}
			b.ReportMetric(float64(last), "cycles")
			reportThroughput(b, cycles, insts)
		})
	}
}

// --- component microbenchmarks ---

const microKernel = `
        .data
buf:    .space 65536
        .text
main:   la   $r2, buf
        li   $r1, 2048
loop:   lw   $r3, 0($r2)
        add  $r4, $r4, $r3
        xor  $r5, $r4, $r3
        sw   $r5, 0($r2)
        addi $r2, $r2, 32
        addi $r1, $r1, -1
        bgtz $r1, loop
        out  $r4
        halt
`

// BenchmarkAssembler measures assembler throughput.
func BenchmarkAssembler(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := asm.Assemble("micro", microKernel); err != nil {
			b.Fatal(err)
		}
	}
	reportThroughput(b, 0, 0) // assembles only; no simulation
}

// BenchmarkFunctionalSim measures functional interpreter throughput in
// instructions per second.
func BenchmarkFunctionalSim(b *testing.B) {
	p := mustAssemble(b, "micro", microKernel)
	var insts uint64
	for i := 0; i < b.N; i++ {
		res, err := fnsim.RunProgram(p, 1_000_000)
		if err != nil {
			b.Fatal(err)
		}
		insts = res.Insts
	}
	b.ReportMetric(float64(insts)*float64(b.N), "insts")
	reportThroughput(b, 0, int64(insts)*int64(b.N)) // functional: no cycle model
}

// BenchmarkCompile measures workload set-up: a fresh Runner compiling
// the seven Figure 8 workloads at test scale (assembly, the functional
// cache-profile pass and both stream separations). It is the set-up
// cost the Figure 8 matrix and every service worker pay once per
// workload.
func BenchmarkCompile(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := experiments.NewRunner(workloads.ScaleTest)
		for _, name := range workloads.Names() {
			if _, err := r.Compile(name); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkStreamSeparation measures compiler throughput.
func BenchmarkStreamSeparation(b *testing.B) {
	p := mustAssemble(b, "micro", microKernel)
	for i := 0; i < b.N; i++ {
		if _, err := slicer.Separate(p, slicer.Options{}); err != nil {
			b.Fatal(err)
		}
	}
	reportThroughput(b, 0, 0) // compiles only; no simulation
}

// BenchmarkCycleSimulator measures timing-simulator throughput in
// simulated cycles per wall second.
func BenchmarkCycleSimulator(b *testing.B) {
	p := mustAssemble(b, "micro", microKernel)
	bundle, err := slicer.Separate(p, slicer.Options{})
	if err != nil {
		b.Fatal(err)
	}
	var cycles, insts int64
	for i := 0; i < b.N; i++ {
		res, err := machine.RunArch(bundle, machine.Superscalar, mem.DefaultHierConfig())
		if err != nil {
			b.Fatal(err)
		}
		cycles += res.Cycles
		insts += int64(res.Committed())
	}
	reportThroughput(b, cycles, insts)
}

// BenchmarkQueueOps measures the architectural queue primitives.
func BenchmarkQueueOps(b *testing.B) {
	q := queue.New("bench", 64)
	for i := 0; i < b.N; i++ {
		q.Push(uint64(i))
		s := q.Claim()
		_ = q.ValueAt(s)
		q.Free(s)
	}
	reportThroughput(b, 0, 0) // queue primitive; no simulation
}

// BenchmarkCacheAccess measures hierarchy lookup throughput.
func BenchmarkCacheAccess(b *testing.B) {
	h, err := mem.NewHierarchy(mem.DefaultHierConfig())
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		h.Access(int64(i), uint32(i*64), false, false)
	}
	reportThroughput(b, 0, 0) // cache primitive; no simulation
}

func profileFor(p *isa.Program, maxInsts uint64) (*profile.Profile, error) {
	return profile.CacheProfile(p, mem.DefaultHierConfig(), maxInsts)
}

// BenchmarkAblationDynamicDistance compares the static prefetch
// distance against the runtime controller of Section 6's future work.
func BenchmarkAblationDynamicDistance(b *testing.B) {
	for _, dynamic := range []bool{false, true} {
		dynamic := dynamic
		name := "static"
		if dynamic {
			name = "dynamic"
		}
		b.Run(name, func(b *testing.B) {
			r := experiments.NewRunner(benchScale())
			r.Configure = func(c *machine.Config) { c.CMP.DynamicDistance = dynamic }
			var m experiments.Measurement
			for i := 0; i < b.N; i++ {
				var err error
				m, err = r.Run("NB", machine.HiDISC, mem.DefaultHierConfig())
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(m.IPC, "IPC")
			b.ReportMetric(float64(m.L1DMisses), "misses")
			cycles, insts := r.SimTotals()
			reportThroughput(b, cycles, insts)
		})
	}
}

// BenchmarkAblationControlThinning compares default control-queue
// thinning against mirroring every branch into the CP.
func BenchmarkAblationControlThinning(b *testing.B) {
	w, err := workloads.ByName("Field", benchScale())
	if err != nil {
		b.Fatal(err)
	}
	for _, keepAll := range []bool{false, true} {
		keepAll := keepAll
		name := "thinned"
		if keepAll {
			name = "mirror-all"
		}
		b.Run(name, func(b *testing.B) {
			p := mustProgram(b, w)
			bundle, err := slicer.Separate(p, slicer.Options{KeepAllControl: keepAll})
			if err != nil {
				b.Fatal(err)
			}
			var last, cycles, insts int64
			for i := 0; i < b.N; i++ {
				res, err := machine.RunArch(bundle, machine.CPAP, mem.DefaultHierConfig())
				if err != nil {
					b.Fatal(err)
				}
				last = res.Cycles
				cycles += res.Cycles
				insts += int64(res.Committed())
			}
			b.ReportMetric(float64(last), "cycles")
			reportThroughput(b, cycles, insts)
		})
	}
}

// mustAssemble assembles fixed test source, failing the test on error.
func mustAssemble(tb testing.TB, name, src string) *isa.Program {
	tb.Helper()
	p, err := asm.Assemble(name, src)
	if err != nil {
		tb.Fatalf("assemble %s: %v", name, err)
	}
	return p
}

// mustProgram assembles a workload, failing the benchmark on error.
func mustProgram(tb testing.TB, w *workloads.Workload) *isa.Program {
	tb.Helper()
	p, err := w.Program()
	if err != nil {
		tb.Fatalf("assemble %s: %v", w.Name, err)
	}
	return p
}
