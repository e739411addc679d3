// Command hidisc-sim runs one program on one of the four simulated
// architectures and prints cycle counts and statistics.
//
// Usage:
//
//	hidisc-sim [-arch superscalar|cp+ap|cp+cmp|hidisc] [-l2 N -mem N] prog.{s,bin}
//	hidisc-sim -workload Pointer -arch hidisc
//
// The program is compiled with the HiDISC compiler (profiled when the
// architecture includes a CMP) and verified against the functional
// reference before statistics are reported; when it profiles, the
// profile run is that reference.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"hidisc/internal/asm"
	"hidisc/internal/cpu"
	"hidisc/internal/fnsim"
	"hidisc/internal/isa"
	"hidisc/internal/machine"
	"hidisc/internal/mem"
	"hidisc/internal/profile"
	"hidisc/internal/simfault"
	"hidisc/internal/slicer"
	"hidisc/internal/stats"
	"hidisc/internal/telemetry"
	"hidisc/internal/workloads"
)

func main() {
	arch := flag.String("arch", "hidisc", "architecture: superscalar, cp+ap, cp+cmp, hidisc")
	workload := flag.String("workload", "", "run a built-in benchmark instead of a file")
	scale := flag.String("scale", "paper", "built-in workload scale: test or paper")
	l2lat := flag.Int("l2", 0, "override L2 latency (cycles)")
	memlat := flag.Int("mem", 0, "override memory latency (cycles)")
	maxInsts := flag.Uint64("max-insts", 1_000_000_000, "functional execution budget")
	traceCycles := flag.Int64("trace-cycles", 0, "print a text pipeline trace for the first N cycles")
	traceFile := flag.String("trace", "", "write a machine-wide event trace to FILE")
	traceFormat := flag.String("trace-format", "", "trace encoding: perfetto (default) or ndjson")
	timelineFile := flag.String("timeline", "", "write interval time series to FILE (.csv for CSV, else NDJSON)")
	timelineInterval := flag.Int64("timeline-interval", 0, "sampling interval in cycles (default 1024)")
	compare := flag.Bool("compare", false, "run all four architectures and print a comparison table")
	noSkip := flag.Bool("no-skip", false, "disable event-driven idle-cycle skipping (tick every cycle)")
	noCompile := flag.Bool("no-compile", false, "run the functional reference and cache profile on the pure interpreter instead of the compiled fast path")
	timeout := flag.Duration("timeout", 0, "abort a wedged simulation after this long (0 = no limit)")
	dumpDir := flag.String("dump-on-fault", "", "write fault snapshots as JSON into this directory")
	flag.Parse()

	faultDumpDir = *dumpDir
	sc, err := workloads.ParseScale(*scale, workloads.ScalePaper)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hidisc-sim: -scale:", err)
		os.Exit(2)
	}
	if *compare && (*traceFile != "" || *timelineFile != "") {
		fatal(fmt.Errorf("-trace/-timeline record one machine; they cannot be combined with -compare"))
	}
	format, err := telemetry.ParseFormat(*traceFormat)
	if err != nil {
		fatal(err)
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var p *isa.Program
	switch {
	case *workload != "":
		w, werr := workloads.ByName(*workload, sc)
		if werr != nil {
			fatal(werr)
		}
		p, err = w.Program()
	case flag.NArg() == 1:
		p, err = loadProgram(flag.Arg(0))
	default:
		fmt.Fprintln(os.Stderr, "usage: hidisc-sim [-arch A] (-workload NAME | prog.{s,bin})")
		os.Exit(2)
	}
	if err != nil {
		fatal(err)
	}

	hier := mem.DefaultHierConfig()
	if *l2lat > 0 {
		hier.L2.Latency = *l2lat
	}
	if *memlat > 0 {
		hier.MemLatency = *memlat
	}

	runRef, runProf := fnsim.RunProgram, profile.CacheProfile
	if *noCompile {
		runRef, runProf = fnsim.RunProgramInterp, profile.CacheProfileInterp
	}
	// The cache profile runs the program to completion on the
	// functional simulator, so when a machine needs it, it is the
	// functional reference too and the program runs once.
	var ref fnsim.Result
	opts := slicer.Options{}
	a := machine.Arch(*arch)
	if *compare || a == machine.CPCMP || a == machine.HiDISC {
		prof, perr := runProf(p, hier, *maxInsts)
		if perr != nil {
			fatal(fmt.Errorf("profile: %w", perr))
		}
		opts.Profile = prof
		ref = fnsim.Result{Insts: prof.ExecutedInsts, MemHash: prof.MemHash, Output: prof.Output}
	} else if ref, err = runRef(p, *maxInsts); err != nil {
		fatal(fmt.Errorf("reference run: %w", err))
	}
	b, err := slicer.Separate(p, opts)
	if err != nil {
		fatal(err)
	}

	if *compare {
		var reports []stats.Report
		for _, arch := range machine.Arches {
			acfg := machine.DefaultConfig(arch)
			acfg.Hier = hier
			acfg.NoSkip = *noSkip
			am, rerr := machine.New(b, acfg)
			if rerr != nil {
				fatal(rerr)
			}
			res, rerr := am.RunContext(ctx)
			if rerr != nil {
				fatal(rerr)
			}
			if res.MemHash != ref.MemHash {
				fatal(fmt.Errorf("%s: memory image differs from the reference", arch))
			}
			reports = append(reports, stats.Report{Result: res, SeqInsts: ref.Insts})
		}
		fmt.Print(stats.Compare(reports))
		return
	}
	cfg := machine.DefaultConfig(a)
	cfg.Hier = hier
	cfg.NoSkip = *noSkip
	if *traceCycles > 0 {
		tr := &cpu.TextTracer{W: os.Stderr, ToCycle: *traceCycles}
		cfg.Wide.Tracer = tr
		cfg.CP.Tracer = tr
		cfg.AP.Tracer = tr
	}
	label := *workload
	if label == "" && flag.NArg() == 1 {
		label = filepath.Base(flag.Arg(0))
	}
	var tw *telemetry.TraceWriter
	if *traceFile != "" {
		f, ferr := os.Create(*traceFile)
		if ferr != nil {
			fatal(ferr)
		}
		tw = telemetry.NewTraceWriter(f, format)
		cfg.Trace = tw.Session(label + "/" + string(a))
	}
	if *timelineFile != "" {
		cfg.Sampler = telemetry.NewSampler(*timelineInterval)
		cfg.Sampler.SetLabel(label + "/" + string(a))
	}
	mach, err := machine.New(b, cfg)
	if err != nil {
		fatal(err)
	}
	res, err := mach.RunContext(ctx)
	if tw != nil {
		if cerr := tw.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("writing %s: %w", *traceFile, cerr)
		}
	}
	if err != nil {
		fatal(err)
	}
	if res.MemHash != ref.MemHash {
		fatal(fmt.Errorf("simulation memory image differs from the functional reference"))
	}
	if *timelineFile != "" {
		if werr := writeTimeline(*timelineFile, cfg.Sampler.Timeline()); werr != nil {
			fatal(werr)
		}
		fmt.Fprint(os.Stderr, stats.Sparklines(cfg.Sampler.Timeline()))
	}

	for _, line := range res.Output {
		fmt.Println(line)
	}
	fmt.Fprint(os.Stderr, stats.Report{Result: res, SeqInsts: ref.Insts})
}

// writeTimeline exports a timeline, choosing CSV for a .csv path and
// NDJSON otherwise.
func writeTimeline(path string, tl *telemetry.Timeline) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if filepath.Ext(path) == ".csv" {
		err = tl.WriteCSV(f)
	} else {
		err = tl.WriteNDJSON(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func loadProgram(path string) (*isa.Program, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if filepath.Ext(path) == ".bin" {
		return isa.ReadBinary(strings.NewReader(string(data)))
	}
	name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	return asm.Assemble(name, string(data))
}

// faultDumpDir, when set by -dump-on-fault, receives JSON snapshots of
// every typed fault carried by the error that killed the run.
var faultDumpDir string

func fatal(err error) {
	if faultDumpDir != "" {
		paths, werr := simfault.WriteSnapshots(faultDumpDir, err)
		if werr != nil {
			fmt.Fprintln(os.Stderr, "hidisc-sim: writing fault snapshots:", werr)
		}
		for _, p := range paths {
			fmt.Fprintln(os.Stderr, "hidisc-sim: fault snapshot written to", p)
		}
	}
	fmt.Fprintln(os.Stderr, "hidisc-sim:", err)
	os.Exit(1)
}
