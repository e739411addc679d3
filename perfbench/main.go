// Command perfbench is the repository's benchmark. Each invocation runs
// one workload in its own process and prints, as the last line of
// standard output, one JSON object with the run's correctness and its
// metrics: the end-to-end metrics with -trace 0, the per-layer ledger
// with -trace 1. NOTES.md explains the workloads, the metrics, the
// prediction table and the measured spreads.
//
// Usage (from the repository root, through the build wrapper):
//
//	python3 perfbench/run.py --workload fig8 --seed 1 --seconds 25 --trace 0
//	python3 perfbench/run.py --all   # every workload, then rewrite BENCHMARK.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// report is what one run produces.
type report struct {
	attempted, failed int64
	// mismatches lists failed operations by key, printed before the
	// result line.
	mismatches []string
	// metrics are the values of the printed set (end-to-end or
	// per-layer); rows add sample counts and p99s for the ledger.
	metrics map[string]float64
	rows    []row
	notes   []string
}

// row is one printed ledger line.
type row struct {
	name string
	dist *dist // nil for scalars
	val  float64
}

func newReport() *report { return &report{metrics: map[string]float64{}} }

func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.mismatches) < 20 {
		r.mismatches = append(r.mismatches, fmt.Sprintf(format, args...))
	}
}

func (r *report) set(name string, v float64) {
	r.metrics[name] = v
	r.rows = append(r.rows, row{name: name, val: v})
}

// setDist records a timing's p50 as the metric and keeps the
// distribution for its sample count and p99.
func (r *report) setDist(name string, d *dist) {
	r.metrics[name] = d.p50()
	r.rows = append(r.rows, row{name: name, dist: d, val: d.p50()})
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	workdir  string // working directory for stores and profiles
	repoRoot string
}

func main() {
	var o options
	var traceFlag int
	var desc bool
	flag.StringVar(&o.workload, "workload", "", "workload to run: fig8, serve-cold or serve-hit")
	flag.Uint64Var(&o.seed, "seed", 1, "seed for the workload's generated inputs")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "how long to measure")
	flag.IntVar(&traceFlag, "trace", 0, "1: run traced and print the per-layer ledger")
	flag.StringVar(&o.workdir, "workdir", ".bench_build", "working directory for stores and profiles")
	flag.StringVar(&o.repoRoot, "root", ".", "repository root (holds BENCH_fig8.json)")
	flag.BoolVar(&desc, "describe", false, "print BENCHMARK.json and exit")
	flag.Parse()
	if desc {
		b, err := describe()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(b)
		return
	}
	o.trace = traceFlag == 1
	if o.seconds <= 0 {
		fatal(fmt.Errorf("-seconds must be positive"))
	}
	run, ok := map[string]func(options) (*report, error){
		"fig8":       runFig8,
		"serve-cold": runServeCold,
		"serve-hit":  runServeHit,
	}[o.workload]
	if !ok {
		fatal(fmt.Errorf("unknown -workload %q", o.workload))
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		fatal(err)
	}
	dir, err := os.MkdirTemp(o.workdir, "run-")
	if err != nil {
		fatal(err)
	}
	o.workdir = dir
	rep, err := run(o)
	if rerr := os.RemoveAll(dir); err == nil && rerr != nil {
		err = rerr
	}
	if err != nil {
		fatal(err)
	}
	if !o.trace {
		rep.set("peak_rss_mb", peakRSSMB())
	}
	printReport(o, rep)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// peakRSSMB is the process's resident-set high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// envLine records what the numbers were measured on.
func envLine() string {
	return fmt.Sprintf("env numCPU=%d GOMAXPROCS=%d go=%s goos/goarch=%s/%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// units maps every metric the run prints to its unit.
func units(trace bool) map[string]string {
	u := map[string]string{}
	if trace {
		for _, d := range layerDefs() {
			u[d.Name] = d.Unit
		}
		return u
	}
	for _, d := range e2eDefs {
		u[d.Name] = d.Unit
	}
	return u
}

func printReport(o options, rep *report) {
	us := units(o.trace)
	out := resultOut{
		Correct:   rep.failed == 0 && rep.attempted > 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metricOut{},
	}
	var missing []string
	for name, unit := range us {
		v, ok := rep.metrics[name]
		if !ok {
			missing = append(missing, name)
			continue
		}
		out.Metrics[name] = metricOut{Value: finite(v), Unit: unit}
	}
	if len(missing) > 0 {
		// A metric the run could not produce is a benchmark bug, not a
		// result: fail loudly rather than print a partial object.
		sort.Strings(missing)
		fatal(fmt.Errorf("metrics not produced: %s", strings.Join(missing, ", ")))
	}
	b, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}

	mode := "end-to-end"
	if o.trace {
		mode = "per-layer (traced run)"
	}
	fmt.Printf("perfbench workload=%s seed=%d seconds=%g %s\n", o.workload, o.seed, o.seconds, mode)
	fmt.Println(envLine())
	for _, n := range rep.notes {
		fmt.Println("note", n)
	}
	for _, m := range rep.mismatches {
		fmt.Println("FAILED", m)
	}
	w := 0
	for _, r := range rep.rows {
		w = max(w, len(r.name))
	}
	fmt.Printf("%-*s %14s %-9s %8s  %s\n", w, "metric", "value", "unit", "n", "p99")
	for _, r := range rep.rows {
		n, p99 := "", ""
		if r.dist != nil {
			n = fmt.Sprint(r.dist.n())
			if v, ok := r.dist.p99(); ok {
				p99 = fmt.Sprintf("%.4g", finite(v))
			} else {
				p99 = fmt.Sprintf("refused (n<%d)", minP99Samples)
			}
		}
		fmt.Printf("%-*s %14.6g %-9s %8s  %s\n", w, r.name, r.val, us[r.name], n, p99)
	}
	fmt.Println(string(b))
}

// finite maps the +Inf of a failed operation to a large finite value,
// which JSON can carry and which still misses every limit.
func finite(v float64) float64 {
	if math.IsInf(v, 1) || math.IsNaN(v) {
		return 1e12
	}
	return v
}

// elapsedSince is a duration in seconds.
func elapsedSince(t time.Time) float64 { return time.Since(t).Seconds() }
