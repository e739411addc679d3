package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
)

// rtSnap is a point reading of the process's cumulative allocation and
// CPU counters.
type rtSnap struct {
	allocBytes      uint64
	gcCPU, totalCPU float64
}

func readRuntime() rtSnap {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return rtSnap{allocBytes: s[0].Value.Uint64(), gcCPU: s[1].Value.Float64(), totalCPU: s[2].Value.Float64()}
}

// plus adds the counters' change from before to after to s.
func (s rtSnap) plus(after, before rtSnap) rtSnap {
	return rtSnap{
		allocBytes: s.allocBytes + after.allocBytes - before.allocBytes,
		gcCPU:      s.gcCPU + after.gcCPU - before.gcCPU,
		totalCPU:   s.totalCPU + after.totalCPU - before.totalCPU,
	}
}

// gcShareSince is the share of the process's CPU time spent in the
// garbage collector between two readings.
func (s rtSnap) gcShareSince(before rtSnap) float64 {
	total := s.totalCPU - before.totalCPU
	if total <= 0 {
		return 0
	}
	return (s.gcCPU - before.gcCPU) / total
}

// noteRuntime prints the allocation and GC figures of an untraced run
// as a note; the traced run reports them as metrics.
func noteRuntime(rep *report, before, after rtSnap, ops int64) {
	rep.note("runtime alloc=%.1f KB/op gc_cpu_share=%.4f", float64(after.allocBytes-before.allocBytes)/1024/float64(max(ops, 1)), after.gcShareSince(before))
}

// cpuShares splits CPU profiles' samples by package group with
// `go tool pprof -top`, which merges the files, keeping only samples
// taken inside a simulation (the workload/arch pprof labels the Runner
// sets). It returns each group's share and the total sampled
// milliseconds.
func cpuShares(profiles []string) (map[string]float64, float64, error) {
	gobin, err := exec.LookPath("go")
	if err != nil {
		gobin = filepath.Join(runtime.GOROOT(), "bin", "go")
	}
	args := append([]string{"tool", "pprof", "-top", "-nodecount=1000000", "-nodefraction=0",
		"-unit=ms", "-tagfocus=workload=."}, profiles...)
	cmd := exec.Command(gobin, args...)
	var out, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &stderr
	if err := cmd.Run(); err != nil {
		return nil, 0, fmt.Errorf("go tool pprof: %v: %s", err, stderr.String())
	}
	flat, total, err := parsePprofTop(out.Bytes())
	if err != nil {
		return nil, 0, err
	}
	shares := map[string]float64{}
	if total > 0 {
		for fn, ms := range flat {
			shares[packageGroup(fn)] += ms / total
		}
	}
	return shares, total, nil
}

var topRow = regexp.MustCompile(`^\s*([0-9.]+)ms\s+[0-9.]+%\s+[0-9.]+%\s+[0-9.]+ms\s+[0-9.]+%\s+(.+)$`)

// parsePprofTop reads `pprof -top -unit=ms` rows into flat milliseconds
// per function.
func parsePprofTop(out []byte) (map[string]float64, float64, error) {
	flat := map[string]float64{}
	total := 0.0
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		m := topRow.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		v, err := strconv.ParseFloat(m[1], 64)
		if err != nil {
			return nil, 0, fmt.Errorf("pprof row %q: %w", sc.Text(), err)
		}
		flat[m[2]] += v
		total += v
	}
	return flat, total, sc.Err()
}

// packageGroup names the cpu_share group of a pprof function name such
// as "hidisc/internal/cpu.(*Core).step" or "runtime.mallocgc".
func packageGroup(fn string) string {
	pkg := fn
	if i := strings.LastIndex(pkg, "/"); i >= 0 {
		if j := strings.Index(pkg[i:], "."); j >= 0 {
			pkg = pkg[:i+j]
		}
	} else if j := strings.Index(pkg, "."); j >= 0 {
		pkg = pkg[:j]
	}
	if rest, ok := strings.CutPrefix(pkg, "hidisc/internal/"); ok {
		for _, g := range cpuShareGroups {
			if rest == g {
				return g
			}
		}
		return "other"
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}
