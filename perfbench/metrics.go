package main

import (
	"encoding/json"

	"hidisc/internal/machine"
	"hidisc/internal/workloads"
)

// This file is the single definition of the benchmark's workloads and
// metrics; BENCHMARK.json at the repository root is rendered from it
// (perfbench -describe) and a test keeps the two equal.

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloadDefs = []workloadDef{
	{"fig8", "Figure 8 matrix one simulation at a time, fastest of 100+ test-scale runs per entry: the cycle loop does the work, set-up is the compiler"},
	{"serve-cold", "distinct never-seen jobs through coordinator and 2 workers: routing, LRU and store misses, simulation and fsync'd appends"},
	{"serve-hit", "uniform reads over a simulated population twice the fleet LRU: HTTP, ring routing, LRU and store reads; no simulation"},
}

// e2eDef is an end-to-end metric: what a user of the system sees, with
// the share of the parent's median by which it may worsen. The host-time
// bounds are the widest allowed because the shared host the benchmark
// runs on drifts by more than that between minutes (NOTES.md).
type e2eDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

var e2eDefs = []e2eDef{
	{"jobs_per_s", "1/s", "higher", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"p99_ms", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"success_ratio", "ratio", "higher", 0.01},
}

// layerDef is a per-layer metric of the traced run.
type layerDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

var compileStages = []string{"program", "fnsim_ref", "separate", "profile", "separate_cmas"}

// cpuShareGroups are the packages the fig8 CPU profile is split by;
// "other" takes what none of them claims (std library outside the
// runtime, this benchmark).
var cpuShareGroups = []string{"cpu", "mem", "queue", "machine", "bpred", "fnsim", "slicer", "runtime", "other"}

func archMetric(a machine.Arch) string {
	switch a {
	case machine.CPAP:
		return "machine.cpap_s"
	case machine.CPCMP:
		return "machine.cpcmp_s"
	}
	return "machine." + string(a) + "_s"
}

func layerDefs() []layerDef {
	var ds []layerDef
	add := func(name, unit, better string) { ds = append(ds, layerDef{name, unit, better}) }
	for _, s := range compileStages {
		add("compile."+s+"_ms", "ms", "lower")
	}
	add("compile.fnsim_minsts_per_s", "Minst/s", "higher")
	for _, a := range machine.Arches {
		add(archMetric(a), "s", "lower")
	}
	for _, w := range workloads.Names() {
		add("machine."+w+"_s", "s", "lower")
	}
	add("machine.sim_mcycles_per_s", "Mcycle/s", "higher")
	add("machine.alloc_kb_per_job", "KB", "lower")
	for _, g := range cpuShareGroups {
		add("cpu_share."+g, "ratio", "lower")
	}
	add("coord.self_ms", "ms", "lower")
	add("coord.admit_us", "us", "lower")
	add("coord.attempt_ms", "ms", "lower")
	add("coord.hop_ms", "ms", "lower")
	add("coord.attempts_per_job", "count", "lower")
	add("serve.self_ms", "ms", "lower")
	add("serve.cache.lookup_us", "us", "lower")
	add("serve.cache.hit_ratio", "ratio", "higher")
	add("serve.flight.dedup_ratio", "ratio", "higher")
	add("serve.queue.wait_ms", "ms", "lower")
	add("serve.simulate_ms", "ms", "lower")
	add("serve.rejected", "count", "lower")
	add("store.read_us", "us", "lower")
	add("store.hit_ratio", "ratio", "higher")
	add("store.append_ms", "ms", "lower")
	add("runtime.alloc_kb_per_op", "KB", "lower")
	add("runtime.gc_cpu_share", "ratio", "lower")
	add("tracing.overhead_pct", "%", "lower")
	add("trace.client_ms", "ms", "lower")
	add("trace.attributed_ms", "ms", "lower")
	add("trace.unattributed_ms", "ms", "lower")
	return ds
}

type benchConfig struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []e2eDef      `json:"end_to_end"`
	PerLayer   []layerDef    `json:"per_layer"`
}

// runSeconds is how long one run measures.
const runSeconds = 25

func describe() ([]byte, error) {
	cfg := benchConfig{
		Command:    []string{"python3", "perfbench/run.py"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		Workloads:  workloadDefs,
		EndToEnd:   e2eDefs,
		PerLayer:   layerDefs(),
	}
	b, err := json.MarshalIndent(cfg, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
