package main

import (
	"math"
	"testing"

	"hidisc/internal/tracing"
)

func span(id, parent, name string, start, end int64, attrs ...string) *tracing.Span {
	s := &tracing.Span{SpanID: id, ParentID: parent, Name: name, RequestID: "r1",
		StartUnixNs: start, DurationNs: end - start}
	for i := 0; i+1 < len(attrs); i += 2 {
		if s.Attrs == nil {
			s.Attrs = map[string]string{}
		}
		s.Attrs[attrs[i]] = attrs[i+1]
	}
	return s
}

// One store-hit request, in microseconds so the ms metrics read as
// round numbers: the coordinator root spans 0..1000, its outbound
// client call 100..900, and the worker's root 200..800 inside it.
func TestServiceLedgerSelfTimesAndRemainder(t *testing.T) {
	const us = 1000
	spans := []*tracing.Span{
		span("c", "", "coord POST /v1/jobs", 0, 1000*us),
		span("a", "c", "coord.admit", 10*us, 20*us),
		span("t", "c", "coord.attempt", 50*us, 950*us),
		span("k", "t", "client POST /v1/jobs", 100*us, 900*us),
		span("w", "k", "serve POST /v1/jobs", 200*us, 800*us),
		span("l", "w", "serve.cache.lookup", 210*us, 220*us, "hit", "false"),
		span("s", "w", "serve.store.read", 215*us, 300*us, "hit", "true"),
	}
	rep := newReport()
	if err := serviceLedger(rep, spans, []reqRecord{{id: "r1", ms: 1.5}}); err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"coord.self_ms":          0.090, // 1000 - (10 + 900)
		"coord.admit_us":         10,
		"coord.attempt_ms":       0.900,
		"coord.hop_ms":           0.200, // 800 - 600
		"coord.attempts_per_job": 1,
		"serve.self_ms":          0.510, // 600 - union(210..220, 215..300)
		"serve.cache.lookup_us":  10,
		"serve.cache.hit_ratio":  0,
		"store.read_us":          85,
		"store.hit_ratio":        1,
		"trace.client_ms":        1.5,
		"trace.attributed_ms":    0.800, // root 1000 minus the 200 hop
		"trace.unattributed_ms":  0.700,
	}
	for name, v := range want {
		if got := rep.metrics[name]; math.Abs(got-v) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}
}

func TestPackageGroups(t *testing.T) {
	for fn, want := range map[string]string{
		"hidisc/internal/cpu.(*Core).step":        "cpu",
		"hidisc/internal/mem.(*Cache).Access":     "mem",
		"hidisc/internal/machine.(*Machine).Run":  "machine",
		"hidisc/internal/telemetry.(*Trace).Emit": "other",
		"runtime.mallocgc":                        "runtime",
		"internal/runtime/maps.(*Map).getWithKey": "runtime",
		"sync/atomic.(*Int64).Add":                "other",
		"main.(*fig8Run).pass":                    "other",
	} {
		if got := packageGroup(fn); got != want {
			t.Errorf("packageGroup(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestParsePprofTop(t *testing.T) {
	out := []byte(`File: perfbench
Type: cpu
Showing nodes accounting for 3000ms, 100% of 3000ms total
      flat  flat%   sum%        cum   cum%
    2000ms 66.67% 66.67%     2500ms 83.33%  hidisc/internal/cpu.(*Core).step
     750ms 25.00% 91.67%      750ms 25.00%  runtime.mallocgc
     250ms  8.33%   100%      250ms  8.33%  hidisc/internal/mem.(*Cache).Access
`)
	flat, total, err := parsePprofTop(out)
	if err != nil {
		t.Fatal(err)
	}
	if total != 3000 || flat["runtime.mallocgc"] != 750 || len(flat) != 3 {
		t.Fatalf("total %v, flat %v", total, flat)
	}
}
