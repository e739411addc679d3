package main

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"hidisc/internal/simserver"
)

func TestSelfTimeCountsOverlappingChildrenOnce(t *testing.T) {
	parent := interval{0, 100}
	cases := []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{10, 20}, {30, 50}}, 70},
		{"overlapping", []interval{{10, 30}, {20, 40}}, 70},
		{"nested", []interval{{10, 60}, {20, 30}}, 50},
		{"clipped to parent", []interval{{-10, 10}, {90, 120}}, 80},
		{"unsorted overlap chain", []interval{{50, 70}, {10, 30}, {25, 55}}, 40},
		{"covers all", []interval{{0, 100}, {40, 60}}, 0},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestPercentilesCarrySampleCountAndRefuseShortP99(t *testing.T) {
	var d dist
	for i := 1; i <= minP99Samples-1; i++ {
		d.add(float64(i))
	}
	if d.n() != minP99Samples-1 {
		t.Fatalf("n = %d", d.n())
	}
	if _, ok := d.p99(); ok {
		t.Fatalf("p99 reported with %d samples", d.n())
	}
	if got := d.p50(); got != 500 {
		t.Errorf("p50 = %v, want 500", got)
	}
	d.add(minP99Samples)
	v, ok := d.p99()
	if !ok || v != 990 {
		t.Errorf("p99 = %v, %v with %d samples; want 990, true", v, ok, d.n())
	}
	var empty dist
	if empty.p50() != 0 {
		t.Error("p50 of no samples is not 0")
	}
}

func TestFailuresMissEveryLatencyLimit(t *testing.T) {
	var d dist
	for i := 0; i < 980; i++ {
		d.add(1)
	}
	for i := 0; i < 20; i++ {
		d.addFailed()
	}
	v, ok := d.p99()
	if !ok || !math.IsInf(v, 1) {
		t.Fatalf("p99 with 2%% failures = %v, %v; want +Inf", v, ok)
	}
	if d.p50() != 1 {
		t.Errorf("p50 = %v, want 1", d.p50())
	}
	if finite(v) < 1e9 {
		t.Errorf("printed failure latency %v is under a plausible limit", finite(v))
	}
}

// TestClosedLoopCountsRefusalsAsFailures drives the closed loop against a
// server that refuses every third request with 429: refusals must be
// failed operations with an infinite latency, never retried away.
func TestClosedLoopCountsRefusalsAsFailures(t *testing.T) {
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1)%3 == 0 {
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(simserver.ErrorBody{Err: simserver.WireError{Status: 429, Kind: "overloaded"}})
			return
		}
		json.NewEncoder(w).Encode(simserver.JobResponse{Key: "k", Measurement: json.RawMessage(`{}`)})
	}))
	defer srv.Close()
	c := newClient(srv.URL, clients)
	rep := newReport()
	res := closedLoop(c, 10, 300, "t", func() op {
		j := warmJobs()[0]
		return op{key: j.key, req: j.req, check: func(simserver.JobResponse) error { return nil }}
	}, rep)
	if rep.attempted != 300 || res.lat.n() != 300 {
		t.Fatalf("attempted %d, samples %d; want 300", rep.attempted, res.lat.n())
	}
	if rep.failed != 100 || res.overloaded != 100 || res.ok != 200 {
		t.Fatalf("failed %d, overloaded %d, ok %d; want 100, 100, 200", rep.failed, res.overloaded, res.ok)
	}
	if v := res.lat.quantile(0.9); !math.IsInf(v, 1) {
		t.Errorf("p90 with a third refused = %v, want +Inf", v)
	}
	if successRatio(rep) > 0.67 {
		t.Errorf("success ratio %v counts refusals as successes", successRatio(rep))
	}
}

// TestFastestHalf keeps the two fastest of four sub-windows, and keeps
// every sub-window's failures in the latency distribution.
func TestFastestHalf(t *testing.T) {
	part := func(ok int, ms float64, failed int) *loopResult {
		r := &loopResult{ok: int64(ok), failed: int64(failed), elapsed: 10}
		for i := 0; i < ok; i++ {
			r.lat.add(ms)
		}
		for i := 0; i < failed; i++ {
			r.lat.addFailed()
		}
		return r
	}
	rate, lat := fastestHalf([]*loopResult{part(100, 4, 2), part(400, 1, 0), part(100, 4, 1), part(500, 2, 0)})
	if rate != 900.0/20 {
		t.Errorf("rate %v, want %v", rate, 900.0/20)
	}
	if lat.n() != 903 || lat.p50() != 2 || !math.IsInf(lat.quantile(1), 1) {
		t.Errorf("samples %d, p50 %v, max %v; want 903, 2, +Inf", lat.n(), lat.p50(), lat.quantile(1))
	}
}
