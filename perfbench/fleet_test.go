package main

import (
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"hidisc/internal/simserver"
)

// TestTracedFleetLedger drives a traced in-process fleet with distinct
// jobs and then with reads of the same keys, and checks that the ledger
// finds every request's span tree in the program's own spans.
func TestTracedFleetLedger(t *testing.T) {
	dir := t.TempDir()
	f, err := startFleet([]string{filepath.Join(dir, "w0"), filepath.Join(dir, "w1")}, spanCap)
	if err != nil {
		t.Fatal(err)
	}
	defer f.stop()
	if err := f.warm(); err != nil {
		t.Fatal(err)
	}
	c := newClient(f.url, clients)
	gen := newDistinctJobs(1, streamCold)
	var mu sync.Mutex
	var jobs []genJob
	rep := newReport()
	cold := closedLoop(c, 60, 40, "cold", func() op {
		j := gen.next()
		mu.Lock()
		jobs = append(jobs, j)
		mu.Unlock()
		return op{key: j.key, req: j.req, check: func(r simserver.JobResponse) error { return checkCold(r, nil) }}
	}, rep)
	if rep.failed != 0 || cold.ok != 40 {
		t.Fatalf("cold: %d ok, %d failed: %v", cold.ok, rep.failed, rep.mismatches)
	}
	spans, dropped := f.spans()
	if dropped != 0 {
		t.Fatalf("%d spans evicted", dropped)
	}
	if err := serviceLedger(rep, spans, cold.requests); err != nil {
		t.Fatal(err)
	}
	m := rep.metrics
	if m["coord.attempts_per_job"] != 1 || m["serve.cache.hit_ratio"] != 0 || m["store.hit_ratio"] != 0 {
		t.Errorf("cold ledger: attempts/job %v, LRU hit ratio %v, store hit ratio %v; want 1, 0, 0",
			m["coord.attempts_per_job"], m["serve.cache.hit_ratio"], m["store.hit_ratio"])
	}
	if m["serve.simulate_ms"] <= 0 || m["store.append_ms"] <= 0 || m["trace.attributed_ms"] > m["trace.client_ms"] {
		t.Errorf("cold ledger: simulate %v ms, append %v ms, attributed %v of client %v ms",
			m["serve.simulate_ms"], m["store.append_ms"], m["trace.attributed_ms"], m["trace.client_ms"])
	}

	// The 40 keys fit the fleet's LRUs, so reading them back is all hits.
	var i atomic.Int64
	hot := closedLoop(c, 60, 40, "hot", func() op {
		j := jobs[i.Add(1)-1]
		return op{key: j.key, req: j.req, check: func(r simserver.JobResponse) error { return checkCold(r, nil) }}
	}, rep)
	spans, _ = f.spans()
	rep = newReport()
	if err := serviceLedger(rep, spans, hot.requests); err != nil {
		t.Fatal(err)
	}
	if hot.cached != 40 || rep.metrics["serve.cache.hit_ratio"] != 1 || rep.metrics["serve.simulate_ms"] != 0 {
		t.Errorf("hot: %d LRU hits, ledger hit ratio %v, simulate %v ms; want 40, 1, 0",
			hot.cached, rep.metrics["serve.cache.hit_ratio"], rep.metrics["serve.simulate_ms"])
	}
}
