package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"hidisc/internal/mem"
	"hidisc/internal/simclient"
	"hidisc/internal/simserver"
	"hidisc/internal/workloads"
)

const (
	// clients is the closed loop's width: one per core of the 2-core
	// host the benchmark was sized on, so the load generator never
	// outnumbers the cores.
	clients = 2
	// maxTraced caps the requests of a traced window so every span of
	// every request fits the tracers' rings (spanCap) and none is
	// evicted before it is read.
	maxTraced = 20000
	spanCap   = 1 << 17
	// populateSeconds bounds serve-hit's population in set-up, which
	// takes a few seconds.
	populateSeconds = 120
)

// op is one request of a closed loop with its correctness check.
type op struct {
	key   string
	req   simserver.JobRequest
	check func(simserver.JobResponse) error
}

// loopResult is what one closed-loop window observed.
type loopResult struct {
	lat                    dist // client-observed ms; failures as +Inf
	ok, failed, overloaded int64
	cached, stored         int64
	elapsed                float64
	requests               []reqRecord
}

// absorb adds window w's counts and requests to r.
func (r *loopResult) absorb(w *loopResult) {
	r.ok += w.ok
	r.failed += w.failed
	r.overloaded += w.overloaded
	r.elapsed += w.elapsed
	r.requests = append(r.requests, w.requests...)
}

type reqRecord struct {
	id string
	ms float64
}

// closedLoop runs `clients` goroutines, each sending its next request
// only when the previous one has returned, until the window closes or
// limit requests have been sent (limit <= 0: no limit).
func closedLoop(c *simclient.Client, seconds float64, limit int64, idPrefix string, next func() op, rep *report) *loopResult {
	res := &loopResult{}
	var mu sync.Mutex
	var seq atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	deadline := t0.Add(time.Duration(seconds * float64(time.Second)))
	for g := 0; g < clients; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				n := seq.Add(1)
				if limit > 0 && n > limit {
					return
				}
				o := next()
				id := fmt.Sprintf("%s-%07d", idPrefix, n)
				ctx := simserver.ContextWithRequestID(context.Background(), id)
				ts := time.Now()
				resp, err := c.Run(ctx, o.req)
				ms := float64(time.Since(ts)) / 1e6
				if err == nil {
					err = o.check(resp)
				}
				mu.Lock()
				rep.attempted++
				if err != nil {
					var ae *simclient.APIError
					if errors.As(err, &ae) && ae.Overloaded() {
						res.overloaded++
					}
					res.failed++
					res.lat.addFailed()
					rep.fail("%s key %s: %v", idPrefix, o.key, err)
				} else {
					res.ok++
					res.lat.add(ms)
					res.requests = append(res.requests, reqRecord{id, ms})
					if resp.Cached {
						res.cached++
					}
					if resp.Stored {
						res.stored++
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.elapsed = elapsedSince(t0)
	return res
}

// checkCold accepts a response that decodes to a measurement with
// non-zero cycles.
func checkCold(resp simserver.JobResponse, err error) error {
	if err != nil {
		return err
	}
	m, err := resp.Decode()
	if err != nil {
		return err
	}
	if m.Cycles <= 0 {
		return fmt.Errorf("measurement with %d cycles", m.Cycles)
	}
	return nil
}

func runServeCold(o options) (*report, error) {
	gen := newDistinctJobs(o.seed, streamCold)
	next := func() op {
		j := gen.next()
		return op{key: j.key, req: j.req, check: func(r simserver.JobResponse) error {
			if r.Key != j.key {
				return fmt.Errorf("answered under key %s", r.Key)
			}
			return checkCold(r, nil)
		}}
	}
	return runServe(o, "serve-cold", nil, next)
}

func runServeHit(o options) (*report, error) {
	pop := population(o.seed)
	var recorded [][]byte // measurement bytes per population index
	// populate simulates the population through the coordinator with
	// the closed loop and records each answer; every set-up repetition
	// must reproduce the first one's bytes.
	populate := func(f *fleet) error {
		c := newClient(f.url, clients)
		defer c.HTTPClient.CloseIdleConnections()
		got := make([][]byte, len(pop))
		var idx atomic.Int64
		next := func() op {
			i := int(idx.Add(1) - 1)
			j := pop[i]
			return op{key: j.key, req: j.req, check: func(r simserver.JobResponse) error {
				if r.Key != j.key {
					return fmt.Errorf("answered under key %s", r.Key)
				}
				if err := checkCold(r, nil); err != nil {
					return err
				}
				got[i] = bytes.Clone(r.Measurement)
				return nil
			}}
		}
		srep := newReport()
		res := closedLoop(c, populateSeconds, int64(len(pop)), "populate", next, srep)
		if srep.failed > 0 || res.ok != int64(len(pop)) {
			return fmt.Errorf("populating: %d of %d ok in %.1f s: %v", res.ok, len(pop), res.elapsed, srep.mismatches)
		}
		if recorded == nil {
			recorded = got
			return nil
		}
		for i := range got {
			if !bytes.Equal(got[i], recorded[i]) {
				return fmt.Errorf("population key %s: result differs between set-ups", pop[i].key)
			}
		}
		return nil
	}
	reads := newUniformReads(o.seed, len(pop))
	next := func() op {
		i := reads.next()
		j := pop[i]
		return op{key: j.key, req: j.req, check: func(r simserver.JobResponse) error {
			if r.Key != j.key {
				return fmt.Errorf("answered under key %s", r.Key)
			}
			if !bytes.Equal(r.Measurement, recorded[i]) {
				return errors.New("body differs from the bytes recorded at set-up")
			}
			return nil
		}}
	}
	return runServe(o, "serve-hit", populate, next)
}

// runServe is the shared shape of the service workloads: windowParts
// segments, each a fresh set-up (new stores) followed by subWindows
// closed-loop sub-windows on that fleet. Set-ups and sub-windows are
// interleaved over the run, so setup_s (the fastest set-up) and the
// fastest half of the sub-windows both see the calmest stretches of a
// host whose speed drifts. The traced run sets up once and runs tracedServe instead.
func runServe(o options, name string, populate func(*fleet) error, next func() op) (*report, error) {
	rep := newReport()
	if o.trace {
		f, err := setUpFleet(o, "setup0", 0, populate)
		if err != nil {
			return nil, err
		}
		err = tracedServe(o, name, rep, f, populate, next)
		if serr := f.stop(); err == nil {
			err = serr
		}
		return rep, err
	}

	var setups []float64
	var parts []*loopResult
	var rt rtSnap // runtime counters summed over the sub-windows
	var rejected int64
	for i := 0; i < windowParts; i++ {
		t0 := time.Now()
		f, err := setUpFleet(o, fmt.Sprintf("setup%d", i), 0, populate)
		if err != nil {
			return nil, err
		}
		setups = append(setups, elapsedSince(t0))
		c := newClient(f.url, clients)
		for k := 0; k < subWindows; k++ {
			before := readRuntime()
			res := closedLoop(c, o.seconds/windowParts/subWindows, 0, fmt.Sprintf("bench%d.%d", i, k), next, rep)
			rt = rt.plus(readRuntime(), before)
			parts = append(parts, res)
			rep.note("%s sub-window %d.%d: %.2f s, %d ok, %d LRU hits, %d store reads, %d refused (429); %.1f jobs/s, p50 %.4g ms, p99 %.4g ms",
				name, i, k, res.elapsed, res.ok, res.cached, res.stored, res.overloaded, float64(res.ok)/res.elapsed, res.lat.p50(), res.lat.quantile(0.99))
		}
		c.HTTPClient.CloseIdleConnections()
		rejected += f.rejected()
		if err := f.stop(); err != nil {
			return nil, err
		}
	}
	rep.note("workers rejected %d", rejected)
	rate, lat := fastestHalf(parts)
	rep.set("jobs_per_s", rate)
	rep.setDist("p50_ms", lat)
	p99, ok := lat.p99()
	if !ok {
		return nil, fmt.Errorf("%s: %d samples, too few for p99_ms; raise -seconds", name, lat.n())
	}
	rep.set("p99_ms", p99)
	rep.set("setup_s", minOf(setups))
	rep.set("success_ratio", successRatio(rep))
	rep.note("setup reps %.3f s", setups)
	noteRuntime(rep, rtSnap{}, rt, rep.attempted)
	return rep, nil
}

// setUpFleet starts a fleet on fresh stores under the run's directory,
// compiles every workload on it, and populates it if asked.
func setUpFleet(o options, name string, spans int, populate func(*fleet) error) (*fleet, error) {
	base := filepath.Join(o.workdir, name)
	f, err := startFleet([]string{filepath.Join(base, "w0"), filepath.Join(base, "w1")}, spans)
	if err != nil {
		return nil, err
	}
	if err = f.warm(); err == nil && populate != nil {
		err = populate(f)
	}
	if err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

// tracedRounds is how many times the traced run alternates between the
// untraced and the traced fleet. The host's speed drifts over tens of
// seconds; short alternating windows see the same host, so the
// throughput ratio is the cost of tracing rather than of the drift.
const tracedRounds = 5

// tracedServe measures alternating windows on the untraced fleet f and
// on a second, traced fleet set up alike, and reports the per-layer
// ledger from the traced fleet's spans. Both kinds of window stop at the
// same request count, so on a fast workload they stay equally short.
func tracedServe(o options, name string, rep *report, f *fleet, populate func(*fleet) error, next func() op) error {
	tf, err := setUpFleet(o, "traced", spanCap, populate)
	if err != nil {
		return err
	}
	uc, tc := newClient(f.url, clients), newClient(tf.url, clients)
	window := o.seconds / 2 / tracedRounds
	var untraced, traced loopResult
	var alloc uint64
	var gcCPU, totalCPU float64
	for r := 0; r < tracedRounds; r++ {
		for k := 0; k < 2; k++ {
			if (r+k)%2 == 0 {
				before := readRuntime()
				res := closedLoop(uc, window, maxTraced/tracedRounds, fmt.Sprintf("untraced%d", r), next, rep)
				after := readRuntime()
				alloc += after.allocBytes - before.allocBytes
				gcCPU += after.gcCPU - before.gcCPU
				totalCPU += after.totalCPU - before.totalCPU
				untraced.absorb(res)
				continue
			}
			traced.absorb(closedLoop(tc, window, maxTraced/tracedRounds, fmt.Sprintf("traced%d", r), next, rep))
		}
	}
	uc.HTTPClient.CloseIdleConnections()
	tc.HTTPClient.CloseIdleConnections()
	// serve.rejected is the workers' own 429 count (shard shedding);
	// refusals the client saw are failed operations in the notes.
	rejected := f.rejected() + tf.rejected()
	spans, dropped := tf.spans()
	if err := tf.stop(); err != nil {
		return err
	}
	untracedRate := float64(untraced.ok) / untraced.elapsed
	tracedRate := float64(traced.ok) / traced.elapsed
	rep.note("%s %d alternating rounds: untraced %d ok in %.2f s, traced %d ok in %.2f s, %d spans, %d evicted, %d refused (429) at the client",
		name, tracedRounds, untraced.ok, untraced.elapsed, traced.ok, traced.elapsed, len(spans), dropped, untraced.overloaded+traced.overloaded)
	rep.set("runtime.alloc_kb_per_op", float64(alloc)/1024/float64(max(untraced.ok, 1)))
	rep.set("runtime.gc_cpu_share", gcCPU/totalCPU)
	rep.set("tracing.overhead_pct", 100*(untracedRate-tracedRate)/untracedRate)
	rep.set("serve.rejected", float64(rejected))
	if err := serviceLedger(rep, spans, traced.requests); err != nil {
		return err
	}
	compileLedger(rep, workloads.ScaleTest, mem.DefaultHierConfig(), compileReps)
	machineIdle(rep)
	return nil
}
