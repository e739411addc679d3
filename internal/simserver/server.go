package simserver

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"runtime/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hidisc/internal/experiments"
	"hidisc/internal/machine"
	"hidisc/internal/resultstore"
	"hidisc/internal/simfault"
	"hidisc/internal/stats"
	"hidisc/internal/telemetry"
	"hidisc/internal/tracing"
	"hidisc/internal/workloads"
)

// Config parameterises a Server.
type Config struct {
	// Scale is the default workload scale for requests that don't name
	// one.
	Scale workloads.Scale
	// Workers bounds concurrently running simulations; <= 0 means one
	// per CPU (experiments.EffectiveWorkers).
	Workers int
	// Queue bounds jobs admitted beyond the running ones. A submission
	// that would push the total past Workers+Queue is answered 429.
	Queue int
	// CacheEntries bounds the result cache; <= 0 disables caching.
	CacheEntries int
	// JobTimeout bounds each simulation's wall time (0 = unbounded);
	// requests may override per job via TimeoutMs.
	JobTimeout time.Duration
	// Logger receives structured request/job logs. Nil logs nowhere
	// (handy for tests); hidisc-serve passes a JSON handler on stderr.
	Logger *slog.Logger
	// Store, when non-nil, is the durable system of record for
	// results. Lookup order becomes LRU → store → simulate-and-append,
	// so completed jobs survive a process restart and are never
	// re-simulated. The server takes ownership: CloseStore (idempotent)
	// flushes and closes it on the drain path.
	Store *resultstore.Store
	// Tracer, when non-nil, collects job-lifecycle spans (request,
	// cache lookup, store read/append, singleflight wait, queue wait,
	// simulate) into its ring, served on GET /v1/traces. Nil disables
	// tracing; every instrumentation site then costs one pointer check
	// and allocates nothing.
	Tracer *tracing.Tracer
	// MachineTrace, when set (and Tracer is on), attaches a machine
	// telemetry session to every simulation this server runs and
	// captures the resulting Perfetto document on the simulate span, so
	// the coordinator's trace assembler can splice the per-core
	// pipeline timeline directly under the HTTP span that caused it.
	// Telemetry is a pure observer (the PR 5 contract): results stay
	// bit-identical, so cached/stored results remain valid either way.
	MachineTrace bool
	// SlowJob, when > 0, logs a structured warning with the per-stage
	// span breakdown for any job whose execute path exceeds it. The
	// durations in the log line are read from the spans themselves, so
	// the line and GET /v1/traces always agree.
	SlowJob time.Duration
}

// DefaultConfig returns production-shaped defaults at the given scale.
func DefaultConfig(scale workloads.Scale) Config {
	return Config{
		Scale:        scale,
		Workers:      0, // one per CPU
		Queue:        64,
		CacheEntries: 1024,
		JobTimeout:   0,
	}
}

// Server wraps experiments.Runner behind the HTTP API: it is the
// worker Backend of its embedded Front. Create with New, mount Handler
// on an http.Server, and call StartDraining / ForceCancel from the
// signal path for graceful shutdown.
type Server struct {
	*Front
	cfg     Config
	workers int

	// slots is the simulation pool: buffered to its width, one token
	// per running simulation. Admission (workers+queue) is the Front's.
	slots  chan struct{}
	flight *flightGroup
	cache  *resultCache
	start  time.Time

	mu      sync.Mutex
	runners map[workloads.Scale]*experiments.Runner

	deduped   atomic.Int64
	cacheHits atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64

	// System-of-record tier (nil store leaves these zero and the
	// store state "off").
	store         *resultstore.Store
	storeHits     atomic.Int64
	storeMisses   atomic.Int64
	storePuts     atomic.Int64
	storeErrors   atomic.Int64
	storeDegraded atomic.Bool
	storeClose    sync.Once
	storeCloseErr error

	jobSeconds       *histogram // executed-job wall time
	queueWaitSeconds *histogram // wait for a worker slot

	// leadGate, when non-nil, is called by a singleflight leader after
	// it has registered its key and before it simulates. Tests use it
	// to hold a job in flight deterministically.
	leadGate func(key string)
}

// New builds a server. The runners it creates bypass their internal
// memo (Runner.NoMemo) — the server's bounded LRU is the only result
// cache, so a long job stream cannot grow memory without bound.
func New(cfg Config) *Server {
	workers := experiments.EffectiveWorkers(cfg.Workers)
	if cfg.Queue < 0 {
		cfg.Queue = 0
	}
	s := &Server{
		cfg:     cfg,
		workers: workers,
		slots:   make(chan struct{}, workers),
		flight:  newFlightGroup(),
		cache:   newResultCache(cfg.CacheEntries),
		start:   time.Now(),
		runners: map[workloads.Scale]*experiments.Runner{},
		store:   cfg.Store,

		jobSeconds:       newHistogram(jobLatencyBounds),
		queueWaitSeconds: newHistogram(queueWaitBounds),
	}
	s.Front = NewFront(s, Role{
		IDPrefix: "req-", SpanPrefix: "serve", Noun: "server", Admission: "admission queue",
	}, cfg.Scale, cfg.Logger, cfg.Tracer)
	return s
}

// runner returns the (lazily created) runner for a scale.
func (s *Server) runner(scale workloads.Scale) *experiments.Runner {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.runners[scale]
	if !ok {
		r = experiments.NewRunner(scale)
		r.NoMemo = true
		s.runners[scale] = r
	}
	return r
}

// Admission is the worker's bound: workers+queue jobs admitted, workers
// of them simulating.
func (s *Server) Admission() (capacity, width int) { return s.workers + s.cfg.Queue, s.workers }

// Ready is always nil: a worker can always queue.
func (s *Server) Ready() error { return nil }

// Routes mounts the liveness probe: 503 while draining, so load
// balancers stop routing here.
func (s *Server) Routes(mux *http.ServeMux) { mux.HandleFunc("GET /healthz", s.handleHealthz) }

// WireError maps a job-execution error onto the wire (see wireError).
func (s *Server) WireError(err error) WireError { return wireError(err) }

// MetricsView snapshots the counters for GET /metrics.
func (s *Server) MetricsView(context.Context) (any, func(io.Writer)) {
	m := s.Metrics()
	return m, func(w io.Writer) { s.writePrometheus(w, &m) }
}

// Capacity returns the admission configuration (resolved worker-pool
// width and queue depth) — what a registering worker reports to the
// cluster coordinator as its contribution to fleet capacity.
func (s *Server) Capacity() (workers, queue int) { return s.workers, s.cfg.Queue }

// StoreState reports the result-store tier's health ("off", "ok",
// "degraded") — what a worker's cluster heartbeat carries to the fleet
// health view.
func (s *Server) StoreState() string { return s.storeState() }

// CloseStore flushes and closes the result store, exactly once no
// matter how many shutdown paths race to call it (graceful drain,
// drain-deadline force-cancel, second-signal force-cancel). Without a
// store it is a no-op. Every call returns the one close's error.
func (s *Server) CloseStore() error {
	if s.store == nil {
		return nil
	}
	s.storeClose.Do(func() {
		s.storeCloseErr = s.store.Close()
		s.logger.Info("result store closed",
			"records", s.store.Len(), "err", errString(s.storeCloseErr))
	})
	return s.storeCloseErr
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// storeState names the store tier's health for healthz and metrics:
// "off" (no store configured), "ok", or "degraded" (a store read or
// write has failed since startup; the server keeps serving from the
// LRU and by re-simulating, but durability is impaired).
func (s *Server) storeState() string {
	switch {
	case s.store == nil:
		return "off"
	case s.storeDegraded.Load():
		return "degraded"
	default:
		return "ok"
	}
}

// storeGet consults the system of record below the LRU. A read error
// degrades the store tier but does not fail the job — the result can
// be re-simulated.
func (s *Server) storeGet(reqCtx context.Context, key string, ph *phases) ([]byte, bool) {
	if s.store == nil {
		return nil, false
	}
	ssp := tracing.SpanFrom(reqCtx).Child("serve.store.read")
	ts := time.Now()
	enc, ok, err := s.store.Get(key)
	ssp.SetAttr("hit", strconv.FormatBool(ok && err == nil))
	ph.storeRead += endPhase(ssp, ts)
	if err != nil {
		if !errors.Is(err, resultstore.ErrClosed) {
			// Read-after-close is a shutdown artefact (the drain path
			// closed the store under an in-flight job), not damage.
			s.storeErrors.Add(1)
			s.storeDegraded.Store(true)
		}
		s.logger.Error("store read failed",
			"requestId", RequestIDFrom(reqCtx), "key", key, "err", err.Error())
		return nil, false
	}
	if !ok {
		s.storeMisses.Add(1)
		return nil, false
	}
	s.storeHits.Add(1)
	return enc, true
}

// storePut appends a completed result to the system of record. A
// write error degrades the store tier but never fails the job: the
// measurement is already in hand (and in the LRU).
func (s *Server) storePut(reqCtx context.Context, key string, enc []byte, ph *phases) {
	if s.store == nil {
		return
	}
	ssp := tracing.SpanFrom(reqCtx).Child("serve.store.append")
	ts := time.Now()
	err := s.store.Put(key, enc)
	ph.storeAppend += endPhase(ssp, ts)
	if err != nil {
		if !errors.Is(err, resultstore.ErrClosed) {
			// Put-after-close only happens when a job completes while
			// the drain path is closing the store; the job's client
			// still gets its result, and the next run re-simulates.
			s.storeErrors.Add(1)
			s.storeDegraded.Store(true)
		}
		s.logger.Error("store append failed",
			"requestId", RequestIDFrom(reqCtx), "key", key, "err", err.Error())
		return
	}
	s.storePuts.Add(1)
}

// --- job execution ---

// phases collects one job's per-stage durations for the slow-job log
// line. Each field mirrors the span of the same name: when tracing is
// on the value is the span's own measured duration, so the log line
// and GET /v1/traces agree exactly; with tracing off the stages are
// timed directly.
type phases struct {
	queueWait, cacheLookup, storeRead, simulate, storeAppend time.Duration
}

// endPhase closes a stage span and returns its duration, falling back
// to direct timing when tracing is off.
func endPhase(sp *tracing.Span, t0 time.Time) time.Duration {
	if sp == nil {
		return time.Since(t0)
	}
	sp.End()
	return sp.Duration()
}

// RunJob runs one admitted submission through cache, dedup, and the
// worker pool. reqCtx governs only this caller's wait: a leader's
// simulation runs under the server's base context (plus the job's time
// budget) so a disconnected client cannot kill a result that other
// submissions — or the cache — still want.
func (s *Server) RunJob(reqCtx context.Context, jr JobRequest, scale workloads.Scale) (JobResponse, error) {
	job, err := jr.CanonicalJob(scale)
	if err != nil {
		return JobResponse{}, err // wireError answers it 400
	}
	key := job.Key()
	tracing.SpanFrom(reqCtx).SetAttr("key", key)
	t0 := time.Now()
	var ph phases
	out, err := s.executeJob(reqCtx, jr, job, key, scale, &ph)
	if s.cfg.SlowJob > 0 {
		if wall := time.Since(t0); wall >= s.cfg.SlowJob {
			s.logger.Warn("slow job",
				"requestId", RequestIDFrom(reqCtx), "key", key,
				"workload", job.Workload, "arch", string(job.Arch),
				"wallNs", wall.Nanoseconds(),
				"queueWaitNs", ph.queueWait.Nanoseconds(),
				"cacheLookupNs", ph.cacheLookup.Nanoseconds(),
				"storeReadNs", ph.storeRead.Nanoseconds(),
				"simulateNs", ph.simulate.Nanoseconds(),
				"storeAppendNs", ph.storeAppend.Nanoseconds(),
				"cached", out.Cached, "stored", out.Stored, "deduped", out.Deduped)
		}
	}
	return out, err
}

// executeJob is RunJob's body: the cache → store → singleflight →
// simulate ladder, with one span per rung.
func (s *Server) executeJob(reqCtx context.Context, jr JobRequest, job experiments.Job, key string, scale workloads.Scale, ph *phases) (JobResponse, error) {
	// Faulted jobs are perturbed: not content-addressed, so neither
	// cached nor deduplicated. Each gets a private Injector copy (the
	// storm PRNG mutates).
	if jr.Fault != nil {
		inj := *jr.Fault
		job.Configure = func(c *machine.Config) { c.Inject = &inj }
		m, err := s.simulate(reqCtx, jr, job, scale, ph)
		if err != nil {
			return JobResponse{Key: key}, err
		}
		enc, err := json.Marshal(m)
		return JobResponse{Key: key, Measurement: enc}, err
	}

	sp := tracing.SpanFrom(reqCtx)

	// Lookup order: LRU cache, then the durable system of record, then
	// simulate-and-append. A store hit is promoted into the LRU so the
	// next lookup is memory-speed.
	csp := sp.Child("serve.cache.lookup")
	tc := time.Now()
	enc, ok := s.cache.Get(key)
	csp.SetAttr("hit", strconv.FormatBool(ok))
	ph.cacheLookup = endPhase(csp, tc)
	if ok {
		s.cacheHits.Add(1)
		return JobResponse{Key: key, Measurement: enc, Cached: true}, nil
	}
	if enc, ok := s.storeGet(reqCtx, key, ph); ok {
		s.cache.Put(key, enc)
		return JobResponse{Key: key, Measurement: enc, Stored: true}, nil
	}

	// The singleflight span covers this caller's whole wait: for the
	// leader it contains the simulate span; for followers it is the
	// dedup wait itself.
	fsp := sp.Child("serve.flight")
	fctx := tracing.ContextWithSpan(reqCtx, fsp)
	var fromStore bool
	_, enc, err, shared := s.flight.Do(reqCtx, key, func() (experiments.Measurement, []byte, error) {
		if s.leadGate != nil {
			s.leadGate(key)
		}
		// Double-check cache and store: a previous flight for this key
		// may have completed between our misses and Do.
		if enc, ok := s.cache.Get(key); ok {
			s.cacheHits.Add(1)
			return experiments.Measurement{}, enc, nil
		}
		if enc, ok := s.storeGet(fctx, key, ph); ok {
			fromStore = true
			s.cache.Put(key, enc)
			return experiments.Measurement{}, enc, nil
		}
		m, err := s.simulate(fctx, jr, job, scale, ph)
		if err != nil {
			return experiments.Measurement{}, nil, err
		}
		enc, err := json.Marshal(m)
		if err != nil {
			return experiments.Measurement{}, nil, err
		}
		s.cache.Put(key, enc)
		s.storePut(fctx, key, enc, ph)
		return m, enc, nil
	})
	fsp.SetAttr("deduped", strconv.FormatBool(shared))
	fsp.End()
	if shared {
		s.deduped.Add(1)
	}
	if err != nil {
		return JobResponse{Key: key}, err
	}
	return JobResponse{Key: key, Measurement: enc, Stored: fromStore && !shared, Deduped: shared}, nil
}

// simulate acquires a worker slot and runs one job under its time
// budget, recording throughput bookkeeping and latency histograms.
// reqCtx carries only observability state (the request ID and span);
// the simulation itself runs under the server's base context.
func (s *Server) simulate(reqCtx context.Context, jr JobRequest, job experiments.Job, scale workloads.Scale, ph *phases) (experiments.Measurement, error) {
	sp := tracing.SpanFrom(reqCtx)
	qsp := sp.Child("serve.queue.wait")
	tq := time.Now()
	select {
	case s.slots <- struct{}{}:
	case <-s.baseCtx.Done():
		ph.queueWait = endPhase(qsp, tq)
		return experiments.Measurement{}, &simfault.TimeoutFault{
			Origin: "simserver", Cause: "server shutting down: " + s.baseCtx.Err().Error(),
		}
	}
	s.queueWaitSeconds.Observe(time.Since(tq))
	ph.queueWait = endPhase(qsp, tq)
	defer func() { <-s.slots }()

	ctx := s.baseCtx
	timeout := s.cfg.JobTimeout
	if jr.TimeoutMs > 0 {
		timeout = time.Duration(jr.TimeoutMs) * time.Millisecond
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	ssp := sp.Child("serve.simulate")
	ssp.SetAttr("workload", job.Workload)
	ssp.SetAttr("arch", string(job.Arch))

	// The showpiece link between service and machine tracing: with
	// MachineTrace on, attach a telemetry session whose Perfetto
	// document records this span's trace/span ids, then capture the
	// document on the simulate span so the coordinator's assembler can
	// splice the per-core pipeline timeline under the HTTP span that
	// caused it. Telemetry is a pure observer, so the measurement (and
	// therefore the cache/store entry) is bit-identical either way.
	var mtrace *bytes.Buffer
	var mtw *telemetry.TraceWriter
	if s.cfg.MachineTrace && ssp != nil {
		mtrace = &bytes.Buffer{}
		mtw = telemetry.NewTraceWriter(mtrace, telemetry.FormatPerfetto)
		sess := mtw.Session(job.Workload + "/" + string(job.Arch))
		sess.SetSpanContext(ssp.TraceID, ssp.SpanID)
		prev := job.Configure
		job.Configure = func(c *machine.Config) {
			if prev != nil {
				prev(c)
			}
			c.Trace = sess
		}
	}

	// Profiler labels make fleet CPU profiles sliceable per job kind:
	// `go tool pprof -tagfocus workload=Pointer` against -debug-addr
	// isolates one workload's share of the samples (DESIGN.md §4).
	t0 := time.Now()
	var ms []experiments.Measurement
	var err error
	pprof.Do(ctx, pprof.Labels("workload", job.Workload, "arch", string(job.Arch)),
		func(ctx context.Context) {
			ms, err = s.runner(scale).RunJobsContext(ctx, 1, []experiments.Job{job})
		})
	wall := time.Since(t0)
	if mtw != nil {
		if cerr := mtw.Close(); cerr == nil {
			ssp.SetMachine(mtrace.Bytes())
		}
	}
	ph.simulate = endPhase(ssp, t0)
	s.ObserveJobTime(wall)
	s.jobSeconds.Observe(wall)
	if err != nil {
		s.failed.Add(1)
		// Strip the batch attribution wrapper: this is a single job and
		// the response already names it.
		var je *experiments.JobError
		if errors.As(err, &je) {
			err = je.Err
		}
		attrs := []any{
			"requestId", RequestIDFrom(reqCtx),
			"workload", job.Workload, "arch", string(job.Arch),
			"wall", wall.Round(time.Microsecond),
		}
		if kind, ok := simfault.KindOf(err); ok {
			attrs = append(attrs, "fault", string(kind))
			if snap := simfault.SnapshotOf(err); snap != nil {
				attrs = append(attrs, "faultCycle", snap.Cycle)
			}
		}
		s.logger.Error("job failed", attrs...)
		return experiments.Measurement{}, err
	}
	s.completed.Add(1)
	s.logger.Info("job completed",
		"requestId", RequestIDFrom(reqCtx),
		"workload", job.Workload, "arch", string(job.Arch),
		"cycles", ms[0].Cycles, "wall", wall.Round(time.Microsecond))
	return ms[0], nil
}

// --- handlers ---

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	body := map[string]string{"status": "ok", "store": s.storeState()}
	if s.Draining() {
		body["status"] = "draining"
		WriteJSON(w, http.StatusServiceUnavailable, body)
		return
	}
	WriteJSON(w, http.StatusOK, body)
}

// Metrics snapshots the server counters.
func (s *Server) Metrics() MetricsSnapshot {
	var cycles, insts int64
	s.mu.Lock()
	for _, r := range s.runners {
		c, i := r.SimTotals()
		cycles += c
		insts += i
	}
	s.mu.Unlock()
	wall := time.Since(s.start)
	tp := stats.Throughput{SimCycles: cycles, SimInsts: insts, Wall: wall}
	var st StoreMetrics
	st.State = s.storeState()
	if s.store != nil {
		rep := s.store.Recovery()
		st.Hits = s.storeHits.Load()
		st.Misses = s.storeMisses.Load()
		st.Puts = s.storePuts.Load()
		st.Errors = s.storeErrors.Load()
		st.Records = s.store.Len()
		st.RecoveredRecords = rep.Records
		st.TornTail = rep.TornTail
		st.TruncatedBytes = rep.TruncatedBytes
	}
	return MetricsSnapshot{
		Accepted:      s.accepted.Load(),
		Rejected:      s.Rejected(),
		Deduped:       s.deduped.Load(),
		CacheHits:     s.cacheHits.Load(),
		Completed:     s.completed.Load(),
		Failed:        s.failed.Load(),
		InFlight:      int64(s.InFlight()),
		CacheEntries:  s.cache.Len(),
		Workers:       s.workers,
		Queue:         s.cfg.Queue,
		Capacity:      s.workers + s.cfg.Queue,
		Store:         st,
		UptimeSeconds: wall.Seconds(),
		SimCycles:     cycles,
		SimInsts:      insts,
		MCyclesPerSec: tp.CyclesPerSec() / 1e6,
		SimMIPS:       tp.MIPS(),
		Throughput:    tp.String(),
		Runtime:       ReadRuntimeMetrics(),
	}
}
