package cluster

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"hidisc/internal/simclient"
	"hidisc/internal/simserver"
	"hidisc/internal/tracing"
	"hidisc/internal/workloads"
)

// Config parameterises a Coordinator.
type Config struct {
	// Scale is the default workload scale for requests that don't name
	// one. The coordinator always resolves the scale before routing and
	// forwards it explicitly, so workers' own -scale defaults never
	// matter behind a coordinator.
	Scale workloads.Scale
	// HeartbeatInterval is the cadence workers are told to heartbeat at
	// (default 1s); TTL is the liveness budget (default 3s; silent past
	// TTL = suspect, past 2×TTL = dead).
	HeartbeatInterval time.Duration
	TTL               time.Duration
	// ClientOptions configures the per-worker clients (transport,
	// static headers). Its Retry policy is ignored: the coordinator
	// owns retries itself, because a retry may need to move to a
	// different worker (see forward).
	ClientOptions simclient.Options
	// Backoff is the delay schedule between forward attempts (default
	// simclient.DefaultBackoff); its MaxAttempts bounds per-job
	// attempts.
	Backoff *simclient.Backoff
	// StaticWorkers are worker base URLs to probe and adopt without
	// waiting for registrations.
	StaticWorkers []string
	// Logger receives structured logs; nil logs nowhere.
	Logger *slog.Logger
	// Tracer, when non-nil, collects routing-lifecycle spans (request,
	// per-job, per-attempt, requeue/re-route) into its ring, served on
	// GET /v1/traces. The coordinator also injects each attempt's span
	// context into the forwarded request (via simclient), so worker
	// span trees parent under the attempt that sent them.
	Tracer *tracing.Tracer
	// TraceDir, when set (and Tracer is on), makes the coordinator
	// assemble one merged Perfetto JSON file per traced request after
	// it completes: its own spans plus spans fetched from the workers'
	// /v1/traces rings, with any captured machine-telemetry documents
	// spliced under their simulate spans. Files land in TraceDir as
	// trace-<requestID>.json.
	TraceDir string
}

// Coordinator fronts a fleet of hidisc-serve workers with the same
// data-plane API a single worker serves — it is the routing Backend of
// the same simserver.Front — plus fleet membership. Jobs route to
// workers by consistent-hashing the canonical experiments.Job.Key(), so
// each worker's result cache, store and singleflight stay effective on
// its shard of the key space.
type Coordinator struct {
	*simserver.Front
	cfg     Config
	fleet   *fleet
	start   time.Time
	backoff *simclient.Backoff

	routed       atomic.Int64
	failed       atomic.Int64
	requeued     atomic.Int64
	rerouted     atomic.Int64
	throttled    atomic.Int64
	registered   atomic.Int64
	deregistered atomic.Int64
	workerDeaths atomic.Int64
}

// New builds a coordinator.
func New(cfg Config) *Coordinator {
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = time.Second
	}
	if cfg.TTL <= 0 {
		cfg.TTL = 3 * cfg.HeartbeatInterval
	}
	if cfg.Backoff == nil {
		cfg.Backoff = simclient.DefaultBackoff()
	}
	// Worker clients never retry on their own: a failure must come back
	// to the coordinator, which decides retry-here vs re-route vs fail
	// fast (simclient.RetryableStatus is the shared table).
	opts := cfg.ClientOptions
	opts.Retry = nil
	co := &Coordinator{cfg: cfg, start: time.Now(), backoff: cfg.Backoff}
	role := simserver.Role{
		IDPrefix: "co-", SpanPrefix: "coord", Noun: "coordinator",
		Admission: "fleet admission", AdmitSpan: "coord.admit",
	}
	if cfg.TraceDir != "" {
		role.Traced = co.assembleTrace
	}
	co.Front = simserver.NewFront(co, role, cfg.Scale, cfg.Logger, cfg.Tracer)
	co.fleet = newFleet(cfg.HeartbeatInterval, cfg.TTL, opts, co.Logger())
	co.fleet.onDeath = func(url, reason string) { co.workerDeaths.Add(1) }
	for _, url := range cfg.StaticWorkers {
		co.fleet.AddStatic(url)
	}
	return co
}

// Run operates the control loops until ctx ends: the TTL sweeper and
// one prober per static worker. Call it on its own goroutine.
func (co *Coordinator) Run(ctx context.Context) {
	for _, url := range co.fleet.StaticURLs() {
		go co.probeStatic(ctx, url)
	}
	tick := time.NewTicker(co.cfg.HeartbeatInterval / 2)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
			co.fleet.Sweep()
		}
	}
}

// probeStatic stands in for the registration loop of a worker named on
// the command line: while the worker is dead, probe its /metrics to
// learn capacity and register it; while it is a member, poll /healthz
// as a synthetic heartbeat. A static worker that goes down is probed
// forever — it may come back.
func (co *Coordinator) probeStatic(ctx context.Context, url string) {
	c := simclient.NewWithOptions(url, co.fleet.opts)
	tick := time.NewTicker(co.cfg.HeartbeatInterval)
	defer tick.Stop()
	for {
		pctx, cancel := context.WithTimeout(ctx, co.cfg.TTL)
		if co.fleet.State(url) == StateDead {
			if m, err := c.Metrics(pctx); err == nil {
				co.fleet.Register(RegisterRequest{
					URL: url, Workers: m.Workers, Queue: m.Queue, Store: m.Store.State,
				})
				co.registered.Add(1)
				co.Logger().Info("static worker adopted", "worker", url, "capacity", m.Capacity)
			}
		} else {
			if err := c.Healthz(pctx); err == nil {
				co.fleet.Heartbeat(HeartbeatRequest{URL: url})
			}
			// A draining worker answers healthz 503; the missed
			// synthetic heartbeat ages it through suspect to dead, which
			// is exactly the graceful-departure path a command-line-only
			// worker gets.
		}
		cancel()
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
	}
}

// Admission is fleet-wide: the summed capacity and simulation-pool
// width of the routable workers.
func (co *Coordinator) Admission() (capacity, width int) {
	_, capacity, width = co.fleet.Occupancy()
	return capacity, width
}

// Ready refuses work while no worker is routable.
func (co *Coordinator) Ready() error {
	if co.fleet.AliveCount() == 0 {
		return errNoWorkers
	}
	return nil
}

// Routes mounts the fleet health view and the cluster control plane.
func (co *Coordinator) Routes(mux *http.ServeMux) {
	mux.HandleFunc("GET /healthz", co.handleHealthz)
	mux.HandleFunc("POST /v1/cluster/register", co.handleRegister)
	mux.HandleFunc("POST /v1/cluster/heartbeat", co.handleHeartbeat)
	mux.HandleFunc("POST /v1/cluster/deregister", co.handleDeregister)
}

// --- routing ---

// RunJob routes one job: canonicalize, hash, pick the ring owner,
// forward, and handle failure per the shared retryable-status table:
//
//   - success → done (count a reroute if it landed off its ring home);
//   - transport error, an undecodable body, or an answer under another
//     job's key → the worker died under the job or cannot be trusted
//     with it: mark it dead, requeue onto the ring minus the dead node
//     (content addressing makes the replay free — if the job actually
//     completed before the crash, the home-to-be worker's store/cache
//     answers it);
//   - 429 → the home worker shed it; wait out Retry-After and try the
//     same worker again (its cache shard makes it the cheapest home);
//   - 502/503 → the worker is draining or behind a blip: exclude it
//     for this job and re-route;
//   - any other status (400/404/405/413/422/500/504) → a property of
//     the job, identical on every worker: fail fast, never re-routed.
//
// reqCtx bounds the caller's wait, and ForceCancel ends it too: a
// second shutdown signal must abandon forwards even though their HTTP
// requests are still open. Between attempts the coordinator sleeps the
// Backoff schedule. Errors are *simclient.APIError for pass-through,
// else the coordinator's own.
func (co *Coordinator) RunJob(reqCtx context.Context, jr simserver.JobRequest, def workloads.Scale) (simserver.JobResponse, error) {
	job, err := jr.CanonicalJob(def)
	if err != nil {
		return simserver.JobResponse{}, &simclient.APIError{
			Status: http.StatusBadRequest,
			Wire: simserver.WireError{
				Status: http.StatusBadRequest, Kind: simserver.KindBadRequest, Message: err.Error(),
			},
		}
	}
	reqCtx, cancel := context.WithCancel(reqCtx)
	defer cancel()
	defer context.AfterFunc(co.JobContext(), cancel)()
	key := job.Key()
	// Forward the resolved scale explicitly: the key was computed under
	// it, so the worker must run exactly that.
	jr.Scale = simserver.ScaleName(job.Scale)

	sp := tracing.SpanFrom(reqCtx)
	sp.SetAttr("key", key)
	excluded := map[string]bool{}
	home := ""
	var lastErr error
	for attempt := 0; attempt < co.backoff.MaxAttempts(); attempt++ {
		if err := reqCtx.Err(); err != nil {
			return simserver.JobResponse{}, err
		}
		url, c := co.fleet.PickClient(key, excluded)
		if url == "" {
			// Nothing routable: membership may recover (a worker restart
			// re-registers within a heartbeat), so wait a slot and widen
			// the search back to the full ring.
			lastErr = errNoWorkers
			excluded = map[string]bool{}
			if err := co.backoff.Sleep(reqCtx, co.backoff.Delay(attempt)); err != nil {
				return simserver.JobResponse{}, err
			}
			continue
		}
		if home == "" {
			home = url
		}
		// One span per forward attempt; the worker's own span tree (and
		// simclient's client span) parent under it via the traceparent
		// simclient injects from the attempt context.
		asp := sp.Child("coord.attempt")
		asp.SetAttr("worker", url)
		if url != home {
			asp.SetAttr("reroutedFrom", home)
		}
		actx := tracing.ContextWithSpan(reqCtx, asp)
		co.fleet.Begin(url)
		t0 := time.Now()
		resp, err := c.Run(actx, jr)
		co.fleet.End(url)
		if err == nil && resp.Key != key {
			// The answer is forwarded unscanned, so its key is the one
			// check that it belongs to this job. An answer for another
			// job is as unusable as a body that fails to decode.
			err = fmt.Errorf("worker answered key %q for job %s", resp.Key, key)
		}
		if err == nil {
			asp.End()
			co.ObserveJobTime(time.Since(t0))
			co.routed.Add(1)
			if url != home {
				co.rerouted.Add(1)
			}
			return resp, nil
		}
		asp.SetAttr("error", err.Error())
		asp.End()
		lastErr = err
		var ae *simclient.APIError
		switch {
		case errors.As(err, &ae) && !simclient.RetryableStatus(ae.Status):
			// The job's own fault — identical on every worker.
			co.failed.Add(1)
			return simserver.JobResponse{}, ae
		case errors.As(err, &ae) && ae.Status == http.StatusTooManyRequests:
			// Shed by the home shard: honour its Retry-After there.
			co.throttled.Add(1)
			co.Logger().Warn("worker shed job; holding for its shard",
				"requestId", simserver.RequestIDFrom(reqCtx), "worker", url,
				"retryAfter", ae.RetryAfter)
			if err := co.backoff.Sleep(reqCtx, co.backoff.DelayFor(attempt, err)); err != nil {
				return simserver.JobResponse{}, err
			}
		case errors.As(err, &ae):
			// 502/503: draining or an intermediary blip — re-route now.
			excluded[url] = true
			rsp := sp.Child("coord.reroute")
			rsp.SetAttr("worker", url)
			rsp.SetAttr("status", strconv.Itoa(ae.Status))
			rsp.End()
			co.Logger().Info("worker refused job; re-routing",
				"requestId", simserver.RequestIDFrom(reqCtx), "worker", url,
				"status", ae.Status)
		case reqCtx.Err() != nil:
			return simserver.JobResponse{}, reqCtx.Err()
		default:
			// Transport-level failure: the worker died under this job.
			// Requeue it onto the ring minus the dead node. The requeue
			// span names the dead worker, so a merged trace shows exactly
			// which node a job had to abandon.
			co.fleet.MarkDead(url, err.Error())
			co.requeued.Add(1)
			excluded[url] = true
			qsp := sp.Child("coord.requeue")
			qsp.SetAttr("worker", url)
			qsp.SetAttr("reason", err.Error())
			qsp.End()
			co.Logger().Warn("worker died in flight; requeueing job",
				"requestId", simserver.RequestIDFrom(reqCtx), "worker", url,
				"key", key, "err", err.Error())
		}
	}
	co.failed.Add(1)
	return simserver.JobResponse{}, lastErr
}

var errNoWorkers = errors.New("no routable workers in the fleet")

// --- handlers ---

func (co *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	snap := HealthSnapshot{Workers: co.fleet.Health()}
	status := http.StatusOK
	switch {
	case co.Draining():
		snap.Status = "draining"
		status = http.StatusServiceUnavailable
	case co.fleet.AliveCount() == 0:
		snap.Status = "down"
		status = http.StatusServiceUnavailable
	default:
		snap.Status = "ok"
	}
	simserver.WriteJSON(w, status, snap)
}

func (co *Coordinator) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if err := simserver.DecodeBody(w, r, &req); err != nil || req.URL == "" {
		http.Error(w, "bad register body", http.StatusBadRequest)
		return
	}
	co.fleet.Register(req)
	co.registered.Add(1)
	co.Logger().Info("worker registered",
		"worker", req.URL, "workers", req.Workers, "queue", req.Queue)
	simserver.WriteJSON(w, http.StatusOK, RegisterResponse{
		HeartbeatMs: co.cfg.HeartbeatInterval.Milliseconds(),
		TTLMs:       co.cfg.TTL.Milliseconds(),
	})
}

func (co *Coordinator) handleHeartbeat(w http.ResponseWriter, r *http.Request) {
	var req HeartbeatRequest
	if err := simserver.DecodeBody(w, r, &req); err != nil || req.URL == "" {
		http.Error(w, "bad heartbeat body", http.StatusBadRequest)
		return
	}
	if !co.fleet.Heartbeat(req) {
		// Unknown or dead: the worker must re-register.
		http.Error(w, "unknown worker; re-register", http.StatusNotFound)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (co *Coordinator) handleDeregister(w http.ResponseWriter, r *http.Request) {
	var req DeregisterRequest
	if err := simserver.DecodeBody(w, r, &req); err != nil || req.URL == "" {
		http.Error(w, "bad deregister body", http.StatusBadRequest)
		return
	}
	if co.fleet.Deregister(req.URL) {
		co.deregistered.Add(1)
		co.Logger().Info("worker deregistered", "worker", req.URL)
	}
	w.WriteHeader(http.StatusNoContent)
}

// WireError renders a forward failure: worker APIErrors pass through
// verbatim (status, kind, snapshot — the worker already mapped its
// fault), everything else is coordinator-shaped.
func (co *Coordinator) WireError(err error) simserver.WireError {
	var ae *simclient.APIError
	if errors.As(err, &ae) {
		return ae.Wire
	}
	if errors.Is(err, errNoWorkers) {
		return simserver.WireError{
			Status: http.StatusServiceUnavailable, Kind: "no-workers",
			Message: "no routable workers in the fleet; retry once one registers",
		}
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return simserver.WireError{
			Status: http.StatusGatewayTimeout, Kind: "timeout",
			Message: err.Error(),
		}
	}
	return simserver.WireError{
		Status: http.StatusBadGateway, Kind: "worker-unreachable",
		Message: err.Error(),
	}
}
