package simserver

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hidisc/internal/experiments"
	"hidisc/internal/mem"
	"hidisc/internal/tracing"
	"hidisc/internal/workloads"
)

// Backend is what a role behind a Front actually does: the worker
// simulates, the cluster coordinator forwards to a worker. Everything
// the two share — drain, body decoding, scale and batch validation,
// all-or-nothing admission with 429 + Retry-After, NDJSON batch
// streaming, request IDs, request-root spans, /v1/traces and /metrics
// negotiation — lives in the Front.
type Backend interface {
	// Admission reports how many jobs may be admitted at once and how
	// many of them run in parallel (the Retry-After divisor).
	Admission() (capacity, width int)
	// Ready is nil when the backend can take work. Otherwise its error,
	// mapped by WireError, answers a submission before admission.
	Ready() error
	// RunJob executes one admitted job; scale is the default for a job
	// that names none. A failed job's response may still carry its key.
	RunJob(ctx context.Context, jr JobRequest, scale workloads.Scale) (JobResponse, error)
	// WireError maps a Ready or RunJob error onto the wire.
	WireError(err error) WireError
	// MetricsView snapshots the /metrics JSON body and returns the
	// Prometheus rendering of that same snapshot.
	MetricsView(ctx context.Context) (snapshot any, prom func(io.Writer))
	// Routes mounts the role's own endpoints (health, control plane).
	Routes(mux *http.ServeMux)
}

// Role is the data that tells one front from another on the wire and
// in its logs and spans.
type Role struct {
	// IDPrefix starts every request ID the front mints ("req-", "co-"),
	// so a fleet log stream shows which hop minted an ID.
	IDPrefix string
	// SpanPrefix names the request-root span ("<prefix> POST /v1/jobs")
	// and the per-job batch span ("<prefix>.job").
	SpanPrefix string
	// Noun names the process in messages ("server", "coordinator").
	Noun string
	// Admission names the admission bound in 429 messages ("admission
	// queue", "fleet admission").
	Admission string
	// AdmitSpan, when set, names a span around the admission decision.
	AdmitSpan string
	// Traced, when set, runs on its own goroutine after a traced
	// request's root span has ended.
	Traced func(requestID string)
}

// Front is the HTTP service shell a Backend runs behind. Embed it: its
// Handler, drain and in-flight methods are the role's own.
type Front struct {
	b       Backend
	role    Role
	jobSpan string
	scale   workloads.Scale
	logger  *slog.Logger
	tracer  *tracing.Tracer

	// baseCtx parents every job; ForceCancel cancels it.
	baseCtx    context.Context
	cancelJobs context.CancelFunc
	draining   atomic.Bool
	reqSeq     atomic.Int64 // request-ID source

	mu       sync.Mutex
	admitted int // jobs reserved and not yet finished

	accepted atomic.Int64
	rejected atomic.Int64
	avgJobNs atomic.Int64 // EWMA of job wall time, for Retry-After
}

// NewFront builds the front for b. scale is the default for requests
// that name none; a nil logger logs nowhere, a nil tracer traces
// nothing.
func NewFront(b Backend, role Role, scale workloads.Scale, logger *slog.Logger, tracer *tracing.Tracer) *Front {
	if logger == nil {
		logger = slog.New(discardHandler{})
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Front{
		b: b, role: role, jobSpan: role.SpanPrefix + ".job",
		scale: scale, logger: logger, tracer: tracer,
		baseCtx: ctx, cancelJobs: cancel,
	}
}

// Handler returns the route table — the shared data plane plus the
// backend's own routes — wrapped in the observability middleware.
func (f *Front) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", f.handleJob)
	mux.HandleFunc("POST /v1/batch", f.handleBatch)
	mux.HandleFunc("GET /metrics", f.handleMetrics)
	mux.HandleFunc("GET /v1/traces", f.handleTraces)
	f.b.Routes(mux)
	return f.withObservability(mux)
}

// Logger is the front's structured logger (never nil).
func (f *Front) Logger() *slog.Logger { return f.logger }

// Tracer returns the span collector (nil when tracing is off).
func (f *Front) Tracer() *tracing.Tracer { return f.tracer }

// JobContext is the context admitted jobs run under; ForceCancel
// cancels it.
func (f *Front) JobContext() context.Context { return f.baseCtx }

// Rejected counts submissions answered 429.
func (f *Front) Rejected() int64 { return f.rejected.Load() }

// StartDraining flips the front into drain mode: new submissions are
// refused while admitted jobs run to completion. The backend's health
// route reports it.
func (f *Front) StartDraining() {
	if f.draining.CompareAndSwap(false, true) {
		f.logger.Info("drain started", "inFlight", f.InFlight())
	}
}

// Draining reports drain mode.
func (f *Front) Draining() bool { return f.draining.Load() }

// ForceCancel cancels JobContext, aborting every in-flight job. The
// escape hatch when a drain deadline expires.
func (f *Front) ForceCancel() { f.cancelJobs() }

// InFlight returns the number of admitted, unfinished jobs — including
// jobs waiting for a run slot or sleeping between retries.
func (f *Front) InFlight() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.admitted
}

// Drain enters drain mode and waits until every admitted job has
// finished or ctx expires.
func (f *Front) Drain(ctx context.Context) error {
	f.StartDraining()
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		if f.InFlight() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("drain: %d jobs still in flight: %w", f.InFlight(), ctx.Err())
		case <-tick.C:
		}
	}
}

// ObserveJobTime folds one job's wall time into the moving average the
// Retry-After estimate divides.
func (f *Front) ObserveJobTime(d time.Duration) {
	for {
		old := f.avgJobNs.Load()
		next := int64(d)
		if old > 0 {
			next = old + (int64(d)-old)/8
		}
		if f.avgJobNs.CompareAndSwap(old, next) {
			return
		}
	}
}

// --- handlers ---

func (f *Front) handleJob(w http.ResponseWriter, r *http.Request) {
	var jr JobRequest
	if !f.decode(w, r, func(body []byte) (err error) {
		jr, err = decodeJobRequest(body)
		return err
	}) {
		return
	}
	scale, err := ParseScale(jr.Scale, f.scale)
	if err != nil {
		f.writeError(w, r, badRequestWire(err))
		return
	}
	if !f.admit(w, r, 1) {
		return
	}
	defer f.release()
	resp, err := f.b.RunJob(r.Context(), jr, scale)
	if err != nil {
		f.writeError(w, r, f.b.WireError(err))
		return
	}
	buf := envelopes.Get().(*[]byte)
	body := appendJobResponse((*buf)[:0], resp)
	h := w.Header()
	h["Content-Type"] = jsonContentType
	h["Content-Length"] = []string{strconv.Itoa(len(body))}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
	if cap(body) <= maxPooledEnvelope {
		*buf = body
		envelopes.Put(buf)
	}
}

// envelopes holds the buffers handleJob builds answers in. A buffer
// goes back once the body is written: Write copies what it is given.
var envelopes = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledEnvelope bounds the buffers envelopes keeps, so one outsized
// measurement does not stay pinned in the pool.
const maxPooledEnvelope = 64 << 10

// jsonContentType is the Content-Type value of every JSON answer,
// shared: the server only reads it.
var jsonContentType = []string{"application/json"}

func (f *Front) handleBatch(w http.ResponseWriter, r *http.Request) {
	var br BatchRequest
	if !f.decode(w, r, func(body []byte) error { return decodeJSON(body, &br) }) {
		return
	}
	scale, err := ParseScale(br.Scale, f.scale)
	if err != nil {
		f.writeError(w, r, badRequestWire(err))
		return
	}
	jobs, err := ExpandBatch(br, scale)
	if err != nil {
		f.writeError(w, r, badRequestWire(err))
		return
	}
	if !f.admit(w, r, len(jobs)) {
		return
	}

	// Stream one NDJSON line per job as it completes, out of order.
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	lines := make(chan []byte)
	for i := range jobs {
		go func(i int) {
			defer f.release()
			lines <- f.batchJob(r.Context(), i, jobs[i], scale)
		}(i)
	}
	for range jobs {
		if _, err := w.Write(<-lines); err != nil {
			// Client went away; keep consuming so the jobs finish and
			// release their admission.
			continue
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

// batchJob runs job i of a batch and returns its NDJSON line. Each job
// gets its own span on its own track, so concurrent jobs render as
// parallel Perfetto rows instead of interleaving on the request row;
// scale (the batch-level resolution) is the default for jobs without
// their own.
func (f *Front) batchJob(ctx context.Context, i int, jr JobRequest, scale workloads.Scale) []byte {
	id := RequestIDFrom(ctx)
	jsp := tracing.SpanFrom(ctx).Child(f.jobSpan)
	if jsp != nil {
		jsp.SetTrack(fmt.Sprintf("job[%d]", i))
		jsp.SetAttr("index", strconv.Itoa(i))
		ctx = tracing.ContextWithSpan(ctx, jsp)
	}
	defer jsp.End()
	jscale, err := ParseScale(jr.Scale, scale)
	if err != nil {
		we := badRequestWire(err)
		we.RequestID = id
		return errorLine(BatchItem{Index: i, Error: &we})
	}
	resp, err := f.b.RunJob(ctx, jr, jscale)
	if err != nil {
		we := f.b.WireError(err)
		we.RequestID = id
		return errorLine(BatchItem{Index: i, Key: resp.Key, Error: &we})
	}
	return appendBatchItem(make([]byte, 0, len(resp.Measurement)+128), i, resp)
}

// errorLine encodes a failed batch item as an NDJSON line.
func errorLine(it BatchItem) []byte {
	line, _ := json.Marshal(it) // plain data; cannot fail
	return append(line, '\n')
}

// decode refuses submissions while draining, then reads the body and
// hands it to parse.
func (f *Front) decode(w http.ResponseWriter, r *http.Request, parse func(body []byte) error) bool {
	if f.Draining() {
		f.writeError(w, r, WireError{Status: http.StatusServiceUnavailable, Kind: KindDraining, Message: f.role.Noun + " is draining"})
		return false
	}
	body, err := readRequestBody(w, r)
	if err == nil {
		err = parse(body)
	}
	if err != nil {
		f.writeError(w, r, badRequestWire(err))
		return false
	}
	return true
}

// admit reserves n jobs, all or nothing, against the backend's
// capacity, or answers the submission: the backend's readiness error, a
// 400 for a batch that could never fit, or 429 with a Retry-After
// estimate. The reservation holds until release, so two submissions
// admitted back to back can never oversubscribe the capacity.
func (f *Front) admit(w http.ResponseWriter, r *http.Request, n int) bool {
	if err := f.b.Ready(); err != nil {
		f.writeError(w, r, f.b.WireError(err))
		return false
	}
	capacity, width := f.b.Admission()
	if n > capacity {
		f.writeError(w, r, WireError{
			Status: http.StatusBadRequest, Kind: KindBadRequest,
			Message: fmt.Sprintf("batch of %d exceeds %s capacity %d; split it", n, f.role.Noun, capacity),
		})
		return false
	}
	var sp *tracing.Span
	if f.role.AdmitSpan != "" {
		sp = tracing.SpanFrom(r.Context()).Child(f.role.AdmitSpan)
	}
	f.mu.Lock()
	backlog := f.admitted
	ok := backlog+n <= capacity
	if ok {
		f.admitted += n
	}
	f.mu.Unlock()
	if sp != nil {
		sp.SetAttr("ok", strconv.FormatBool(ok))
		sp.SetAttr("jobs", strconv.Itoa(n))
		sp.SetAttr("backlog", strconv.Itoa(backlog))
		sp.End()
	}
	if ok {
		f.accepted.Add(int64(n))
		return true
	}
	f.rejected.Add(1)
	secs := retryAfter(backlog, width, time.Duration(f.avgJobNs.Load()))
	f.logger.Warn("admission rejected",
		"requestId", RequestIDFrom(r.Context()), "backlog", backlog, "retryAfterSeconds", secs)
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	f.writeError(w, r, WireError{
		Status: http.StatusTooManyRequests, Kind: KindOverloaded,
		Message: fmt.Sprintf("%s full (%d jobs in flight); retry in %ds", f.role.Admission, backlog, secs),
	})
	return false
}

// release returns one job's reservation.
func (f *Front) release() {
	f.mu.Lock()
	f.admitted--
	if f.admitted < 0 {
		panic("simserver: admission over-release")
	}
	f.mu.Unlock()
}

// handleMetrics content-negotiates between the backend's JSON snapshot
// (the default, what simclient decodes) and the Prometheus text
// exposition of the same snapshot. One rule for every role:
// ?format=prom is Prometheus, ?format=json or no format is JSON, any
// other format is 400; with no format, an Accept header naming
// text/plain but not application/json (what a scraper sends) is
// Prometheus.
func (f *Front) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var prom bool
	switch format := r.URL.Query().Get("format"); format {
	case "prom":
		prom = true
	case "json":
	case "":
		accept := r.Header.Get("Accept")
		prom = strings.Contains(accept, "text/plain") && !strings.Contains(accept, "application/json")
	default:
		f.writeError(w, r, badRequestWire(fmt.Errorf("unknown metrics format %q (want \"json\" or \"prom\")", format)))
		return
	}
	snap, writeProm := f.b.MetricsView(r.Context())
	if !prom {
		WriteJSON(w, http.StatusOK, snap)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	writeProm(w)
}

// handleTraces dumps the span ring as NDJSON, optionally filtered by
// ?request=<id>. With tracing off the body is empty — the endpoint
// stays mounted so probes don't need to know the configuration.
func (f *Front) handleTraces(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	if f.tracer == nil {
		return
	}
	_ = f.tracer.WriteNDJSON(w, r.URL.Query().Get("request"))
}

// --- plumbing ---

func badRequestWire(err error) WireError {
	return WireError{Status: http.StatusBadRequest, Kind: KindBadRequest, Message: err.Error()}
}

// maxRequestBody caps every request body a front reads.
const maxRequestBody = 1 << 20

// DecodeBody decodes a JSON request body of at most 1 MiB as
// decodeJSON does.
func DecodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	body, err := readRequestBody(w, r)
	if err != nil {
		return err
	}
	return decodeJSON(body, v)
}

// readRequestBody reads a request body of at most maxRequestBody bytes,
// in one allocation when Content-Length declares its size.
func readRequestBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	rd := http.MaxBytesReader(w, r.Body, maxRequestBody)
	if n := r.ContentLength; n >= 0 && n <= maxRequestBody {
		body := make([]byte, n)
		_, err := io.ReadFull(rd, body)
		return body, err
	}
	return io.ReadAll(rd)
}

// decodeJSON decodes data as one JSON value into v, refusing unknown
// fields and anything after the value but whitespace.
func decodeJSON(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if off := dec.InputOffset(); len(bytes.TrimLeft(data[off:], " \t\r\n")) > 0 {
		return fmt.Errorf("data after the JSON value at offset %d", off)
	}
	return nil
}

// WriteJSON writes v as a JSON response with the given status.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError stamps the request ID onto the wire error so a client can
// quote it back when reporting a failure, logs it, and renders the
// standard error body.
func (f *Front) writeError(w http.ResponseWriter, r *http.Request, we WireError) {
	we.RequestID = RequestIDFrom(r.Context())
	level := slog.LevelWarn
	if we.Status >= http.StatusInternalServerError {
		level = slog.LevelError
	}
	f.logger.Log(r.Context(), level, "request error",
		"requestId", we.RequestID, "status", we.Status, "kind", we.Kind, "message", we.Message)
	WriteJSON(w, we.Status, ErrorBody{Err: we})
}

// ExpandBatch resolves a batch request to per-job requests.
func ExpandBatch(br BatchRequest, scale workloads.Scale) ([]JobRequest, error) {
	switch {
	case br.Matrix != "" && len(br.Jobs) > 0:
		return nil, errors.New("set either matrix or jobs, not both")
	case br.Matrix == "fig8":
		var jrs []JobRequest
		for _, j := range experiments.Fig8Jobs(mem.DefaultHierConfig(), scale) {
			jrs = append(jrs, JobRequest{Workload: j.Workload, Arch: j.Arch})
		}
		return jrs, nil
	case br.Matrix != "":
		return nil, fmt.Errorf("unknown matrix %q (want \"fig8\")", br.Matrix)
	case len(br.Jobs) == 0:
		return nil, errors.New("empty batch")
	}
	return br.Jobs, nil
}
