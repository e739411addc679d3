// Package simserver serves HiDISC simulations over HTTP: a JSON job
// API in front of experiments.Runner with the three mechanisms a
// simulation service needs to survive production traffic:
//
//   - a content-addressed result cache keyed by the canonical
//     experiments.Job.Key() hash (simulations are deterministic, so a
//     key fully identifies its Measurement);
//   - singleflight deduplication, so concurrent identical submissions
//     share one simulation instead of burning a core each;
//   - bounded-queue admission control that answers 429 + Retry-After
//     under overload instead of queueing without bound.
//
// Endpoints:
//
//	POST /v1/jobs     one job  -> JobResponse JSON (or ErrorBody)
//	POST /v1/batch    job list -> NDJSON stream of BatchItem, one line
//	                  per job as it completes (out of order; reassemble
//	                  by Index)
//	GET  /metrics     MetricsSnapshot JSON (counters + throughput)
//	GET  /healthz     liveness; 503 while draining
//
// Typed simfault errors map to structured HTTP error bodies carrying
// the fault's forensic Snapshot; see the table in DESIGN.md §"Service
// layer". The package uses only the standard library.
package simserver

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"hidisc/internal/experiments"
	"hidisc/internal/machine"
	"hidisc/internal/mem"
	"hidisc/internal/simfault"
	"hidisc/internal/workloads"
)

// JobRequest is one simulation submission. Workload and Arch are
// required; the hierarchy defaults to the paper's Table 1 and the
// scale to the server's default.
type JobRequest struct {
	Workload string       `json:"workload"`
	Arch     machine.Arch `json:"arch"`
	// Hier overrides the memory hierarchy; fields left unset fall back
	// to the Table 1 defaults (the object is decoded over them), so
	// {"l2":{...},"memLatency":40} tweaks latencies only. Kept raw to
	// make that merge semantic possible in one decode pass; build it
	// with HierJSON when submitting a full config.
	Hier json.RawMessage `json:"hier,omitempty"`
	// Scale is "test" or "paper"; empty means the server default.
	Scale string `json:"scale,omitempty"`
	// TimeoutMs bounds this job's simulation wall time; 0 means the
	// server default. The cap is enforced through the machine's
	// RunContext cancellation path and surfaces as a timeout fault.
	TimeoutMs int64 `json:"timeoutMs,omitempty"`
	// Fault, when set, runs the job under a deterministic fault
	// injector. Faulted jobs bypass the cache and dedup layers: a
	// perturbation is not part of the content key.
	Fault *simfault.Injector `json:"fault,omitempty"`

	// hier is Hier as the fixed-shape reader decoded it over the Table
	// 1 defaults, and hierSrc the bytes it read. CanonicalJob uses hier
	// only while Hier is still that slice, so a caller that replaces
	// Hier gets it decoded afresh.
	hier    mem.HierConfig
	hierSrc []byte
}

// hierDecoded reports whether jr.hier holds jr.Hier decoded.
func (jr *JobRequest) hierDecoded() bool {
	return len(jr.Hier) > 0 && len(jr.hierSrc) == len(jr.Hier) && &jr.hierSrc[0] == &jr.Hier[0]
}

// CanonicalJob resolves a request into the canonical experiments.Job
// it denotes: the hierarchy decoded over the Table 1 defaults (unknown
// fields refused) and validated, the architecture name checked, and
// the scale resolved against def. This is the single place a
// JobRequest becomes content-addressable — the server's execute path
// and the cluster coordinator's ring routing both use it, so a job's
// Key() is guaranteed to agree across the fleet. Errors are
// request-shaped (map them to 400).
func (jr JobRequest) CanonicalJob(def workloads.Scale) (experiments.Job, error) {
	hier, err := jr.hierConfig()
	if err != nil {
		return experiments.Job{}, fmt.Errorf("hier: %w", err)
	}
	if err := hier.Validate(); err != nil {
		return experiments.Job{}, err
	}
	if jr.Workload == "" {
		return experiments.Job{}, errors.New("missing workload")
	}
	if jr.Arch == "" {
		return experiments.Job{}, errors.New("missing arch")
	}
	if _, err := machine.ParseArch(string(jr.Arch)); err != nil {
		return experiments.Job{}, err
	}
	scale, err := ParseScale(jr.Scale, def)
	if err != nil {
		return experiments.Job{}, err
	}
	return experiments.Job{Workload: jr.Workload, Arch: jr.Arch, Hier: hier, Scale: scale}, nil
}

// hierConfig is the hierarchy jr names: Hier decoded over the Table 1
// defaults, refusing unknown fields.
func (jr *JobRequest) hierConfig() (mem.HierConfig, error) {
	switch {
	case jr.hierDecoded():
		return jr.hier, nil
	case len(jr.Hier) == 0:
		return mem.DefaultHierConfig(), nil
	}
	hier := mem.DefaultHierConfig()
	err := decodeJSON(jr.Hier, &hier)
	return hier, err
}

// BatchRequest submits many jobs at once. Either Jobs or Matrix is
// set; Matrix names a predefined job list ("fig8").
type BatchRequest struct {
	Jobs []JobRequest `json:"jobs,omitempty"`
	// Matrix expands to a canonical job list: "fig8" is the full
	// Figure 8 benchmark x architecture matrix at the default
	// hierarchy.
	Matrix string `json:"matrix,omitempty"`
	// Scale applies to matrix expansion and to jobs without their own.
	Scale string `json:"scale,omitempty"`
}

// JobResponse answers a successful single-job submission.
type JobResponse struct {
	// Key is the job's canonical content hash (the cache key).
	Key string `json:"key"`
	// Cached is true when the measurement came from the in-memory
	// result cache; Stored when it came from the durable result store
	// (the system of record) below it.
	Cached bool `json:"cached,omitempty"`
	Stored bool `json:"stored,omitempty"`
	// Deduped is true when this submission shared a concurrent
	// identical simulation instead of starting its own.
	Deduped bool `json:"deduped,omitempty"`
	// Measurement is the experiments.Measurement encoded verbatim; kept
	// raw so clients can check byte-identity against a local run.
	Measurement json.RawMessage `json:"measurement"`
}

// A successful answer is one envelope:
//
//	{"key":"<key>"[,"cached":true][,"stored":true][,"deduped":true],"measurement":<m>}
//
// plus a newline; a /v1/batch success line is the same with
// "index":<i> first. The key is a job key (hex), which JSON writes
// unescaped. <m> is json.Marshal output of the measurement, written
// once at simulate time and held as those bytes by the LRU and the
// store. json.Marshal output is compact and HTML-escaped already, so
// json.Encoder's re-compaction of a RawMessage is the identity on it:
// the codec copies <m> verbatim and no hop scans it again.

// appendJobResponse appends the envelope of a successful r to dst:
// byte for byte what json.NewEncoder(w).Encode(r) writes.
func appendJobResponse(dst []byte, r JobResponse) []byte {
	return appendEnvelope(append(dst, '{'), r)
}

// appendBatchItem appends the NDJSON line of a successful batch job at
// index: byte for byte what json.Encoder writes for the BatchItem
// carrying r.
func appendBatchItem(dst []byte, index int, r JobResponse) []byte {
	dst = strconv.AppendInt(append(dst, `{"index":`...), int64(index), 10)
	return appendEnvelope(append(dst, ','), r)
}

func appendEnvelope(dst []byte, r JobResponse) []byte {
	dst = append(append(append(dst, `"key":"`...), r.Key...), '"')
	if r.Cached {
		dst = append(dst, `,"cached":true`...)
	}
	if r.Stored {
		dst = append(dst, `,"stored":true`...)
	}
	if r.Deduped {
		dst = append(dst, `,"deduped":true`...)
	}
	dst = append(append(dst, `,"measurement":`...), r.Measurement...)
	return append(dst, "}\n"...)
}

var errNotEnvelope = errors.New("body is not a job-response envelope")

// ParseJobResponse reads a /v1/jobs success body by the envelope's
// fixed shape. The measurement aliases body and is not scanned: it is
// whatever lies between the envelope's prefix and its closing "}\n".
// Anything but the exact shape appendJobResponse writes — a truncated
// body, another field order, a key JSON would escape, a measurement
// that is not delimited as an object — is an error, so a parsed
// response re-encodes to exactly body.
func ParseJobResponse(body []byte) (JobResponse, error) {
	rest, ok := bytes.CutPrefix(body, []byte(`{"key":"`))
	if !ok {
		return JobResponse{}, errNotEnvelope
	}
	end := bytes.IndexByte(rest, '"')
	if end < 0 {
		return JobResponse{}, errNotEnvelope
	}
	if !plainString(rest[:end]) {
		return JobResponse{}, errNotEnvelope
	}
	r := JobResponse{Key: string(rest[:end])}
	rest = rest[end+1:]
	rest, r.Cached = bytes.CutPrefix(rest, []byte(`,"cached":true`))
	rest, r.Stored = bytes.CutPrefix(rest, []byte(`,"stored":true`))
	rest, r.Deduped = bytes.CutPrefix(rest, []byte(`,"deduped":true`))
	if rest, ok = bytes.CutPrefix(rest, []byte(`,"measurement":`)); !ok {
		return JobResponse{}, errNotEnvelope
	}
	m, ok := bytes.CutSuffix(rest, []byte("}\n"))
	if !ok || len(m) < 2 || m[0] != '{' || m[len(m)-1] != '}' {
		return JobResponse{}, errNotEnvelope
	}
	r.Measurement = m
	return r, nil
}

// plainString reports whether JSON writes s as itself between quotes:
// printable ASCII without a quote, a backslash or a character
// json.Marshal HTML-escapes.
func plainString[S ~string | ~[]byte](s S) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}

// A job request in the fixed shape is
//
//	{"workload":"<w>","arch":"<a>"[,"hier":<h>][,"scale":"<s>"][,"timeoutMs":<n>]}
//
// with plain strings (see plainString), <a> one of machine.Arches as
// spelled there, no fault, and <h> in the shape HierJSON writes:
//
//	{"l1d":<c>,"l2":<c>,"memLatency":<n>}
//	<c> = {["name":"<s>",]"sets":<n>,"ways":<n>,"blockSize":<n>,"latency":<n>}
//
// Those are the bytes json.Marshal writes for such a request, so the
// codec below writes them without encoding/json, and the fronts read
// them without it. Any other request or body goes through encoding/json.

// AppendJobRequest appends jr's JSON to dst: byte for byte what
// json.Marshal writes. A request in the fixed shape is written
// directly; any other is json.Marshal's, with its error.
func AppendJobRequest(dst []byte, jr JobRequest) ([]byte, error) {
	if !jr.fixedShape() {
		data, err := json.Marshal(jr)
		return append(dst, data...), err
	}
	dst = append(append(dst, `{"workload":"`...), jr.Workload...)
	dst = append(append(dst, `","arch":"`...), jr.Arch...)
	dst = append(dst, '"')
	if len(jr.Hier) > 0 {
		dst = append(append(dst, `,"hier":`...), jr.Hier...)
	}
	if jr.Scale != "" {
		dst = append(append(append(dst, `,"scale":"`...), jr.Scale...), '"')
	}
	if jr.TimeoutMs != 0 {
		dst = strconv.AppendInt(append(dst, `,"timeoutMs":`...), jr.TimeoutMs, 10)
	}
	return append(dst, '}'), nil
}

// fixedShape reports whether AppendJobRequest writes jr directly.
func (jr *JobRequest) fixedShape() bool {
	if _, ok := canonicalArch(jr.Arch); !ok || jr.Fault != nil || !plainString(jr.Workload) || !plainString(jr.Scale) {
		return false
	}
	if len(jr.Hier) == 0 || jr.hierDecoded() {
		return true
	}
	_, rest, ok := cutHier(jr.Hier)
	return ok && len(rest) == 0
}

// decodeJobRequest decodes a /v1/jobs body: by the fixed shape when it
// has it, else by encoding/json (decodeJSON), whose errors it returns.
func decodeJobRequest(body []byte) (JobRequest, error) {
	if jr, ok := parseJobRequest(body); ok {
		return jr, nil
	}
	var jr JobRequest
	err := decodeJSON(body, &jr)
	return jr, err
}

// parseJobRequest reads body if it is exactly a fixed-shape request.
// Hier aliases body, and the hierarchy it holds is decoded once, here.
// An empty scale or a zero timeout written out is refused: json.Marshal
// omits them, and refusing them keeps every accepted body the encoding
// of what it decodes to.
func parseJobRequest(body []byte) (JobRequest, bool) {
	var jr JobRequest
	rest, ok := bytes.CutPrefix(body, []byte(`{"workload":"`))
	if !ok {
		return JobRequest{}, false
	}
	if jr.Workload, rest, ok = cutString(rest); !ok {
		return JobRequest{}, false
	}
	if rest, ok = bytes.CutPrefix(rest, []byte(`,"arch":"`)); !ok {
		return JobRequest{}, false
	}
	end := bytes.IndexByte(rest, '"')
	if end < 0 {
		return JobRequest{}, false
	}
	if jr.Arch, ok = canonicalArch(rest[:end]); !ok {
		return JobRequest{}, false
	}
	rest = rest[end+1:]
	if after, found := bytes.CutPrefix(rest, []byte(`,"hier":`)); found {
		var tail []byte
		if jr.hier, tail, ok = cutHier(after); !ok {
			return JobRequest{}, false
		}
		jr.Hier = after[:len(after)-len(tail)]
		jr.hierSrc = jr.Hier
		rest = tail
	}
	if after, found := bytes.CutPrefix(rest, []byte(`,"scale":"`)); found {
		if jr.Scale, rest, ok = cutString(after); !ok || jr.Scale == "" {
			return JobRequest{}, false
		}
	}
	if after, found := bytes.CutPrefix(rest, []byte(`,"timeoutMs":`)); found {
		if jr.TimeoutMs, rest, ok = cutInt(after, 18); !ok || jr.TimeoutMs == 0 {
			return JobRequest{}, false
		}
	}
	if len(rest) != 1 || rest[0] != '}' {
		return JobRequest{}, false
	}
	return jr, true
}

// cutHier reads a hierarchy in HierJSON's shape from the front of b,
// decoded over the Table 1 defaults as json.Unmarshal would.
func cutHier(b []byte) (h mem.HierConfig, rest []byte, ok bool) {
	h = mem.DefaultHierConfig()
	if rest, ok = bytes.CutPrefix(b, []byte(`{"l1d":`)); !ok {
		return h, nil, false
	}
	if rest, ok = cutCache(rest, &h.L1D); !ok {
		return h, nil, false
	}
	if rest, ok = bytes.CutPrefix(rest, []byte(`,"l2":`)); !ok {
		return h, nil, false
	}
	if rest, ok = cutCache(rest, &h.L2); !ok {
		return h, nil, false
	}
	if rest, ok = bytes.CutPrefix(rest, []byte(`,"memLatency":`)); !ok {
		return h, nil, false
	}
	var n int64
	if n, rest, ok = cutInt(rest, hierDigits); !ok {
		return h, nil, false
	}
	h.MemLatency = int(n)
	rest, ok = bytes.CutPrefix(rest, []byte("}"))
	return h, rest, ok
}

// hierDigits bounds a hierarchy integer the fixed shape takes: nine
// digits fit an int on every platform, so a longer one is left to
// encoding/json and its range error.
const hierDigits = 9

// cutCache reads one cache object of HierJSON's shape into c.
func cutCache(b []byte, c *mem.CacheConfig) ([]byte, bool) {
	rest, ok := bytes.CutPrefix(b, []byte(`{`))
	if !ok {
		return nil, false
	}
	if after, found := bytes.CutPrefix(rest, []byte(`"name":"`)); found {
		end := bytes.IndexByte(after, '"')
		if end <= 0 || !plainString(after[:end]) {
			return nil, false
		}
		if name := after[:end]; string(name) != c.Name { // the default's string is reused
			c.Name = string(name)
		}
		if rest, ok = bytes.CutPrefix(after[end+1:], []byte(`,`)); !ok {
			return nil, false
		}
	}
	for _, f := range []struct {
		prefix string
		v      *int
	}{{`"sets":`, &c.Sets}, {`,"ways":`, &c.Ways}, {`,"blockSize":`, &c.BlockSize}, {`,"latency":`, &c.Latency}} {
		if rest, ok = bytes.CutPrefix(rest, []byte(f.prefix)); !ok {
			return nil, false
		}
		var n int64
		if n, rest, ok = cutInt(rest, hierDigits); !ok {
			return nil, false
		}
		*f.v = int(n)
	}
	return bytes.CutPrefix(rest, []byte(`}`))
}

// canonicalArch returns the architecture spelled exactly name: the
// names json.Marshal writes as they are and encoding/json reads back
// unchanged.
func canonicalArch[S ~string | ~[]byte](name S) (machine.Arch, bool) {
	for _, a := range machine.Arches {
		if string(name) == string(a) {
			return a, true
		}
	}
	return "", false
}

// cutString reads a plain string's body and closing quote from the
// front of b.
func cutString(b []byte) (string, []byte, bool) {
	end := bytes.IndexByte(b, '"')
	if end < 0 || !plainString(b[:end]) {
		return "", nil, false
	}
	return string(b[:end]), b[end+1:], true
}

// cutInt reads an integer as json.Marshal writes one — 0, or an
// optional minus and a digit string without a leading zero — of at most
// maxDigits digits from the front of b.
func cutInt(b []byte, maxDigits int) (int64, []byte, bool) {
	neg := len(b) > 0 && b[0] == '-'
	if neg {
		b = b[1:]
	}
	n := 0
	for n < len(b) && b[n] >= '0' && b[n] <= '9' {
		n++
	}
	if n == 0 || n > maxDigits || (b[0] == '0' && (n > 1 || neg)) {
		return 0, nil, false
	}
	var v int64
	for _, c := range b[:n] {
		v = v*10 + int64(c-'0')
	}
	if neg {
		v = -v
	}
	return v, b[n:], true
}

// HierJSON encodes a hierarchy for JobRequest.Hier.
func HierJSON(h mem.HierConfig) json.RawMessage {
	data, err := json.Marshal(h)
	if err != nil {
		panic(err) // HierConfig is plain data; cannot fail
	}
	return data
}

// Decode unpacks the raw measurement.
func (r JobResponse) Decode() (experiments.Measurement, error) {
	var m experiments.Measurement
	err := json.Unmarshal(r.Measurement, &m)
	return m, err
}

// BatchItem is one NDJSON line of a batch response: the outcome of the
// job at Index in the submitted list. Exactly one of Measurement and
// Error is set.
type BatchItem struct {
	Index       int             `json:"index"`
	Key         string          `json:"key,omitempty"`
	Cached      bool            `json:"cached,omitempty"`
	Stored      bool            `json:"stored,omitempty"`
	Deduped     bool            `json:"deduped,omitempty"`
	Measurement json.RawMessage `json:"measurement,omitempty"`
	Error       *WireError      `json:"error,omitempty"`
}

// Decode unpacks the raw measurement.
func (it BatchItem) Decode() (experiments.Measurement, error) {
	var m experiments.Measurement
	err := json.Unmarshal(it.Measurement, &m)
	return m, err
}

// WireError is the structured error representation: the fault kind (or
// a request-level kind), a message, the HTTP status the error maps to,
// and — for simulation faults — the machine snapshot at fault time, so
// the forensics that -dump-on-fault writes locally are downloadable
// from the service.
type WireError struct {
	Status  int    `json:"status"`
	Kind    string `json:"kind"`
	Message string `json:"message"`
	// RequestID echoes the X-Request-Id the server assigned, so a
	// failure can be correlated with the server's structured logs.
	RequestID string          `json:"requestId,omitempty"`
	Snapshot  json.RawMessage `json:"snapshot,omitempty"`
}

func (e *WireError) Error() string {
	return fmt.Sprintf("%s (HTTP %d): %s", e.Kind, e.Status, e.Message)
}

// ErrorBody is the top-level JSON shape of every non-2xx response.
type ErrorBody struct {
	Err WireError `json:"error"`
}

// Request-level error kinds (simulation faults use simfault's kinds).
const (
	KindBadRequest = "bad-request"
	KindOverloaded = "overloaded"
	KindDraining   = "draining"
	KindInternal   = "internal"
)

// wireError converts any job-execution error into its wire shape.
// Typed simulation faults keep their kind and snapshot; the status
// encodes whose fault it was: 400 for malformed submissions, 422 for
// jobs whose simulation wedged (deadlock, cycle limit — properties of
// the submitted content), 504 for jobs cut off by their time budget,
// 500 for violated simulator invariants.
func wireError(err error) WireError {
	we := WireError{Status: http.StatusInternalServerError, Kind: KindInternal, Message: err.Error()}
	if kind, ok := simfault.KindOf(err); ok {
		we.Kind = string(kind)
		switch kind {
		case simfault.KindDeadlock, simfault.KindCycleLimit:
			we.Status = http.StatusUnprocessableEntity
		case simfault.KindTimeout:
			we.Status = http.StatusGatewayTimeout
		case simfault.KindInvariant:
			we.Status = http.StatusInternalServerError
		}
		if snap := simfault.SnapshotOf(err); snap != nil {
			if data, jerr := json.Marshal(snap); jerr == nil {
				we.Snapshot = data
			}
		}
		return we
	}
	// Everything else the runner reports before a machine is built —
	// unknown workloads, bad architectures, assembly errors — is a
	// property of the request, not the server.
	we.Status = http.StatusBadRequest
	we.Kind = KindBadRequest
	return we
}

// ParseScale resolves a wire scale name against a default.
func ParseScale(s string, def workloads.Scale) (workloads.Scale, error) {
	return workloads.ParseScale(s, def)
}

// ScaleName is the wire name of a workload scale.
func ScaleName(s workloads.Scale) string { return workloads.ScaleName(s) }

// MetricsSnapshot is the GET /metrics payload.
type MetricsSnapshot struct {
	// Admission counters. Accepted counts jobs admitted past the
	// bounded queue; Rejected counts 429s; Deduped counts submissions
	// that shared another in-flight simulation; CacheHits counts
	// submissions answered from the result cache without simulating.
	Accepted  int64 `json:"accepted"`
	Rejected  int64 `json:"rejected"`
	Deduped   int64 `json:"deduped"`
	CacheHits int64 `json:"cacheHits"`
	// Completed / Failed count finished jobs by outcome.
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	// InFlight is jobs admitted and not yet finished (running or
	// queued); CacheEntries is the current result-cache population.
	InFlight     int64 `json:"inFlight"`
	CacheEntries int   `json:"cacheEntries"`
	// Workers and Queue echo the admission configuration; Capacity is
	// their sum — the most jobs this server admits at once. A cluster
	// coordinator learns a worker's contribution to fleet capacity
	// from these.
	Workers  int `json:"workers"`
	Queue    int `json:"queue"`
	Capacity int `json:"capacity"`
	// Store describes the durable system-of-record tier.
	Store StoreMetrics `json:"store"`
	// Aggregate simulation throughput since the server started, via
	// stats.Throughput over the runners' SimTotals.
	UptimeSeconds float64 `json:"uptimeSeconds"`
	SimCycles     int64   `json:"simCycles"`
	SimInsts      int64   `json:"simInsts"`
	MCyclesPerSec float64 `json:"mcyclesPerSec"`
	SimMIPS       float64 `json:"simMIPS"`
	Throughput    string  `json:"throughput"`
	// Runtime is this process's Go runtime introspection snapshot.
	// When the coordinator merges worker snapshots it does NOT sum
	// these — the merged view reports the coordinator's own runtime,
	// and per-worker values live in the per-worker snapshots.
	Runtime RuntimeMetrics `json:"runtime"`
}

// RuntimeMetrics is the Go runtime introspection slice of the metrics
// payload: scheduler and heap health for the process serving the
// endpoint.
type RuntimeMetrics struct {
	Goroutines     int    `json:"goroutines"`
	HeapInuseBytes uint64 `json:"heapInuseBytes"`
	GCPauseTotalNs uint64 `json:"gcPauseTotalNs"`
	GCCycles       uint32 `json:"gcCycles"`
	GOMAXPROCS     int    `json:"gomaxprocs"`
}

// StoreMetrics is the system-of-record slice of the metrics payload.
// State is "off" (no -store), "ok", or "degraded" (a store read/write
// failed since startup; serving continues from the LRU and by
// re-simulating). The Recovered* fields report what open-time recovery
// found in the log: RecoveredRecords counts records proven valid by
// the CRC scan, and a true TornTail means a torn write from a crash
// mid-append was truncated away (TruncatedBytes of it).
type StoreMetrics struct {
	State            string `json:"state"`
	Hits             int64  `json:"hits"`
	Misses           int64  `json:"misses"`
	Puts             int64  `json:"puts"`
	Errors           int64  `json:"errors"`
	Records          int    `json:"records"`
	RecoveredRecords int    `json:"recoveredRecords"`
	TornTail         bool   `json:"tornTail"`
	TruncatedBytes   int64  `json:"truncatedBytes"`
}

// retryAfter estimates how long a rejected client should back off:
// the queue's worth of work divided by the worker pool, from the
// server's moving average of job wall time, clamped to [1s, 60s] and
// rounded up to whole seconds (the Retry-After header unit).
func retryAfter(queued int, workers int, avgJob time.Duration) int {
	if avgJob <= 0 {
		avgJob = time.Second
	}
	est := time.Duration(queued/max(workers, 1)+1) * avgJob
	secs := int((est + time.Second - 1) / time.Second)
	return min(max(secs, 1), 60)
}
