// Package tracing is the fleet's distributed-tracing spine: a
// stdlib-only span model threaded through the whole request path —
// client submit, coordinator admission/route/forward, worker
// admission/cache/singleflight/store/simulate — so one job yields a
// causally linked span tree across processes.
//
// Design points, in the same spirit as the telemetry package's
// pure-observer contract:
//
//   - Propagation is W3C traceparent ("00-<32hex trace>-<16hex
//     span>-<2hex flags>"): simclient injects the current span's
//     context into the outgoing header, the server middleware adopts
//     it, so a worker's spans parent under the coordinator attempt
//     that forwarded the job.
//   - Durations are monotonic: Span captures time.Now() once at start
//     (Go's time carries the monotonic clock) and End() uses
//     time.Since, so a wall-clock step cannot produce negative spans.
//   - Collection is a bounded lock-free ring per process: End()
//     publishes the finished span with one atomic fetch-add and one
//     atomic pointer store; when the ring wraps, the oldest spans are
//     overwritten (eviction is implicit, no allocation, no lock).
//   - Off is free: a nil *Tracer and a nil *Span are both valid
//     receivers for every method, so call sites pay one pointer
//     check — the same nil-guard discipline machine.Config.Trace
//     enforces for the cycle-level sink. A traceparent with the
//     sampled flag clear makes Root return nil, so a sampled-out
//     request costs exactly one branch at every downstream site.
package tracing

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"io"
	"strings"
	"sync/atomic"
	"time"
)

// DefaultCapacity is the span-ring size binaries use unless told
// otherwise: large enough to hold every span of a full fig8 fleet
// batch with room to spare, small enough (~a few hundred KB of
// pointers plus live spans) to forget about.
const DefaultCapacity = 4096

// idSource is the per-process randomness the ID generators mix with a
// counter: one crypto/rand read at init, then allocation-free,
// syscall-free IDs. Two processes collide only if their 24 random
// bytes do.
var idSource struct {
	traceHi, traceLo uint64
	span             uint64
	ctr              atomic.Uint64
}

func init() {
	var b [24]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Fall back to the clock; IDs stay unique within the process.
		binary.LittleEndian.PutUint64(b[:8], uint64(time.Now().UnixNano()))
	}
	idSource.traceHi = binary.LittleEndian.Uint64(b[0:8])
	idSource.traceLo = binary.LittleEndian.Uint64(b[8:16])
	idSource.span = binary.LittleEndian.Uint64(b[16:24])
}

func newTraceID() string {
	n := idSource.ctr.Add(1)
	var b [16]byte
	binary.BigEndian.PutUint64(b[0:8], idSource.traceHi^n)
	binary.BigEndian.PutUint64(b[8:16], idSource.traceLo+n)
	return hex.EncodeToString(b[:])
}

func newSpanID() string {
	n := idSource.ctr.Add(1)
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], idSource.span^(n*0x9e3779b97f4a7c15))
	return hex.EncodeToString(b[:])
}

// ParseTraceparent splits a W3C traceparent header into trace ID,
// parent span ID, and the sampled flag (bit 0 of the flags byte). ok
// is false for anything malformed — a field that is not lowercase hex,
// or an all-zero trace or parent ID — and the caller then starts a
// fresh trace.
func ParseTraceparent(h string) (traceID, spanID string, sampled, ok bool) {
	// "00-" + 32 + "-" + 16 + "-" + 2
	if len(h) != 55 || h[:3] != "00-" || h[35] != '-' || h[52] != '-' {
		return "", "", false, false
	}
	traceID, spanID, flags := h[3:35], h[36:52], h[53:55]
	if !isHexID(traceID) || !isHexID(spanID) || !isHex(flags) {
		return "", "", false, false
	}
	// Bit 0 of the flags byte is set exactly when its low hex digit is odd.
	return traceID, spanID, strings.IndexByte("13579bdf", flags[1]) >= 0, true
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// isHexID reports whether s is lowercase hex and not all zeros, which
// W3C Trace Context reserves as invalid.
func isHexID(s string) bool {
	return isHex(s) && strings.Trim(s, "0") != ""
}

// Tracer is one process's span factory and collector. Zero-config:
// New(service, capacity) and go. A nil Tracer is valid and free.
type Tracer struct {
	service string
	ring    []atomic.Pointer[Span]
	mask    uint64
	pos     atomic.Uint64
	dropped atomic.Int64
}

// New builds a tracer for a named service ("hidisc-serve",
// "hidisc-coord") with a ring of at least capacity finished spans
// (rounded up to a power of two; <= 0 picks DefaultCapacity).
func New(service string, capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &Tracer{service: service, ring: make([]atomic.Pointer[Span], n), mask: uint64(n - 1)}
}

// Service names the tracer's process ("" on a nil tracer).
func (t *Tracer) Service() string {
	if t == nil {
		return ""
	}
	return t.service
}

// Root starts a request-root span, adopting the caller's traceparent
// when one is supplied (the span becomes a child of the remote span)
// and minting a fresh trace otherwise. A traceparent whose sampled
// flag is clear returns nil — the whole request then costs one branch
// per instrumentation site and nothing else.
func (t *Tracer) Root(name, traceparent, requestID string) *Span {
	if t == nil {
		return nil
	}
	s := &Span{
		tracer:    t,
		Name:      name,
		Service:   t.service,
		RequestID: requestID,
		SpanID:    newSpanID(),
	}
	if tid, pid, sampled, ok := ParseTraceparent(traceparent); ok {
		if !sampled {
			return nil
		}
		s.TraceID, s.ParentID = tid, pid
	} else {
		s.TraceID = newTraceID()
	}
	s.start = time.Now()
	s.StartUnixNs = s.start.UnixNano()
	return s
}

// publish commits a finished span to the ring, overwriting the oldest
// entry once full.
func (t *Tracer) publish(s *Span) {
	i := t.pos.Add(1) - 1
	if old := t.ring[i&t.mask].Swap(s); old != nil {
		t.dropped.Add(1)
	}
}

// Dropped counts spans evicted by ring wrap-around.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// Spans snapshots the finished spans currently in the ring, oldest
// first, optionally filtered by request ID ("" keeps everything). The
// snapshot is best-effort under concurrent publishing — exactly what a
// debugging endpoint wants.
func (t *Tracer) Spans(requestID string) []*Span {
	if t == nil {
		return nil
	}
	n := t.pos.Load()
	size := uint64(len(t.ring))
	start := uint64(0)
	if n > size {
		start = n - size
	}
	out := make([]*Span, 0, min(n-start, size))
	for i := start; i < n; i++ {
		s := t.ring[i&t.mask].Load()
		if s == nil {
			continue
		}
		if requestID != "" && s.RequestID != requestID {
			continue
		}
		out = append(out, s)
	}
	return out
}

// WriteNDJSON dumps the ring as one JSON object per line — the
// GET /v1/traces wire format on both the worker and the coordinator.
func (t *Tracer) WriteNDJSON(w io.Writer, requestID string) error {
	enc := json.NewEncoder(w)
	for _, s := range t.Spans(requestID) {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// Span is one timed operation. Exported fields are the wire shape
// (NDJSON on /v1/traces, decoded by the coordinator's assembler);
// they must not be mutated after End.
type Span struct {
	TraceID   string `json:"traceId"`
	SpanID    string `json:"spanId"`
	ParentID  string `json:"parentId,omitempty"`
	Name      string `json:"name"`
	Service   string `json:"service"`
	RequestID string `json:"requestId,omitempty"`
	// Track groups spans onto one Perfetto row ("" = the request
	// track); batch handlers put each job index on its own track so
	// concurrent jobs don't interleave visually.
	Track string `json:"track,omitempty"`
	// StartUnixNs anchors the span on the wall clock (for cross-process
	// alignment); DurationNs is measured on the monotonic clock.
	StartUnixNs int64             `json:"startUnixNs"`
	DurationNs  int64             `json:"durationNs"`
	Attrs       map[string]string `json:"attrs,omitempty"`
	// Machine, when set, is a complete machine-telemetry Perfetto
	// document captured under this (simulate) span — the payload the
	// assembler splices below the HTTP span tree.
	Machine json.RawMessage `json:"machine,omitempty"`

	tracer *Tracer
	start  time.Time
	// ended is CAS-guarded (0→1) by End; a plain int32 (not
	// atomic.Bool) so decoded Span values stay copyable — the
	// coordinator's assembler passes wire-decoded spans by value.
	ended int32
}

// Child starts a span under s (nil-safe: a nil receiver returns nil,
// so an untraced request costs one branch here).
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{
		tracer:    s.tracer,
		Name:      name,
		Service:   s.Service,
		RequestID: s.RequestID,
		TraceID:   s.TraceID,
		ParentID:  s.SpanID,
		SpanID:    newSpanID(),
		Track:     s.Track,
	}
	c.start = time.Now()
	c.StartUnixNs = c.start.UnixNano()
	return c
}

// SetAttr attaches a key/value to the span (nil-safe; call before End).
func (s *Span) SetAttr(k, v string) {
	if s == nil {
		return
	}
	if s.Attrs == nil {
		s.Attrs = make(map[string]string, 4)
	}
	s.Attrs[k] = v
}

// SetTrack names the Perfetto row this span (and its children, via
// Child's inheritance) renders on.
func (s *Span) SetTrack(track string) {
	if s == nil {
		return
	}
	s.Track = track
}

// SetMachine attaches a machine-telemetry Perfetto document.
func (s *Span) SetMachine(doc []byte) {
	if s == nil {
		return
	}
	s.Machine = doc
}

// End stamps the monotonic duration and publishes the span to its
// tracer's ring. Idempotent; nil-safe.
func (s *Span) End() {
	if s == nil || !atomic.CompareAndSwapInt32(&s.ended, 0, 1) {
		return
	}
	s.DurationNs = int64(time.Since(s.start))
	s.tracer.publish(s)
}

// Duration returns the span's measured duration (0 before End or on
// nil).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	return time.Duration(s.DurationNs)
}

// Traceparent renders the span's propagation header, always sampled
// ("" on nil — callers guard with the same one branch as everything
// else).
func (s *Span) Traceparent() string {
	if s == nil {
		return ""
	}
	return "00-" + s.TraceID + "-" + s.SpanID + "-01"
}

// --- context plumbing ---

type ctxKey int

const ctxKeySpan ctxKey = iota

// ContextWithSpan attaches a span to ctx (returns ctx unchanged for a
// nil span, so untraced paths never allocate a context node).
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKeySpan, s)
}

// SpanFrom returns the span attached to ctx, or nil.
func SpanFrom(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKeySpan).(*Span)
	return s
}
