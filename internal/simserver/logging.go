package simserver

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"strconv"
	"time"

	"hidisc/internal/tracing"
)

// ctxKey is the private context-key namespace.
type ctxKey int

const ctxKeyRequestID ctxKey = iota

// RequestIDFrom returns the request ID the observability middleware
// assigned, or "" outside a request context.
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(ctxKeyRequestID).(string)
	return id
}

// ContextWithRequestID attaches a request ID to ctx. simclient sends
// a context's ID as the X-Request-Id header, so a job the coordinator
// forwards logs under one ID on both hops.
func ContextWithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, ctxKeyRequestID, id)
}

// statusWriter captures the response status for the access log while
// forwarding the Flusher capability the batch NDJSON stream needs.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// tracedPath limits span creation to the data plane: tracing the
// trace/metrics/health endpoints themselves would fill the ring with
// scrape noise.
func tracedPath(p string) bool { return p == "/v1/jobs" || p == "/v1/batch" }

// withObservability assigns each request an ID — returned in the
// X-Request-Id header, threaded through the context into job execution
// and error bodies — and emits one structured access-log line per
// request. A request that already carries an X-Request-Id (one a
// coordinator assigned before forwarding) keeps it, so the fleet's
// logs correlate end to end; a minted ID starts with the role's prefix.
//
// With tracing configured it also opens the request-root span,
// adopting the caller's traceparent header — a job forwarded by the
// coordinator parents its worker-side span tree under the coordinator
// attempt that sent it. Without a tracer (or for a sampled-out
// traceparent) span is nil and every downstream site costs one branch.
func (f *Front) withObservability(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-Id")
		if id == "" {
			id = fmt.Sprintf("%s%08d", f.role.IDPrefix, f.reqSeq.Add(1))
		}
		// The key is in canonical form already; Header.Set would
		// re-check it on every request.
		w.Header()["X-Request-Id"] = []string{id}
		ctx := ContextWithRequestID(r.Context(), id)
		var span *tracing.Span
		if tracedPath(r.URL.Path) {
			span = f.tracer.Root(f.role.SpanPrefix+" "+r.Method+" "+r.URL.Path, r.Header.Get("traceparent"), id)
			ctx = tracing.ContextWithSpan(ctx, span)
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		t0 := time.Now()
		next.ServeHTTP(sw, r.WithContext(ctx))
		span.SetAttr("status", strconv.Itoa(sw.status))
		span.End()
		if span != nil && f.role.Traced != nil {
			go f.role.Traced(id)
		}
		if f.logger.Enabled(r.Context(), slog.LevelInfo) {
			f.logger.LogAttrs(r.Context(), slog.LevelInfo, "request",
				slog.String("requestId", id),
				slog.String("method", r.Method),
				slog.String("path", r.URL.Path),
				slog.Int("status", sw.status),
				slog.Duration("duration", time.Since(t0).Round(time.Microsecond)),
			)
		}
	})
}

// discardHandler is the handler of a front built without a logger:
// enabled at no level, so nothing is formatted. (slog.DiscardHandler
// needs a newer toolchain than go.mod promises.)
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (h discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return h }
func (h discardHandler) WithGroup(string) slog.Handler           { return h }
