package tracing

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	tr := New("svc", 16)
	root := tr.Root("req", "", "req-1")
	if root == nil {
		t.Fatal("Root returned nil without an incoming traceparent")
	}
	h := root.Traceparent()
	tid, sid, sampled, ok := ParseTraceparent(h)
	if !ok || !sampled {
		t.Fatalf("own header %q did not parse as sampled", h)
	}
	if tid != root.TraceID || sid != root.SpanID {
		t.Fatalf("parse mismatch: got %s/%s, want %s/%s", tid, sid, root.TraceID, root.SpanID)
	}

	// A downstream root adopting the header becomes a child in the same
	// trace.
	down := New("svc2", 16).Root("req", h, "req-1")
	if down.TraceID != root.TraceID {
		t.Errorf("adopted trace %s, want %s", down.TraceID, root.TraceID)
	}
	if down.ParentID != root.SpanID {
		t.Errorf("adopted parent %s, want %s", down.ParentID, root.SpanID)
	}
}

func TestParseTraceparentRejectsMalformed(t *testing.T) {
	for _, h := range []string{
		"",
		"00-abc-def-01",
		"01-0123456789abcdef0123456789abcdef-0123456789abcdef-01", // wrong version
		"00-0123456789ABCDEF0123456789abcdef-0123456789abcdef-01", // uppercase
		"00-0123456789abcdef0123456789abcdef+0123456789abcdef-01", // bad separator
		"00-0123456789abcdef0123456789abcdef-0123456789abcdeg-01", // non-hex
		"00-0123456789abcdef0123456789abcdef-0123456789abcdef-zz", // non-hex flags
		"00-0123456789abcdef0123456789abcdef-0123456789abcdef-0Z", // non-hex flags
		"00-0123456789abcdef0123456789abcdef-0123456789abcdef-0A", // uppercase flags
		"00-00000000000000000000000000000000-0123456789abcdef-01", // all-zero trace ID
		"00-0123456789abcdef0123456789abcdef-0000000000000000-01", // all-zero parent ID
	} {
		if _, _, _, ok := ParseTraceparent(h); ok {
			t.Errorf("ParseTraceparent(%q) accepted", h)
		}
	}
	// Only bit 0 of the flags byte means sampled.
	for flags, want := range map[string]bool{"00": false, "01": true, "02": false, "03": true, "0a": false, "0b": true, "ff": true, "fe": false} {
		h := "00-0123456789abcdef0123456789abcdef-0123456789abcdef-" + flags
		if _, _, sampled, ok := ParseTraceparent(h); !ok || sampled != want {
			t.Errorf("ParseTraceparent(%q) = sampled %v, ok %v; want sampled %v, ok true", h, sampled, ok, want)
		}
	}
}

// FuzzTraceparent feeds arbitrary headers to the parser: it must never
// panic, and an accepted header must have lowercase-hex, non-zero IDs
// and hex flags, rebuild byte for byte from its parts, and be sampled
// exactly when bit 0 of its flags is set.
func FuzzTraceparent(f *testing.F) {
	for _, h := range []string{
		"00-0123456789abcdef0123456789abcdef-0123456789abcdef-01",
		"00-0123456789abcdef0123456789abcdef-0123456789abcdef-02",
		"00-00000000000000000000000000000000-0123456789abcdef-01",
		"00-0123456789abcdef0123456789abcdef-0123456789abcdef-zz",
		"",
	} {
		f.Add(h)
	}
	f.Fuzz(func(t *testing.T, h string) {
		tid, sid, sampled, ok := ParseTraceparent(h)
		if !ok {
			if tid != "" || sid != "" || sampled {
				t.Fatalf("rejected %q but returned %q, %q, %v", h, tid, sid, sampled)
			}
			return
		}
		for _, id := range []string{tid, sid} {
			if strings.Trim(id, "0123456789abcdef") != "" || strings.Trim(id, "0") == "" {
				t.Fatalf("accepted %q with ID %q", h, id)
			}
		}
		if len(tid) != 32 || len(sid) != 16 {
			t.Fatalf("accepted %q with IDs of length %d and %d", h, len(tid), len(sid))
		}
		flags := h[len(h)-2:]
		b, err := strconv.ParseUint(flags, 16, 8)
		if err != nil || strings.ToLower(flags) != flags {
			t.Fatalf("accepted %q with flags %q", h, flags)
		}
		if rebuilt := "00-" + tid + "-" + sid + "-" + flags; rebuilt != h {
			t.Fatalf("accepted %q, which rebuilds as %q", h, rebuilt)
		}
		if sampled != (b&1 == 1) {
			t.Fatalf("%q: sampled %v, flags %#x", h, sampled, b)
		}
	})
}

func TestSampledOutReturnsNil(t *testing.T) {
	tr := New("svc", 16)
	h := "00-0123456789abcdef0123456789abcdef-0123456789abcdef-00"
	if s := tr.Root("req", h, "x"); s != nil {
		t.Fatalf("unsampled traceparent produced a span: %+v", s)
	}
}

func TestSpanTreeAndRing(t *testing.T) {
	tr := New("svc", 64)
	root := tr.Root("request", "", "req-7")
	c1 := root.Child("cache")
	c1.SetAttr("hit", "false")
	c1.End()
	c2 := root.Child("simulate")
	time.Sleep(time.Millisecond)
	c2.End()
	root.End()
	root.End() // idempotent

	spans := tr.Spans("req-7")
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	byID := map[string]*Span{}
	for _, s := range spans {
		byID[s.SpanID] = s
	}
	for _, s := range spans {
		if s.TraceID != root.TraceID {
			t.Errorf("span %s in trace %s, want %s", s.Name, s.TraceID, root.TraceID)
		}
		if s.ParentID != "" && byID[s.ParentID] == nil && s.ParentID != root.ParentID {
			t.Errorf("span %s orphaned (parent %s)", s.Name, s.ParentID)
		}
	}
	if byID[c2.SpanID].DurationNs <= 0 {
		t.Error("simulate span has no duration")
	}
	if got := tr.Spans("other-request"); len(got) != 0 {
		t.Errorf("filter leaked %d spans", len(got))
	}
}

func TestRingEviction(t *testing.T) {
	tr := New("svc", 8) // rounds to 8
	for i := 0; i < 20; i++ {
		s := tr.Root("r", "", fmt.Sprintf("req-%d", i))
		s.End()
	}
	spans := tr.Spans("")
	if len(spans) != 8 {
		t.Fatalf("ring holds %d spans, want 8", len(spans))
	}
	// Oldest-first: the survivors are the last 8 published.
	if spans[0].RequestID != "req-12" || spans[7].RequestID != "req-19" {
		t.Errorf("ring window [%s .. %s], want [req-12 .. req-19]", spans[0].RequestID, spans[7].RequestID)
	}
	if tr.Dropped() != 12 {
		t.Errorf("dropped = %d, want 12", tr.Dropped())
	}
}

func TestConcurrentPublishAndDump(t *testing.T) {
	tr := New("svc", 128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s := tr.Root("r", "", "rq")
				s.Child("c").End()
				s.End()
				if i%32 == 0 {
					tr.Spans("")
				}
			}
		}(g)
	}
	wg.Wait()
	for _, s := range tr.Spans("") {
		if s.SpanID == "" || s.TraceID == "" {
			t.Fatal("dump returned an unpublished span")
		}
	}
}

func TestWriteNDJSON(t *testing.T) {
	tr := New("svc", 16)
	s := tr.Root("request", "", "req-9")
	s.SetMachine(json.RawMessage(`{"traceEvents":[]}`))
	s.End()
	var buf bytes.Buffer
	if err := tr.WriteNDJSON(&buf, "req-9"); err != nil {
		t.Fatal(err)
	}
	line := strings.TrimSpace(buf.String())
	var got Span
	if err := json.Unmarshal([]byte(line), &got); err != nil {
		t.Fatalf("NDJSON line undecodable: %v\n%s", err, line)
	}
	if got.Name != "request" || got.RequestID != "req-9" || len(got.Machine) == 0 {
		t.Errorf("round-trip lost fields: %+v", got)
	}
}

// TestNilSafety: every entry point must be a no-op on nil receivers —
// the one-branch cost contract for untraced requests.
func TestNilSafety(t *testing.T) {
	var tr *Tracer
	if s := tr.Root("x", "", ""); s != nil {
		t.Fatal("nil tracer produced a span")
	}
	if tr.Spans("") != nil || tr.Dropped() != 0 || tr.Service() != "" {
		t.Fatal("nil tracer snapshot not empty")
	}
	var s *Span
	s.SetAttr("k", "v")
	s.SetTrack("t")
	s.SetMachine(nil)
	s.End()
	if s.Child("c") != nil {
		t.Fatal("nil span produced a child")
	}
	if s.Traceparent() != "" || s.Duration() != 0 {
		t.Fatal("nil span not zero-valued")
	}
	ctx := ContextWithSpan(context.Background(), nil)
	if ctx != context.Background() {
		t.Fatal("nil span allocated a context node")
	}
	if SpanFrom(ctx) != nil {
		t.Fatal("SpanFrom invented a span")
	}
}

// TestTracingOffAllocs pins the tracing-off fast path at zero
// allocations, the same discipline the telemetry package pins for the
// cycle-level hot loops.
func TestTracingOffAllocs(t *testing.T) {
	var tr *Tracer
	ctx := context.Background()
	if n := testing.AllocsPerRun(100, func() {
		s := SpanFrom(ctx)
		c := s.Child("x")
		c.SetAttr("k", "v")
		c.End()
		_ = tr.Root("x", "", "")
		_ = ContextWithSpan(ctx, nil)
	}); n != 0 {
		t.Fatalf("tracing-off path allocates %v per run, want 0", n)
	}
}
