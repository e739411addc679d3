package simserver_test

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"strings"
	"testing"
	"time"

	"hidisc/internal/machine"
	"hidisc/internal/simserver"
	"hidisc/internal/tracing"
)

func tracedConfig() simserver.Config {
	cfg := testConfig()
	cfg.Tracer = tracing.New("hidisc-serve", 1024)
	return cfg
}

// readTraces fetches GET /v1/traces and decodes the NDJSON stream.
func readTraces(t *testing.T, url, requestID string) []tracing.Span {
	t.Helper()
	u := url + "/v1/traces"
	if requestID != "" {
		u += "?request=" + requestID
	}
	resp, body := get(t, u, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/traces: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "ndjson") {
		t.Errorf("traces Content-Type = %q, want NDJSON", ct)
	}
	var spans []tracing.Span
	dec := json.NewDecoder(strings.NewReader(body))
	for dec.More() {
		var s tracing.Span
		if err := dec.Decode(&s); err != nil {
			t.Fatalf("traces NDJSON: %v", err)
		}
		spans = append(spans, s)
	}
	return spans
}

// spanByName returns the first span with the given name, or nil.
func spanByName(spans []tracing.Span, name string) *tracing.Span {
	for i := range spans {
		if spans[i].Name == name {
			return &spans[i]
		}
	}
	return nil
}

// TestTracesEndpoint runs one job and checks the span tree the ring
// serves: the expected lifecycle spans exist, share one trace, and
// every parent pointer resolves inside the tree (no orphans).
func TestTracesEndpoint(t *testing.T) {
	_, url := rawTestServer(t, tracedConfig())

	resp := postJob(t, url, simserver.JobRequest{Workload: "Pointer", Arch: machine.HiDISC})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("job: HTTP %d", resp.StatusCode)
	}
	id := resp.Header.Get("X-Request-Id")

	spans := readTraces(t, url, id)
	root := spanByName(spans, "serve POST /v1/jobs")
	if root == nil {
		t.Fatalf("no request-root span for %s in %d spans", id, len(spans))
	}
	byID := map[string]bool{}
	for _, s := range spans {
		byID[s.SpanID] = true
	}
	for _, name := range []string{"serve.cache.lookup", "serve.flight", "serve.queue.wait", "serve.simulate"} {
		s := spanByName(spans, name)
		if s == nil {
			t.Errorf("missing %s span", name)
			continue
		}
		if s.TraceID != root.TraceID {
			t.Errorf("%s in trace %s, want %s", name, s.TraceID, root.TraceID)
		}
		if s.ParentID == "" || !byID[s.ParentID] {
			t.Errorf("%s orphaned: parent %q not in tree", name, s.ParentID)
		}
		if s.DurationNs < 0 {
			t.Errorf("%s duration %d < 0", name, s.DurationNs)
		}
	}
	// The filter must actually filter.
	if others := readTraces(t, url, "no-such-request"); len(others) != 0 {
		t.Errorf("filter leaked %d spans", len(others))
	}

	// A cached repeat produces a hit-tagged cache span and no simulate.
	resp2 := postJob(t, url, simserver.JobRequest{Workload: "Pointer", Arch: machine.HiDISC})
	id2 := resp2.Header.Get("X-Request-Id")
	spans2 := readTraces(t, url, id2)
	if cs := spanByName(spans2, "serve.cache.lookup"); cs == nil || cs.Attrs["hit"] != "true" {
		t.Errorf("cached repeat: cache span %+v, want hit=true", cs)
	}
	if spanByName(spans2, "serve.simulate") != nil {
		t.Error("cached repeat ran a simulate span")
	}
}

// TestSlowJobLogMatchesTraces pins the satellite contract: the slow-job
// warning's per-stage durations are read from the spans themselves, so
// the log line and GET /v1/traces agree exactly.
func TestSlowJobLogMatchesTraces(t *testing.T) {
	var logBuf bytes.Buffer
	cfg := tracedConfig()
	cfg.Logger = slog.New(slog.NewJSONHandler(&logBuf, nil))
	cfg.SlowJob = time.Nanosecond // everything is slow
	_, url := rawTestServer(t, cfg)

	resp := postJob(t, url, simserver.JobRequest{Workload: "Pointer", Arch: machine.CPAP})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("job: HTTP %d", resp.StatusCode)
	}
	id := resp.Header.Get("X-Request-Id")

	var warn map[string]any
	for _, line := range strings.Split(logBuf.String(), "\n") {
		if !strings.Contains(line, `"msg":"slow job"`) {
			continue
		}
		if err := json.Unmarshal([]byte(line), &warn); err != nil {
			t.Fatalf("slow-job line undecodable: %v\n%s", err, line)
		}
		break
	}
	if warn == nil {
		t.Fatalf("no slow-job warning logged:\n%s", logBuf.String())
	}
	if warn["requestId"] != id {
		t.Errorf("slow-job requestId %v, want %s", warn["requestId"], id)
	}

	spans := readTraces(t, url, id)
	for logKey, spanName := range map[string]string{
		"queueWaitNs":   "serve.queue.wait",
		"cacheLookupNs": "serve.cache.lookup",
		"simulateNs":    "serve.simulate",
	} {
		s := spanByName(spans, spanName)
		if s == nil {
			t.Errorf("no %s span", spanName)
			continue
		}
		got, ok := warn[logKey].(float64)
		if !ok {
			t.Errorf("slow-job line missing %s", logKey)
			continue
		}
		if int64(got) != s.DurationNs {
			t.Errorf("%s = %d in log, %d in trace — must agree exactly", logKey, int64(got), s.DurationNs)
		}
	}
	// No store configured: the store stages must report zero.
	for _, k := range []string{"storeReadNs", "storeAppendNs"} {
		if v, _ := warn[k].(float64); v != 0 {
			t.Errorf("%s = %v without a store, want 0", k, v)
		}
	}
}

// TestMachineTraceBitIdentity pins the PR 5 contract at the service
// layer: a job simulated with machine-telemetry capture returns a
// measurement byte-identical to the same job without it, and the
// capture lands on the simulate span as a complete Perfetto document
// carrying the span's own ids.
func TestMachineTraceBitIdentity(t *testing.T) {
	job := simserver.JobRequest{Workload: "Pointer", Arch: machine.HiDISC}

	// Plain server: no tracing at all.
	_, plainURL := rawTestServer(t, testConfig())
	plain := postJob(t, plainURL, job)
	var plainResp simserver.JobResponse
	if err := json.NewDecoder(plain.Body).Decode(&plainResp); err != nil {
		t.Fatal(err)
	}

	// Traced server with machine capture on.
	cfg := tracedConfig()
	cfg.MachineTrace = true
	_, tracedURL := rawTestServer(t, cfg)
	traced := postJob(t, tracedURL, job)
	var tracedResp simserver.JobResponse
	if err := json.NewDecoder(traced.Body).Decode(&tracedResp); err != nil {
		t.Fatal(err)
	}

	if !bytes.Equal(plainResp.Measurement, tracedResp.Measurement) {
		t.Errorf("measurement differs with machine capture on:\noff: %s\non:  %s",
			plainResp.Measurement, tracedResp.Measurement)
	}
	if plainResp.Key != tracedResp.Key {
		t.Errorf("job key differs: %s vs %s", plainResp.Key, tracedResp.Key)
	}

	id := traced.Header.Get("X-Request-Id")
	ssp := spanByName(readTraces(t, tracedURL, id), "serve.simulate")
	if ssp == nil {
		t.Fatal("no simulate span")
	}
	if len(ssp.Machine) == 0 {
		t.Fatal("simulate span carries no machine document")
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(ssp.Machine, &doc); err != nil {
		t.Fatalf("machine document invalid: %v", err)
	}
	found := false
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "M" && ev["name"] == "span_context" {
			args, _ := ev["args"].(map[string]any)
			if args["traceId"] != ssp.TraceID || args["spanId"] != ssp.SpanID {
				t.Errorf("span_context %v, want trace %s span %s", args, ssp.TraceID, ssp.SpanID)
			}
			found = true
		}
	}
	if !found {
		t.Error("machine document has no span_context metadata event")
	}
}

// TestTracingOffNoSpans pins the off state: a server without a tracer
// serves an empty /v1/traces body and still answers jobs normally.
func TestTracingOffNoSpans(t *testing.T) {
	_, url := rawTestServer(t, testConfig())
	resp := postJob(t, url, simserver.JobRequest{Workload: "Pointer", Arch: machine.HiDISC})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("job: HTTP %d", resp.StatusCode)
	}
	if spans := readTraces(t, url, ""); len(spans) != 0 {
		t.Errorf("tracing off but %d spans served", len(spans))
	}
}
