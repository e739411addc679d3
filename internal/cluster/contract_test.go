package cluster_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"hidisc/internal/cluster"
	"hidisc/internal/resultstore"
	"hidisc/internal/simserver"
	"hidisc/internal/tracing"
	"hidisc/internal/workloads"
)

// contractFleet is one worker and a coordinator routing to it alone,
// both traced, so the same request can be sent to either and the two
// answers compared.
type contractFleet struct {
	worker      *simserver.Server
	workerURL   string
	workerTrace *tracing.Tracer
	coord       *cluster.Coordinator
	coordURL    string
	coordTrace  *tracing.Tracer
}

// startContractFleet starts a worker of the given admission shape
// (workers run slots plus queue) and a coordinator that knows only it.
// The heartbeat cadence is long enough that no test outlives the TTL.
func startContractFleet(t *testing.T, workers, queue int, store *resultstore.Store) *contractFleet {
	t.Helper()
	f := &contractFleet{
		workerTrace: tracing.New("hidisc-serve", 1024),
		coordTrace:  tracing.New("hidisc-coord", 1024),
	}
	cfg := simserver.DefaultConfig(workloads.ScaleTest)
	cfg.Workers, cfg.Queue = workers, queue
	cfg.Tracer = f.workerTrace
	cfg.Store = store
	f.worker = simserver.New(cfg)
	wts := httptest.NewServer(f.worker.Handler())
	t.Cleanup(func() {
		wts.Close()
		_ = f.worker.CloseStore()
	})
	f.workerURL = wts.URL
	co, cts := startCluster(t, cluster.Config{HeartbeatInterval: time.Minute, Tracer: f.coordTrace})
	f.coord, f.coordURL = co, cts.URL
	register(t, cts.URL, wts.URL, workers, queue)
	return f
}

// wireAnswer is the part of a response the contract compares.
type wireAnswer struct {
	status     int
	kind       string
	message    string
	retryAfter bool
	requestID  string // the X-Request-Id response header
	bodyID     string // the requestId an error body echoes
}

// send posts body to url+path with the given headers. For a batch that
// streams, the answer is the first NDJSON item's error (a per-job
// failure rides inside a 200 stream).
func send(t *testing.T, url, path, body string, header map[string]string) wireAnswer {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range header {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	a := wireAnswer{
		status:     resp.StatusCode,
		retryAfter: resp.Header.Get("Retry-After") != "",
		requestID:  resp.Header.Get("X-Request-Id"),
	}
	switch {
	case resp.StatusCode != http.StatusOK:
		var eb simserver.ErrorBody
		if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
			t.Fatalf("%s%s: HTTP %d with undecodable error body: %v", url, path, resp.StatusCode, err)
		}
		a.kind, a.message, a.bodyID = eb.Err.Kind, eb.Err.Message, eb.Err.RequestID
	case path == "/v1/batch":
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(nil, 1<<22)
		for sc.Scan() {
			var it simserver.BatchItem
			if err := json.Unmarshal(sc.Bytes(), &it); err != nil {
				t.Fatal(err)
			}
			if it.Index == 0 && it.Error != nil {
				a.status, a.kind, a.message, a.bodyID = it.Error.Status, it.Error.Kind, it.Error.Message, it.Error.RequestID
			}
		}
	}
	return a
}

const (
	contractJob       = `{"workload":"Pointer","arch":"hidisc"}`
	contractParent    = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	contractTraceID   = "4bf92f3577b34da6a3ce929d0e0e4736"
	contractParentID  = "00f067aa0ba902b7"
	contractRequestID = "client-42"
)

// TestWireContract sends the same requests to a worker and to a
// coordinator in front of it and requires the same answer: status,
// error kind, message and Retry-After presence. Each role mints its
// own request-ID prefix ("req-" for a worker, "co-" for a coordinator)
// and names itself in messages ("server", "coordinator"); nothing else
// may differ.
func TestWireContract(t *testing.T) {
	rows := []struct {
		name   string
		path   string
		body   string
		header map[string]string
		drain  bool
		status int
		kind   string
		// workers and queue shape the worker's admission (default 2+4).
		workers, queue int
	}{
		{name: "job bad scale", path: "/v1/jobs", body: `{"workload":"Pointer","arch":"hidisc","scale":"huge"}`, status: 400, kind: simserver.KindBadRequest},
		{name: "job unknown workload", path: "/v1/jobs", body: `{"workload":"no-such-workload","arch":"hidisc"}`, status: 400, kind: simserver.KindBadRequest},
		{name: "job unknown field", path: "/v1/jobs", body: `{"workload":"Pointer","arch":"hidisc","colour":"red"}`, status: 400, kind: simserver.KindBadRequest},
		{name: "job truncated JSON", path: "/v1/jobs", body: `{"workload":"Poin`, status: 400, kind: simserver.KindBadRequest},
		{name: "batch empty", path: "/v1/batch", body: `{"jobs":[]}`, status: 400, kind: simserver.KindBadRequest},
		{name: "batch matrix plus jobs", path: "/v1/batch", body: `{"matrix":"fig8","jobs":[` + contractJob + `]}`, status: 400, kind: simserver.KindBadRequest},
		{name: "batch per-job bad scale", path: "/v1/batch", body: `{"jobs":[{"workload":"Pointer","arch":"hidisc","scale":"huge"}]}`, status: 400, kind: simserver.KindBadRequest},
		{name: "batch over capacity", path: "/v1/batch", body: `{"jobs":[` + contractJob + `,` + contractJob + `,` + contractJob + `]}`, status: 400, kind: simserver.KindBadRequest, workers: 1, queue: 1},
		{name: "drain", path: "/v1/jobs", body: contractJob, drain: true, status: 503, kind: simserver.KindDraining},
		{name: "request ID adopted", path: "/v1/jobs", body: contractJob, header: map[string]string{"X-Request-Id": contractRequestID}, status: 200},
		{name: "traceparent adopted", path: "/v1/jobs", body: contractJob, header: map[string]string{"traceparent": contractParent}, status: 200},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			workers, queue := row.workers, row.queue
			if workers == 0 {
				workers, queue = 2, 4
			}
			f := startContractFleet(t, workers, queue, nil)
			if row.drain {
				f.worker.StartDraining()
				f.coord.StartDraining()
			}
			w := send(t, f.workerURL, row.path, row.body, row.header)
			c := send(t, f.coordURL, row.path, row.body, row.header)
			if w.status != row.status || w.kind != row.kind {
				t.Fatalf("worker answered %d %q (%s), want %d %q", w.status, w.kind, w.message, row.status, row.kind)
			}
			if c.status != w.status || c.kind != w.kind || c.retryAfter != w.retryAfter {
				t.Errorf("coordinator answered %d %q Retry-After=%v, worker %d %q Retry-After=%v",
					c.status, c.kind, c.retryAfter, w.status, w.kind, w.retryAfter)
			}
			if got := strings.Replace(c.message, "coordinator", "server", 1); got != w.message {
				t.Errorf("coordinator message %q, worker %q", c.message, w.message)
			}

			wantW, wantC := "req-", "co-"
			if id := row.header["X-Request-Id"]; id != "" {
				wantW, wantC = id, id
			}
			for _, a := range []struct {
				role string
				got  wireAnswer
				want string
			}{{"worker", w, wantW}, {"coordinator", c, wantC}} {
				if !strings.HasPrefix(a.got.requestID, a.want) {
					t.Errorf("%s X-Request-Id %q, want prefix %q", a.role, a.got.requestID, a.want)
				}
				if a.got.bodyID != "" && a.got.bodyID != a.got.requestID {
					t.Errorf("%s error body requestId %q, header %q", a.role, a.got.bodyID, a.got.requestID)
				}
			}

			if row.header["traceparent"] != "" {
				requireAdoptedRoot(t, f.workerTrace, w.requestID, "serve POST /v1/jobs")
				requireAdoptedRoot(t, f.coordTrace, c.requestID, "coord POST /v1/jobs")
			}
		})
	}
}

// requireAdoptedRoot waits for the request's root span (it ends just
// after the response is written) and requires it to continue the
// caller's trace under the caller's span.
func requireAdoptedRoot(t *testing.T, tr *tracing.Tracer, requestID, name string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for _, s := range tr.Spans(requestID) {
			if s.Name != name {
				continue
			}
			if s.TraceID != contractTraceID || s.ParentID != contractParentID {
				t.Errorf("%s: trace %s parent %s, want %s under %s", name, s.TraceID, s.ParentID, contractTraceID, contractParentID)
			}
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Errorf("no %q span for request %s", name, requestID)
}

// promVolatile matches the samples whose values depend on the host or
// the clock: uptimes, the coordinator's uptime-derived rate, the Go
// runtime gauges, and histogram sums and buckets.
var promVolatile = regexp.MustCompile(`^(hidisc_uptime_seconds|hidisc_coord_uptime_seconds|hidisc_coord_jobs_per_sec|hidisc_go_\w+|\w+_sum|\w+_bucket\{[^}]*\}) `)

// normaliseProm replaces volatile sample values with "X" and the
// worker's ephemeral URL with "WORKER".
func normaliseProm(text, workerURL string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(text, "\n") {
		line = strings.ReplaceAll(line, workerURL, "WORKER")
		if m := promVolatile.FindString(line); m != "" {
			line = m + "X\n"
		}
		b.WriteString(line)
	}
	return b.String()
}

// scrapeProm fetches a Prometheus exposition the way a scraper asks
// for one.
func scrapeProm(t *testing.T, url string) string {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/plain")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("%s/metrics Content-Type %q, want the text exposition", url, ct)
	}
	return buf.String()
}

// TestPrometheusGolden pins both Prometheus expositions — metric
// names, HELP and TYPE lines, order and every deterministic sample —
// after a fixed job sequence through a coordinator and its one
// store-backed worker: a simulation, its cache hit, a job that fails,
// and a batch of one hit and one new simulation. Regenerate with
// HIDISC_UPDATE_GOLDEN=1 go test -run TestPrometheusGolden ./internal/cluster.
func TestPrometheusGolden(t *testing.T) {
	st, _, err := resultstore.Open(t.TempDir(), resultstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	f := startContractFleet(t, 2, 4, st)
	for _, step := range []struct {
		path, body string
		status     int
	}{
		{"/v1/jobs", contractJob, 200},
		{"/v1/jobs", contractJob, 200},
		{"/v1/jobs", `{"workload":"no-such-workload","arch":"hidisc"}`, 400},
		{"/v1/batch", `{"jobs":[` + contractJob + `,{"workload":"Pointer","arch":"superscalar"}]}`, 200},
	} {
		if a := send(t, f.coordURL, step.path, step.body, nil); a.status != step.status {
			t.Fatalf("%s %s: HTTP %d (%s), want %d", step.path, step.body, a.status, a.message, step.status)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for (f.worker.InFlight() != 0 || f.coord.InFlight() != 0) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	for _, g := range []struct{ file, url string }{
		{"prom_worker.golden", f.workerURL},
		{"prom_coordinator.golden", f.coordURL},
	} {
		got := normaliseProm(scrapeProm(t, g.url), f.workerURL)
		path := filepath.Join("testdata", g.file)
		if os.Getenv("HIDISC_UPDATE_GOLDEN") != "" {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s: exposition differs from the golden file\n--- got\n%s--- want\n%s", g.file, got, want)
		}
	}
}
