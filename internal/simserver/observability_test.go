package simserver_test

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"hidisc/internal/cluster"
	"hidisc/internal/machine"
	"hidisc/internal/simserver"
	"hidisc/internal/workloads"
)

// rawTestServer exposes the underlying httptest server URL for tests
// that need to craft HTTP requests directly (headers, query params).
func rawTestServer(t *testing.T, cfg simserver.Config) (*simserver.Server, string) {
	t.Helper()
	s := simserver.New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts.URL
}

func postJob(t *testing.T, url string, jr simserver.JobRequest) *http.Response {
	t.Helper()
	body, err := json.Marshal(jr)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func get(t *testing.T, url string, accept string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(data)
}

// promValues parses a Prometheus text exposition into name -> value
// for plain (un-labelled) samples, and name{le="..."} -> value for
// histogram buckets.
func promValues(t *testing.T, text string) map[string]float64 {
	t.Helper()
	vals := make(map[string]float64)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, value, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("unparseable exposition line %q", line)
		}
		v, err := strconv.ParseFloat(value, 64)
		if err != nil {
			t.Fatalf("sample %q: bad value: %v", line, err)
		}
		vals[name] = v
	}
	return vals
}

// TestMetricsContentNegotiation runs a real job and checks the two
// /metrics views against each other: the Prometheus counters must
// equal the JSON snapshot's, and the job-latency histogram must be
// present, internally consistent, and reflect the executed job.
func TestMetricsContentNegotiation(t *testing.T) {
	_, url := rawTestServer(t, testConfig())

	resp := postJob(t, url, simserver.JobRequest{Workload: "Pointer", Arch: machine.CPAP})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("job submission: HTTP %d", resp.StatusCode)
	}

	jresp, jbody := get(t, url+"/metrics", "")
	if ct := jresp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Errorf("default /metrics Content-Type = %q, want JSON", ct)
	}
	var snap simserver.MetricsSnapshot
	if err := json.Unmarshal([]byte(jbody), &snap); err != nil {
		t.Fatalf("JSON metrics: %v", err)
	}

	presp, pbody := get(t, url+"/metrics", "text/plain")
	if ct := presp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("prom /metrics Content-Type = %q, want text/plain; version=0.0.4", ct)
	}
	_, qbody := get(t, url+"/metrics?format=prom", "")

	for _, body := range []string{pbody, qbody} {
		vals := promValues(t, body)
		// Counter parity between the two views. The snapshot is taken
		// after the prom fetch, but all counters are settled: the one
		// job completed before the first /metrics request.
		counters := map[string]int64{
			"hidisc_jobs_accepted_total":   snap.Accepted,
			"hidisc_jobs_rejected_total":   snap.Rejected,
			"hidisc_jobs_deduped_total":    snap.Deduped,
			"hidisc_jobs_cache_hits_total": snap.CacheHits,
			"hidisc_jobs_completed_total":  snap.Completed,
			"hidisc_jobs_failed_total":     snap.Failed,
			"hidisc_sim_cycles_total":      snap.SimCycles,
			"hidisc_sim_insts_total":       snap.SimInsts,
			"hidisc_jobs_in_flight":        snap.InFlight,

			"hidisc_store_hits_total":              snap.Store.Hits,
			"hidisc_store_misses_total":            snap.Store.Misses,
			"hidisc_store_appends_total":           snap.Store.Puts,
			"hidisc_store_errors_total":            snap.Store.Errors,
			"hidisc_store_recovered_records_total": int64(snap.Store.RecoveredRecords),
			"hidisc_store_records":                 int64(snap.Store.Records),
		}
		for name, want := range counters {
			got, ok := vals[name]
			if !ok {
				t.Errorf("prom view missing %s", name)
				continue
			}
			if int64(got) != want {
				t.Errorf("%s = %v, want %d (JSON view)", name, got, want)
			}
		}
		if snap.Completed != 1 || snap.SimCycles == 0 {
			t.Errorf("snapshot Completed=%d SimCycles=%d after one job", snap.Completed, snap.SimCycles)
		}
		// Histogram presence and internal consistency.
		for _, h := range []string{"hidisc_job_seconds", "hidisc_job_queue_wait_seconds"} {
			if !strings.Contains(body, "# TYPE "+h+" histogram") {
				t.Errorf("missing # TYPE line for %s", h)
			}
			if !strings.Contains(body, "# HELP "+h+" ") {
				t.Errorf("missing # HELP line for %s", h)
			}
			count, ok := vals[h+"_count"]
			if !ok || count < 1 {
				t.Errorf("%s_count = %v, want >= 1", h, count)
			}
			inf, ok := vals[h+`_bucket{le="+Inf"}`]
			if !ok || inf != count {
				t.Errorf("%s +Inf bucket = %v, want == count %v", h, inf, count)
			}
		}
		if vals["hidisc_job_seconds_sum"] <= 0 {
			t.Errorf("hidisc_job_seconds_sum = %v, want > 0", vals["hidisc_job_seconds_sum"])
		}
		// Bucket counts must be cumulative (non-decreasing) in le order.
		var prev float64
		for _, b := range strings.Split(body, "\n") {
			if !strings.HasPrefix(b, "hidisc_job_seconds_bucket") {
				continue
			}
			_, value, _ := strings.Cut(b, " ")
			v, _ := strconv.ParseFloat(value, 64)
			if v < prev {
				t.Fatalf("bucket counts not cumulative at %q", b)
			}
			prev = v
		}
	}

	// One negotiation rule for both roles: this worker, and a
	// coordinator.
	co := httptest.NewServer(cluster.New(cluster.Config{Scale: workloads.ScaleTest}).Handler())
	t.Cleanup(co.Close)
	for _, tc := range []struct{ query, accept, want string }{
		{"", "", "json"},
		{"?format=json", "", "json"},
		{"?format=prom", "", "prom"},
		{"?format=prometheus", "", "400"},
		{"?format=xml", "", "400"},
		{"", "text/plain", "prom"},
		{"", "text/plain, application/json", "json"},
		{"?format=json", "text/plain", "json"},
	} {
		for _, target := range []struct{ role, url string }{{"worker", url}, {"coordinator", co.URL}} {
			resp, body := get(t, target.url+"/metrics"+tc.query, tc.accept)
			ct := resp.Header.Get("Content-Type")
			got := ct
			switch {
			case resp.StatusCode == http.StatusBadRequest:
				got = "400"
			case strings.HasPrefix(ct, "text/plain; version=0.0.4"):
				got = "prom"
			case strings.HasPrefix(ct, "application/json"):
				got = "json"
			}
			if got != tc.want {
				t.Errorf("%s /metrics%s Accept %q: got %s (HTTP %d, %.60s), want %s",
					target.role, tc.query, tc.accept, got, resp.StatusCode, body, tc.want)
			}
		}
	}
}

// TestRequestIDThreading checks the request-ID contract: every
// response carries X-Request-Id, and error bodies echo the same ID so
// clients can quote it against server logs.
func TestRequestIDThreading(t *testing.T) {
	var logBuf bytes.Buffer
	cfg := testConfig()
	cfg.Logger = slog.New(slog.NewJSONHandler(&logBuf, nil))
	_, url := rawTestServer(t, cfg)

	resp := postJob(t, url, simserver.JobRequest{Workload: "no-such-workload", Arch: machine.CPAP})
	id := resp.Header.Get("X-Request-Id")
	if id == "" {
		t.Fatal("response missing X-Request-Id header")
	}
	var eb simserver.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if eb.Err.RequestID != id {
		t.Errorf("error body requestId %q != header %q", eb.Err.RequestID, id)
	}
	if eb.Err.Status != http.StatusBadRequest {
		t.Errorf("unknown workload: status %d, want 400", eb.Err.Status)
	}

	// A successful request gets a different, later ID.
	resp2 := postJob(t, url, simserver.JobRequest{Workload: "Pointer", Arch: machine.HiDISC})
	id2 := resp2.Header.Get("X-Request-Id")
	if id2 == "" || id2 == id {
		t.Errorf("second request ID %q should be fresh (first was %q)", id2, id)
	}

	// The structured log must carry both the access lines and the job
	// outcome lines, threaded with the same request IDs.
	logs := logBuf.String()
	for _, want := range []string{id, id2, `"msg":"request"`, `"msg":"request error"`, `"msg":"job completed"`} {
		if !strings.Contains(logs, want) {
			t.Errorf("structured log missing %q\nlog:\n%s", want, logs)
		}
	}
}
