package cluster_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hidisc/internal/cluster"
	"hidisc/internal/experiments"
	"hidisc/internal/simclient"
	"hidisc/internal/simserver"
	"hidisc/internal/workloads"
)

// startCluster runs a coordinator (and its control loops) on an
// ephemeral port.
func startCluster(t *testing.T, cfg cluster.Config) (*cluster.Coordinator, *httptest.Server) {
	t.Helper()
	cfg.Scale = workloads.ScaleTest
	if cfg.HeartbeatInterval == 0 {
		// Workers registered by hand never heartbeat: keep them alive
		// for the whole test, however slow the host (a 1s cadence aged
		// them out after 6s of a -race run on a loaded host).
		cfg.HeartbeatInterval = time.Minute
	}
	if cfg.Backoff == nil {
		// Keep test-side patience short: transport failures re-route
		// without sleeping, so four attempts cover every path exercised
		// here.
		cfg.Backoff = &simclient.Backoff{Base: 10 * time.Millisecond, Attempts: 4}
	}
	co := cluster.New(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	go co.Run(ctx)
	ts := httptest.NewServer(co.Handler())
	t.Cleanup(func() { cancel(); ts.Close() })
	return co, ts
}

// startWorker runs a real simulation worker on an ephemeral port.
func startWorker(t *testing.T) (*simserver.Server, *httptest.Server) {
	t.Helper()
	cfg := simserver.DefaultConfig(workloads.ScaleTest)
	cfg.Queue = 256 // admit a whole fig8 matrix at once
	s := simserver.New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// register announces a worker to the coordinator over the wire.
func register(t *testing.T, coord, url string, workers, queue int) {
	t.Helper()
	body, err := json.Marshal(cluster.RegisterRequest{URL: url, Workers: workers, Queue: queue})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(coord+"/v1/cluster/register", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register: HTTP %d", resp.StatusCode)
	}
	var rr cluster.RegisterResponse
	if err := json.NewDecoder(resp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	if rr.HeartbeatMs <= 0 || rr.TTLMs <= 0 {
		t.Fatalf("register response missing cadence: %+v", rr)
	}
}

// fleetMetrics fetches the coordinator's merged snapshot.
func fleetMetrics(t *testing.T, coord string) cluster.MetricsSnapshot {
	t.Helper()
	resp, err := http.Get(coord + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m cluster.MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// localFig8 computes the Figure 8 reference encodings on a sequential
// local runner — what every routed result must match byte for byte.
func localFig8(t *testing.T) [][]byte {
	t.Helper()
	r := experiments.NewRunner(workloads.ScaleTest)
	jobs := experiments.Fig8Jobs(r.Hier, workloads.ScaleTest)
	ms, err := r.RunJobs(1, jobs)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]byte, len(ms))
	for i, m := range ms {
		enc, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = enc
	}
	return want
}

// TestClusterFig8ByteIdentity is the scale-out acceptance test: the
// Figure 8 matrix submitted through a coordinator fronting two real
// workers must come back byte-identical to a sequential local run, the
// ring must actually spread the keys (both workers simulate), and the
// merged /metrics totals must reconcile with the coordinator's own
// routing counters.
func TestClusterFig8ByteIdentity(t *testing.T) {
	want := localFig8(t)
	w1, ts1 := startWorker(t)
	w2, ts2 := startWorker(t)
	_, co := startCluster(t, cluster.Config{})
	for _, w := range []struct {
		s  *simserver.Server
		ts *httptest.Server
	}{{w1, ts1}, {w2, ts2}} {
		workers, queue := w.s.Capacity()
		register(t, co.URL, w.ts.URL, workers, queue)
	}

	c := simclient.New(co.URL)
	items, errs, err := c.Batch(context.Background(), simserver.BatchRequest{Matrix: "fig8"})
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != len(want) {
		t.Fatalf("got %d items, want %d", len(items), len(want))
	}
	for i, it := range items {
		if errs[i] != nil {
			t.Fatalf("job %d failed: %v", i, errs[i])
		}
		if !bytes.Equal(it.Measurement, want[i]) {
			t.Errorf("job %d: measurement differs from local run", i)
		}
	}

	m1, m2 := w1.Metrics(), w2.Metrics()
	if m1.Accepted == 0 || m2.Accepted == 0 {
		t.Fatalf("ring did not spread the matrix: worker accepted counts %d / %d",
			m1.Accepted, m2.Accepted)
	}
	fm := fleetMetrics(t, co.URL)
	if fm.Accepted != m1.Accepted+m2.Accepted {
		t.Errorf("merged accepted = %d, want %d + %d", fm.Accepted, m1.Accepted, m2.Accepted)
	}
	if fm.Coordinator.Routed != int64(len(want)) {
		t.Errorf("coordinator routed = %d, want %d", fm.Coordinator.Routed, len(want))
	}
	if fm.Coordinator.Requeued != 0 || fm.Coordinator.WorkerDeaths != 0 {
		t.Errorf("healthy fleet reported requeues/deaths: %+v", fm.Coordinator)
	}
	if len(fm.Workers) != 2 {
		t.Errorf("merged snapshot lists %d workers, want 2", len(fm.Workers))
	}

	// Resubmitting the matrix must be answered from the workers' result
	// caches — the point of routing by content key.
	items2, _, err := c.Batch(context.Background(), simserver.BatchRequest{Matrix: "fig8"})
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range items2 {
		if !it.Cached {
			t.Errorf("resubmitted job %d not served from cache", i)
		}
		if !bytes.Equal(it.Measurement, want[i]) {
			t.Errorf("resubmitted job %d: measurement differs", i)
		}
	}
}

// TestClusterRequeueOnWorkerDeath pins the failure path: one of two
// registered workers is unreachable (its port refuses), so every job
// whose ring home it is fails at the transport level, the fleet
// declares it dead, and the jobs are requeued onto the survivor. The
// batch must still complete byte-identically.
func TestClusterRequeueOnWorkerDeath(t *testing.T) {
	want := localFig8(t)
	w1, ts1 := startWorker(t)
	_, co := startCluster(t, cluster.Config{})
	workers, queue := w1.Capacity()
	register(t, co.URL, ts1.URL, workers, queue)
	// A worker that crashed after registering: nothing listens there.
	register(t, co.URL, "http://127.0.0.1:1", 1, 256)

	c := simclient.New(co.URL)
	items, errs, err := c.Batch(context.Background(), simserver.BatchRequest{Matrix: "fig8"})
	if err != nil {
		t.Fatal(err)
	}
	for i, it := range items {
		if errs[i] != nil {
			t.Fatalf("job %d failed despite a live survivor: %v", i, errs[i])
		}
		if !bytes.Equal(it.Measurement, want[i]) {
			t.Errorf("job %d: measurement differs after requeue", i)
		}
	}

	fm := fleetMetrics(t, co.URL)
	cm := fm.Coordinator
	if cm.WorkerDeaths != 1 {
		t.Errorf("workerDeaths = %d, want 1", cm.WorkerDeaths)
	}
	if cm.Requeued == 0 {
		t.Error("no jobs counted as requeued though their home worker was dead")
	}
	if cm.Rerouted == 0 {
		t.Error("no jobs counted as rerouted though they completed off their ring home")
	}
	if cm.Routed != int64(len(want)) {
		t.Errorf("routed = %d, want %d", cm.Routed, len(want))
	}

	// The fleet health view must show the corpse.
	resp, err := http.Get(co.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hs cluster.HealthSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&hs); err != nil {
		t.Fatal(err)
	}
	if hs.Status != "ok" {
		t.Errorf("fleet status %q, want ok (one worker survives)", hs.Status)
	}
	dead := 0
	for _, w := range hs.Workers {
		if w.State == cluster.StateDead {
			dead++
		}
	}
	if dead != 1 {
		t.Errorf("healthz shows %d dead workers, want 1", dead)
	}
}

// TestClusterRefusesBadWorkerAnswers puts a stub worker that answers
// 200 with an unusable body beside a healthy worker. The coordinator
// forwards answers unscanned, so none of these bodies may ever reach
// the client as a success: each job either gets the healthy worker's
// byte-identical answer after a requeue, or an error.
func TestClusterRefusesBadWorkerAnswers(t *testing.T) {
	want := localFig8(t)
	jobs := experiments.Fig8Jobs(experiments.NewRunner(workloads.ScaleTest).Hier, workloads.ScaleTest)
	// The stub builds every bad answer from the routed job's own
	// correct envelope, so only the defect under test can give it away.
	envelopes := map[string]string{}
	for i, j := range jobs {
		envelopes[j.Key()] = `{"key":"` + j.Key() + `","measurement":` + string(want[i]) + "}\n"
	}
	w, healthy := startWorker(t)
	workers, queue := w.Capacity()
	for _, tc := range []struct {
		name   string
		answer func(w http.ResponseWriter, envelope string)
	}{
		{"body cut in the measurement", func(w http.ResponseWriter, envelope string) {
			io.WriteString(w, envelope[:len(envelope)/2])
		}},
		{"connection lost in the measurement", func(w http.ResponseWriter, envelope string) {
			w.Header().Set("Content-Length", fmt.Sprint(len(envelope)))
			io.WriteString(w, envelope[:len(envelope)/2])
			w.(http.Flusher).Flush()
			panic(http.ErrAbortHandler)
		}},
		{"envelope for another key", func(w http.ResponseWriter, envelope string) {
			io.WriteString(w, `{"key":"`+strings.Repeat("ab", 32)+envelope[len(`{"key":"`)+64:])
		}},
		{"empty object", func(w http.ResponseWriter, envelope string) {
			io.WriteString(w, "{}")
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var asked atomic.Int64
			stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				asked.Add(1)
				var jr simserver.JobRequest
				if err := json.NewDecoder(r.Body).Decode(&jr); err != nil {
					t.Error(err)
					return
				}
				job, err := jr.CanonicalJob(workloads.ScaleTest)
				if err != nil {
					t.Error(err)
					return
				}
				tc.answer(w, envelopes[job.Key()])
			}))
			t.Cleanup(stub.Close)
			_, co := startCluster(t, cluster.Config{})
			register(t, co.URL, healthy.URL, workers, queue)
			register(t, co.URL, stub.URL, workers, queue)

			c := simclient.New(co.URL)
			for i, j := range jobs {
				resp, err := c.Run(context.Background(), simserver.JobRequest{Workload: j.Workload, Arch: j.Arch})
				if err != nil {
					continue
				}
				if resp.Key != j.Key() || !bytes.Equal(resp.Measurement, want[i]) {
					t.Fatalf("job %d (%s/%s): a bad worker answer reached the client as a success: key %s, %.60s",
						i, j.Workload, j.Arch, resp.Key, resp.Measurement)
				}
			}
			if asked.Load() == 0 {
				t.Fatal("no job was routed to the stub worker")
			}
			if cm := fleetMetrics(t, co.URL).Coordinator; cm.Requeued == 0 || cm.WorkerDeaths != 1 {
				t.Errorf("requeued = %d, workerDeaths = %d; want the stub's job requeued and the stub dead", cm.Requeued, cm.WorkerDeaths)
			}
		})
	}
}

// TestClusterNoWorkers pins the empty-fleet answer: 503 with a
// distinct kind (a retryable status — capacity may register any
// moment), plus a coordinator-minted request ID on the response.
func TestClusterNoWorkers(t *testing.T) {
	_, co := startCluster(t, cluster.Config{})
	body := []byte(`{"workload":"spmv","arch":"hidisc"}`)
	resp, err := http.Post(co.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("empty fleet answered HTTP %d, want 503", resp.StatusCode)
	}
	if !strings.HasPrefix(resp.Header.Get("X-Request-Id"), "co-") {
		t.Errorf("X-Request-Id = %q, want a co- prefixed coordinator ID", resp.Header.Get("X-Request-Id"))
	}
	var eb simserver.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if eb.Err.Kind != "no-workers" {
		t.Errorf("kind = %q, want no-workers", eb.Err.Kind)
	}
}

// TestClusterFleetAdmission pins the oversized-batch rule the worker
// applies too: a batch larger than the fleet's whole summed capacity
// could never be admitted, so it is refused as a bad request before any
// job is forwarded — not answered 429 with a retry that cannot succeed.
func TestClusterFleetAdmission(t *testing.T) {
	_, co := startCluster(t, cluster.Config{})
	// One worker with room for a single job; fig8 is far larger.
	register(t, co.URL, "http://127.0.0.1:1", 1, 0)

	body := []byte(`{"matrix":"fig8"}`)
	resp, err := http.Post(co.URL+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized batch answered HTTP %d, want 400", resp.StatusCode)
	}
	var eb simserver.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if want := "batch of 28 exceeds coordinator capacity 1; split it"; eb.Err.Message != want {
		t.Errorf("message %q, want %q", eb.Err.Message, want)
	}
	fm := fleetMetrics(t, co.URL)
	if fm.Coordinator.Rejected != 0 || fm.Coordinator.Routed != 0 {
		t.Errorf("rejected = %d, routed = %d; want 0, 0", fm.Coordinator.Rejected, fm.Coordinator.Routed)
	}
}

// holdingWorker is a stub worker that sheds its first shed requests
// with 429 and Retry-After: 1, then accepts every job and answers none
// until released, then answers each under its own key. arrived
// receives once per request.
func holdingWorker(t *testing.T, shed int) (url string, arrived <-chan struct{}, release func()) {
	t.Helper()
	hold := make(chan struct{})
	got := make(chan struct{}, 64)
	var mu sync.Mutex
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		shedThis := shed > 0
		shed--
		mu.Unlock()
		got <- struct{}{}
		if shedThis {
			w.Header().Set("Retry-After", "1")
			simserver.WriteJSON(w, http.StatusTooManyRequests, simserver.ErrorBody{Err: simserver.WireError{
				Status: http.StatusTooManyRequests, Kind: simserver.KindOverloaded, Message: "stub full",
			}})
			return
		}
		<-hold
		var jr simserver.JobRequest
		if err := json.NewDecoder(r.Body).Decode(&jr); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		job, err := jr.CanonicalJob(workloads.ScaleTest)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		simserver.WriteJSON(w, http.StatusOK, simserver.JobResponse{Key: job.Key(), Measurement: json.RawMessage(`{}`)})
	}))
	var once sync.Once
	release = func() { once.Do(func() { close(hold) }) }
	t.Cleanup(func() { release(); ts.Close() })
	return ts.URL, got, release
}

func postBatch(coord string, jobs int) (*http.Response, error) {
	var br simserver.BatchRequest
	for i := 0; i < jobs; i++ {
		br.Jobs = append(br.Jobs, simserver.JobRequest{Workload: "Pointer", Arch: "hidisc"})
	}
	body, err := json.Marshal(br)
	if err != nil {
		return nil, err
	}
	return http.Post(coord+"/v1/batch", "application/json", bytes.NewReader(body))
}

// TestClusterFleetBusy429 pins fleet backpressure while capacity is
// busy: with the fleet's two slots held by an admitted batch, the next
// job is answered 429 with a Retry-After estimate, and the held batch
// still completes.
func TestClusterFleetBusy429(t *testing.T) {
	url, arrived, release := holdingWorker(t, 0)
	cl, co := startCluster(t, cluster.Config{})
	register(t, co.URL, url, 1, 1)

	done := make(chan int, 1)
	go func() {
		resp, err := postBatch(co.URL, 2)
		if err != nil {
			done <- 0
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	<-arrived
	if cl.InFlight() != 2 {
		t.Fatalf("in flight = %d, want the batch's 2", cl.InFlight())
	}
	resp, err := http.Post(co.URL+"/v1/jobs", "application/json", strings.NewReader(`{"workload":"Pointer","arch":"hidisc"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("busy fleet answered HTTP %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 without a Retry-After header")
	}
	var eb simserver.ErrorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(eb.Err.Message, "fleet admission full (2 jobs in flight)") {
		t.Errorf("overload message %q", eb.Err.Message)
	}
	release()
	if status := <-done; status != http.StatusOK {
		t.Errorf("held batch answered HTTP %d, want 200", status)
	}
	if fm := fleetMetrics(t, co.URL); fm.Coordinator.Rejected != 1 {
		t.Errorf("rejected = %d, want 1", fm.Coordinator.Rejected)
	}
}

// TestClusterAdmissionReserves pins that fleet admission reserves what
// it admits, for as long as the job is the coordinator's — including
// while it sleeps in backoff after its worker shed it. Two batches that
// each fit the fleet alone but not together cannot both be admitted:
// exactly one gets 429.
func TestClusterAdmissionReserves(t *testing.T) {
	url, arrived, release := holdingWorker(t, 2)
	cl, co := startCluster(t, cluster.Config{})
	register(t, co.URL, url, 1, 2) // capacity 3

	statuses := make(chan int, 2)
	post := func() {
		resp, err := postBatch(co.URL, 2)
		if err != nil {
			statuses <- 0
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		statuses <- resp.StatusCode
	}
	go post()
	// Both of the first batch's jobs were shed and now wait out
	// Retry-After: still in flight, still holding their admission.
	<-arrived
	<-arrived
	if cl.InFlight() != 2 {
		t.Errorf("in flight = %d while the batch sleeps in backoff, want 2", cl.InFlight())
	}
	go post()
	var first int
	select {
	case first = <-statuses:
	case <-time.After(10 * time.Second):
		release()
		t.Fatal("neither batch was refused: both were admitted past the fleet's capacity")
	}
	release()
	second := <-statuses
	if first != http.StatusTooManyRequests || second != http.StatusOK {
		t.Errorf("batches answered %d then %d, want 429 then 200", first, second)
	}
}

// TestClusterHeartbeatUnknown pins the re-register signal: a heartbeat
// from a worker the coordinator does not know is answered 404.
func TestClusterHeartbeatUnknown(t *testing.T) {
	_, co := startCluster(t, cluster.Config{})
	body, _ := json.Marshal(cluster.HeartbeatRequest{URL: "http://ghost"})
	resp, err := http.Post(co.URL+"/v1/cluster/heartbeat", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown heartbeat answered HTTP %d, want 404", resp.StatusCode)
	}
}

// TestClusterPrometheus pins the coordinator's exposition view: its
// routing counters and the per-worker liveness gauge.
func TestClusterPrometheus(t *testing.T) {
	_, co := startCluster(t, cluster.Config{})
	register(t, co.URL, "http://127.0.0.1:1", 1, 1)

	resp, err := http.Get(co.URL + "/metrics?format=prom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("Content-Type = %q, want text exposition", ct)
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	for _, want := range []string{
		"# TYPE hidisc_coord_jobs_routed_total counter",
		"# TYPE hidisc_fleet_workers_alive gauge",
		fmt.Sprintf("hidisc_worker_up{worker=%q} 1", "http://127.0.0.1:1"),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestAgentLifecycle runs the real worker-side agent against a real
// coordinator: registration appears in the fleet health view, the
// heartbeat loop keeps the worker alive well past the TTL, and an
// explicit deregister removes it without counting a death.
func TestAgentLifecycle(t *testing.T) {
	w, wts := startWorker(t)
	_, co := startCluster(t, cluster.Config{
		HeartbeatInterval: 20 * time.Millisecond,
		TTL:               150 * time.Millisecond,
	})

	agent := &cluster.Agent{Coordinator: co.URL, Advertise: wts.URL, Server: w}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); agent.Run(ctx) }()

	workerState := func() cluster.WorkerState {
		resp, err := http.Get(co.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var hs cluster.HealthSnapshot
		if err := json.NewDecoder(resp.Body).Decode(&hs); err != nil {
			t.Fatal(err)
		}
		for _, wh := range hs.Workers {
			if wh.URL == wts.URL {
				return wh.State
			}
		}
		return ""
	}

	deadline := time.After(5 * time.Second)
	for workerState() != cluster.StateAlive {
		select {
		case <-deadline:
			t.Fatal("worker never registered")
		case <-time.After(10 * time.Millisecond):
		}
	}

	// Outlive several TTLs: the heartbeat loop must keep us alive.
	time.Sleep(500 * time.Millisecond)
	if got := workerState(); got != cluster.StateAlive {
		t.Fatalf("worker state %q after heartbeating past TTL, want alive", got)
	}

	cancel()
	<-done
	agent.Deregister(context.Background())
	if got := workerState(); got != "" {
		t.Fatalf("worker still tracked after deregister (state %q)", got)
	}
	fm := fleetMetrics(t, co.URL)
	if fm.Coordinator.WorkerDeaths != 0 {
		t.Errorf("graceful departure counted as %d deaths", fm.Coordinator.WorkerDeaths)
	}
	if fm.Coordinator.Deregistered != 1 {
		t.Errorf("deregistered = %d, want 1", fm.Coordinator.Deregistered)
	}
}
