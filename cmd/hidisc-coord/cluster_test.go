package main_test

// The cluster-smoke e2e: prove the coordinator is a real scale-out
// layer by running a fig8-derived batch through a three-worker fleet,
// SIGKILLing one worker while its share of the batch is still in
// flight, and requiring the batch to complete byte-identical to a
// single standalone worker — the requeue/reroute counters are the
// receipt that the dead worker's jobs were replayed on the survivors,
// not lost. A second test drains the whole fleet with SIGTERM and
// requires every process to exit 0 with the departures recorded as
// graceful (deregistered, not deaths).

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"hidisc/internal/cluster"
	"hidisc/internal/machine"
	"hidisc/internal/simclient"
	"hidisc/internal/simserver"
	"hidisc/internal/tracing"
	"hidisc/internal/workloads"
)

// buildBin compiles one of the repo's commands for the test.
func buildBin(t *testing.T, pkg string) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), filepath.Base(pkg))
	out, err := exec.Command("go", "build", "-o", bin, "hidisc/"+pkg).CombinedOutput()
	if err != nil {
		t.Fatalf("building %s: %v\n%s", pkg, err, out)
	}
	return bin
}

// startProc launches a binary and returns the process plus the URL
// parsed from its structured "listening" log line.
func startProc(t *testing.T, bin string, args ...string) (*exec.Cmd, string) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting %s: %v", bin, err)
	}
	t.Cleanup(func() {
		if cmd.Process != nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	urlCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			var line struct {
				Msg string `json:"msg"`
				URL string `json:"url"`
			}
			if json.Unmarshal(sc.Bytes(), &line) == nil && line.Msg == "listening" {
				urlCh <- line.URL
			}
			// Keep draining so the child never blocks on a full pipe.
		}
	}()
	select {
	case url := <-urlCh:
		return cmd, url
	case <-time.After(30 * time.Second):
		t.Fatal("process never logged its listening URL")
		return nil, ""
	}
}

// fetchSpans pulls GET /v1/traces from a process and decodes the
// NDJSON span stream, filtered by request ID.
func fetchSpans(t *testing.T, base, requestID string) []tracing.Span {
	t.Helper()
	resp, err := http.Get(base + "/v1/traces?request=" + requestID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var spans []tracing.Span
	dec := json.NewDecoder(resp.Body)
	for dec.More() {
		var s tracing.Span
		if err := dec.Decode(&s); err != nil {
			t.Fatalf("traces NDJSON from %s: %v", base, err)
		}
		spans = append(spans, s)
	}
	return spans
}

// fleetHealth fetches the coordinator's health view.
func fleetHealth(t *testing.T, coord string) cluster.HealthSnapshot {
	t.Helper()
	resp, err := http.Get(coord + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hs cluster.HealthSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&hs); err != nil {
		t.Fatal(err)
	}
	return hs
}

// coordMetrics fetches the coordinator's merged metrics snapshot.
func coordMetrics(t *testing.T, coord string) cluster.MetricsSnapshot {
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

// waitAlive polls healthz until n workers are alive.
func waitAlive(t *testing.T, coord string, n int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		alive := 0
		for _, w := range fleetHealth(t, coord).Workers {
			if w.State == cluster.StateAlive {
				alive++
			}
		}
		if alive >= n {
			return
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("%d workers never came alive", n)
}

// clusterBatch is the test workload: the Figure 8 benchmark matrix
// crossed with several memory latencies, large enough that a fleet of
// single-threaded workers still has most of it queued when the first
// results arrive — the window the kill test needs.
func clusterBatch() simserver.BatchRequest {
	var jobs []simserver.JobRequest
	for _, lat := range []int{0, 40, 80, 200} { // 0 = Table 1 default (120)
		for _, wl := range workloads.Names() {
			for _, arch := range machine.Arches {
				jr := simserver.JobRequest{Workload: wl, Arch: arch}
				if lat != 0 {
					jr.Hier = json.RawMessage(fmt.Sprintf(`{"memLatency":%d}`, lat))
				}
				jobs = append(jobs, jr)
			}
		}
	}
	return simserver.BatchRequest{Jobs: jobs}
}

func TestClusterSurvivesKill9(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess e2e")
	}
	serveBin := buildBin(t, "cmd/hidisc-serve")
	coordBin := buildBin(t, "cmd/hidisc-coord")
	batch := clusterBatch()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	// The single-node reference: one standalone worker runs the whole
	// batch; the fleet must match it byte for byte.
	_, refURL := startProc(t, serveBin, "-addr", "127.0.0.1:0", "-scale", "test", "-queue", "256")
	refClient := simclient.NewWithOptions(refURL, simclient.DefaultOptions())
	refItems, refErrs, err := refClient.Batch(ctx, batch)
	if err != nil {
		t.Fatalf("reference batch: %v", err)
	}
	for i, e := range refErrs {
		if e != nil {
			t.Fatalf("reference job %d failed: %v", i, e)
		}
	}

	// The fleet: a coordinator and three single-threaded workers that
	// register themselves.
	_, coURL := startProc(t, coordBin, "-addr", "127.0.0.1:0", "-scale", "test",
		"-heartbeat", "100ms", "-ttl", "400ms")
	workers := map[string]*exec.Cmd{}
	for i := 0; i < 3; i++ {
		cmd, url := startProc(t, serveBin, "-addr", "127.0.0.1:0", "-scale", "test",
			"-j", "1", "-queue", "256", "-coord", coURL)
		workers[url] = cmd
	}
	waitAlive(t, coURL, 3)

	// Stream the batch through the coordinator; when the first result
	// arrives, SIGKILL the worker carrying the most in-flight jobs. Its
	// share fails at the transport level and must be requeued onto the
	// ring minus the dead node — the stream must still deliver every
	// item. A fixed request ID lets the trace assertions below pull
	// exactly this batch's spans from every process.
	const batchID = "kill9-fig8"
	killed := false
	victim := ""
	items := make([]simserver.BatchItem, len(batch.Jobs))
	c := simclient.New(coURL)
	err = c.BatchStream(simserver.ContextWithRequestID(ctx, batchID), batch, func(it simserver.BatchItem) error {
		if it.Error != nil {
			t.Fatalf("batch item %d failed: %+v", it.Index, it.Error)
		}
		items[it.Index] = it
		if !killed {
			killed = true
			most := -1
			for _, w := range fleetHealth(t, coURL).Workers {
				if w.State == cluster.StateAlive && w.InFlight > most {
					victim, most = w.URL, w.InFlight
				}
			}
			if victim == "" || workers[victim] == nil {
				t.Fatalf("no alive worker to kill (victim %q)", victim)
			}
			t.Logf("kill -9 %s with %d jobs in flight", victim, most)
			if err := workers[victim].Process.Signal(syscall.SIGKILL); err != nil {
				t.Fatalf("SIGKILL: %v", err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("cluster batch after kill -9: %v", err)
	}

	// Byte identity against the single node, per job.
	for i := range items {
		if items[i].Key == "" {
			t.Fatalf("job %d never completed", i)
		}
		if !bytes.Equal(items[i].Measurement, refItems[i].Measurement) {
			t.Errorf("job %d differs between fleet and single node", i)
		}
		if items[i].Key != refItems[i].Key {
			t.Errorf("job %d key differs: fleet %s, single %s", i, items[i].Key, refItems[i].Key)
		}
	}

	// The counters are the receipt: the victim died once, its in-flight
	// jobs were requeued, and they completed off their ring home.
	cm := coordMetrics(t, coURL).Coordinator
	if cm.WorkerDeaths != 1 {
		t.Errorf("workerDeaths = %d, want 1", cm.WorkerDeaths)
	}
	if cm.Requeued == 0 {
		t.Error("no requeues counted though a worker died mid-batch")
	}
	if cm.Rerouted == 0 {
		t.Error("no reroutes counted though requeued jobs completed elsewhere")
	}
	if cm.Routed != int64(len(batch.Jobs)) {
		t.Errorf("routed = %d, want %d", cm.Routed, len(batch.Jobs))
	}
	dead := 0
	for _, w := range fleetHealth(t, coURL).Workers {
		if w.State == cluster.StateDead {
			dead++
		}
	}
	if dead != 1 {
		t.Errorf("healthz shows %d dead workers, want 1", dead)
	}

	// The spans are the narrative of the recovery: the coordinator must
	// carry a coord.requeue span naming the SIGKILLed worker, and the
	// surviving span forest (coordinator + live workers) must have no
	// orphans — every parent pointer resolves even though one process's
	// ring died with it. Spans publish on End, which can trail the HTTP
	// response by a beat, so poll briefly before judging.
	assertRecoveryTrace := func() []string {
		spans := fetchSpans(t, coURL, batchID)
		for url := range workers {
			if url != victim {
				spans = append(spans, fetchSpans(t, url, batchID)...)
			}
		}
		var problems []string
		byID := map[string]bool{}
		for _, s := range spans {
			byID[s.SpanID] = true
		}
		requeues := 0
		for _, s := range spans {
			if s.Name == "coord.requeue" && s.Attrs["worker"] == victim {
				requeues++
			}
			if s.ParentID != "" && !byID[s.ParentID] {
				problems = append(problems, fmt.Sprintf("span %s (%q) orphaned: parent %s missing", s.SpanID, s.Name, s.ParentID))
			}
		}
		if requeues == 0 {
			problems = append(problems, fmt.Sprintf("no coord.requeue span names the killed worker %s", victim))
		}
		if len(spans) == 0 {
			problems = append(problems, "no spans for the batch request at all")
		}
		return problems
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		problems := assertRecoveryTrace()
		if len(problems) == 0 {
			break
		}
		if time.Now().After(deadline) {
			for _, p := range problems {
				t.Error(p)
			}
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// TestFleetTraceMerged is the showpiece e2e: a three-worker fleet runs
// the fig8 matrix with machine-telemetry capture on, the coordinator
// assembles one merged Perfetto file for the batch, and the extended
// tracecheck binary validates it — HTTP spans from coordinator and
// workers in one span forest, with at least one spliced per-core
// machine timeline parented under the simulate span that produced it.
func TestFleetTraceMerged(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess e2e")
	}
	serveBin := buildBin(t, "cmd/hidisc-serve")
	coordBin := buildBin(t, "cmd/hidisc-coord")
	checkBin := buildBin(t, "cmd/hidisc-tracecheck")
	traceDir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()

	_, coURL := startProc(t, coordBin, "-addr", "127.0.0.1:0", "-scale", "test",
		"-heartbeat", "100ms", "-ttl", "400ms", "-trace-dir", traceDir)
	for i := 0; i < 3; i++ {
		startProc(t, serveBin, "-addr", "127.0.0.1:0", "-scale", "test",
			"-j", "1", "-queue", "256", "-coord", coURL, "-trace-machine")
	}
	waitAlive(t, coURL, 3)

	const reqID = "fleet-fig8"
	c := simclient.New(coURL)
	items, errs, err := c.Batch(simserver.ContextWithRequestID(ctx, reqID),
		simserver.BatchRequest{Matrix: "fig8"})
	if err != nil {
		t.Fatalf("fig8 batch: %v", err)
	}
	for i := range items {
		if errs[i] != nil {
			t.Fatalf("job %d failed: %v", i, errs[i])
		}
	}

	// The assembler waits ~100ms for worker spans to land, then writes
	// via rename — poll for the finished file.
	mergedPath := filepath.Join(traceDir, "trace-"+reqID+".json")
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := os.Stat(mergedPath); err == nil {
			break
		}
		if time.Now().After(deadline) {
			entries, _ := os.ReadDir(traceDir)
			names := make([]string, 0, len(entries))
			for _, e := range entries {
				names = append(names, e.Name())
			}
			t.Fatalf("merged trace %s never appeared (dir has %v)", mergedPath, names)
		}
		time.Sleep(100 * time.Millisecond)
	}

	// The extended tracecheck must accept it: well-formed span forest,
	// machine timelines parented under their simulate spans.
	out, err := exec.Command(checkBin, "-merged", mergedPath).CombinedOutput()
	if err != nil {
		t.Fatalf("tracecheck -merged rejected the file: %v\n%s", err, out)
	}
	t.Logf("tracecheck: %s", bytes.TrimSpace(out))

	// And the file must actually tell the cross-process story: the
	// coordinator's batch root, worker simulate spans, and at least one
	// spliced machine timeline.
	data, err := os.ReadFile(mergedPath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("merged trace not valid JSON: %v", err)
	}
	spanNames := map[string]int{}
	machines := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			if id, _ := ev.Args["spanId"].(string); id != "" {
				spanNames[ev.Name]++
			}
		}
		if ev.Ph == "M" && ev.Name == "span_context" {
			machines++
		}
	}
	for _, want := range []string{"coord POST /v1/batch", "coord.job", "coord.attempt", "client POST /v1/jobs", "serve POST /v1/jobs", "serve.simulate"} {
		if spanNames[want] == 0 {
			t.Errorf("merged trace has no %q span (have %v)", want, spanNames)
		}
	}
	if machines == 0 {
		t.Error("merged trace spliced no machine timelines despite -trace-machine workers")
	}
}

func TestClusterFleetDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess e2e")
	}
	serveBin := buildBin(t, "cmd/hidisc-serve")
	coordBin := buildBin(t, "cmd/hidisc-coord")
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	coordCmd, coURL := startProc(t, coordBin, "-addr", "127.0.0.1:0", "-scale", "test",
		"-heartbeat", "100ms", "-ttl", "400ms")
	var workerCmds []*exec.Cmd
	for i := 0; i < 2; i++ {
		cmd, _ := startProc(t, serveBin, "-addr", "127.0.0.1:0", "-scale", "test",
			"-j", "1", "-queue", "64", "-coord", coURL)
		workerCmds = append(workerCmds, cmd)
	}
	waitAlive(t, coURL, 2)

	// A small matrix proves the data plane works before the drain.
	c := simclient.New(coURL)
	items, errs, err := c.Batch(ctx, simserver.BatchRequest{
		Jobs: []simserver.JobRequest{
			{Workload: "Pointer", Arch: machine.HiDISC},
			{Workload: "DM", Arch: machine.Superscalar},
			{Workload: "TC", Arch: machine.CPAP},
		},
	})
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	for i := range items {
		if errs[i] != nil {
			t.Fatalf("job %d failed: %v", i, errs[i])
		}
	}

	// SIGTERM the workers: each must deregister and exit 0, and the
	// coordinator must record graceful departures, not deaths.
	for _, cmd := range workerCmds {
		if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
	}
	for i, cmd := range workerCmds {
		if err := cmd.Wait(); err != nil {
			t.Errorf("worker %d did not drain cleanly: %v", i, err)
		}
	}
	cm := coordMetrics(t, coURL).Coordinator
	if cm.Deregistered != 2 {
		t.Errorf("deregistered = %d, want 2", cm.Deregistered)
	}
	if cm.WorkerDeaths != 0 {
		t.Errorf("workerDeaths = %d, want 0 (SIGTERM is graceful)", cm.WorkerDeaths)
	}
	if got := fleetHealth(t, coURL); len(got.Workers) != 0 {
		t.Errorf("healthz still lists %d workers after fleet drain", len(got.Workers))
	}

	// Finally the coordinator itself.
	if err := coordCmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := coordCmd.Wait(); err != nil {
		t.Errorf("coordinator did not drain cleanly: %v", err)
	}
}

// TestUnknownScaleRejected pins the -scale flag of every binary that
// takes one: a mistyped name exits with status 2 and names the value,
// instead of silently running at paper scale.
func TestUnknownScaleRejected(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess e2e")
	}
	for _, pkg := range []string{"cmd/hidisc-sim", "cmd/hidisc-bench", "cmd/hidisc-serve", "cmd/hidisc-coord"} {
		out, err := exec.Command(buildBin(t, pkg), "-scale", "Test").CombinedOutput()
		var ee *exec.ExitError
		if !errors.As(err, &ee) || ee.ExitCode() != 2 {
			t.Errorf("%s -scale Test: %v, want exit status 2\n%s", pkg, err, out)
		}
		if !bytes.Contains(out, []byte(`"Test"`)) {
			t.Errorf("%s -scale Test: message does not name the value: %s", pkg, out)
		}
	}
}
