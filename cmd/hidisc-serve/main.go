// Command hidisc-serve exposes the simulator as a service: a JSON job
// API over experiments.Runner with a content-addressed result cache,
// singleflight deduplication of identical in-flight submissions, and
// bounded-queue admission control (429 + Retry-After under overload).
//
// Usage:
//
//	hidisc-serve [-addr HOST:PORT] [-scale test|paper] [-j N]
//	             [-queue N] [-cache N] [-job-timeout D] [-drain D]
//	             [-store DIR] [-store-sync always|never]
//	             [-coord URL] [-advertise URL]
//
// With -coord, the server joins a hidisc-coord fleet: it registers its
// advertised URL and capacity, heartbeats on the coordinator's cadence,
// and deregisters before draining on SIGTERM so the coordinator stops
// routing to it the moment shutdown starts.
//
//	curl -s localhost:8080/v1/jobs -d '{"workload":"Pointer","arch":"hidisc"}'
//	curl -s localhost:8080/v1/batch -d '{"matrix":"fig8"}'
//	curl -s localhost:8080/metrics
//
// SIGTERM/SIGINT triggers a graceful drain: the health probe flips to
// 503, new submissions are refused, in-flight simulations finish (up
// to -drain), and the process exits 0. A second signal — or an expired
// drain deadline — cancels in-flight machines through the RunContext
// path and exits 1.
//
// -smoke runs the CI self-test: start the server on an ephemeral port,
// run one job through the HTTP client, SIGTERM ourselves, and verify
// the drain exits cleanly.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"hidisc/internal/cluster"
	"hidisc/internal/debugserver"
	"hidisc/internal/machine"
	"hidisc/internal/resultstore"
	"hidisc/internal/simclient"
	"hidisc/internal/simserver"
	"hidisc/internal/tracing"
	"hidisc/internal/workloads"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (port 0 picks an ephemeral port)")
	scale := flag.String("scale", "paper", "default workload scale: test or paper")
	jobs := flag.Int("j", 0, "concurrent simulation workers (<= 0: one per CPU)")
	queue := flag.Int("queue", 64, "admission queue depth beyond the running jobs")
	cacheN := flag.Int("cache", 1024, "result cache entries (0 disables caching)")
	jobTimeout := flag.Duration("job-timeout", 10*time.Minute, "per-job simulation budget (0 = unbounded)")
	drain := flag.Duration("drain", 30*time.Second, "graceful-drain deadline after SIGTERM")
	storeDir := flag.String("store", "", "durable result-store directory (the system of record; empty disables persistence)")
	storeSync := flag.String("store-sync", "always", "store fsync policy: always (every append is durable) or never (OS writeback; crash loses the unsynced tail)")
	coord := flag.String("coord", "", "hidisc-coord base URL to register with (empty: standalone)")
	advertise := flag.String("advertise", "", "base URL the fleet dials this worker at (default http://<listen addr>)")
	traceBuffer := flag.Int("trace-buffer", tracing.DefaultCapacity, "span ring capacity for GET /v1/traces (0 disables tracing)")
	traceMachine := flag.Bool("trace-machine", false, "capture a machine-telemetry Perfetto document on every simulate span (requires tracing)")
	slowJob := flag.Duration("slow-job", 0, "log a warning with the per-stage span breakdown for jobs slower than this (0 disables)")
	debugAddr := flag.String("debug-addr", "", "separate listener for net/http/pprof (empty disables; never exposed on -addr)")
	smoke := flag.Bool("smoke", false, "self-test: serve, run one job via the client, SIGTERM, verify clean drain")
	flag.Parse()

	sc, err := workloads.ParseScale(*scale, workloads.ScalePaper)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hidisc-serve: -scale:", err)
		os.Exit(2)
	}
	// All operational output is structured JSON on stderr: the server's
	// request/job logs and this process's lifecycle lines share one
	// stream a log pipeline can ingest without parsing prose.
	logger := slog.New(slog.NewJSONHandler(os.Stderr, nil))
	cfg := simserver.Config{
		Scale:        sc,
		Workers:      *jobs,
		Queue:        *queue,
		CacheEntries: *cacheN,
		JobTimeout:   *jobTimeout,
		Logger:       logger,
		MachineTrace: *traceMachine,
		SlowJob:      *slowJob,
	}
	if *traceBuffer > 0 {
		cfg.Tracer = tracing.New("hidisc-serve", *traceBuffer)
	}
	if *debugAddr != "" {
		if _, err := debugserver.Start(*debugAddr, logger); err != nil {
			fatal(fmt.Errorf("debug listener: %w", err))
		}
	}
	if *smoke {
		*addr = "127.0.0.1:0"
		cfg.Scale = workloads.ScaleTest
	}
	if *storeDir != "" {
		policy, err := resultstore.ParseSyncPolicy(*storeSync)
		if err != nil {
			fatal(err)
		}
		st, rep, err := resultstore.Open(*storeDir, resultstore.Options{Sync: policy})
		if err != nil {
			// A corrupt system of record is an operator decision, not
			// something to repair silently; refuse to start.
			fatal(fmt.Errorf("opening result store: %w", err))
		}
		logger.Info("result store open",
			"dir", *storeDir, "sync", policy.String(),
			"records", rep.Records, "bytes", rep.Bytes,
			"tornTail", rep.TornTail, "truncatedBytes", rep.TruncatedBytes)
		cfg.Store = st
	}

	srv := simserver.New(cfg)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	logger.Info("listening", "url", fmt.Sprintf("http://%s", ln.Addr()),
		"scale", simserver.ScaleName(cfg.Scale))

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	// Fleet membership: register with the coordinator and heartbeat
	// until shutdown begins.
	var agent *cluster.Agent
	agentCtx, agentCancel := context.WithCancel(context.Background())
	defer agentCancel()
	if *coord != "" {
		adv := *advertise
		if adv == "" {
			adv = fmt.Sprintf("http://%s", ln.Addr())
		}
		agent = &cluster.Agent{Coordinator: *coord, Advertise: adv, Server: srv, Logger: logger}
		go agent.Run(agentCtx)
	}

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)

	if *smoke {
		go runSmoke(fmt.Sprintf("http://%s", ln.Addr()), logger)
	}

	select {
	case err := <-serveErr:
		fatal(err)
	case sig := <-sigs:
		logger.Info("draining", "signal", sig.String(), "deadline", *drain)
	}

	// Leave the fleet first: a deregistered worker gets no new routes,
	// so the drain below only waits on jobs already admitted.
	if agent != nil {
		agentCancel()
		dctx, dcancel := context.WithTimeout(context.Background(), 2*time.Second)
		agent.Deregister(dctx)
		dcancel()
	}
	// Graceful drain: refuse new work, let admitted jobs finish.
	srv.StartDraining()
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	go func() {
		// A second signal forces the issue immediately. Closing the
		// store here too is safe: CloseStore is once-guarded, so this
		// and the main drain path cannot double-close it.
		<-sigs
		logger.Warn("second signal: cancelling in-flight jobs")
		srv.ForceCancel()
		if err := srv.CloseStore(); err != nil {
			logger.Error("closing result store", "err", err.Error())
		}
	}()
	drainErr := srv.Drain(ctx)
	if drainErr != nil {
		logger.Error("drain failed", "err", drainErr.Error())
		srv.ForceCancel()
	}
	// Flush and close the system of record exactly once — CloseStore is
	// idempotent, so the force-cancel path above racing a second signal
	// cannot double-close it.
	if err := srv.CloseStore(); err != nil {
		logger.Error("closing result store", "err", err.Error())
		if drainErr == nil {
			drainErr = err
		}
	}
	shutCtx, shutCancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer shutCancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		httpSrv.Close()
	}
	if drainErr != nil {
		os.Exit(1)
	}
	logger.Info("drained, bye")
}

// runSmoke drives the self-test against the live server, then signals
// the main goroutine to drain. Any failure exits non-zero immediately.
func runSmoke(base string, logger *slog.Logger) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	c := simclient.New(base)

	var err error
	for i := 0; i < 50; i++ {
		if err = c.Healthz(ctx); err == nil {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	if err != nil {
		fatal(fmt.Errorf("smoke: healthz never came up: %w", err))
	}

	resp, err := c.Run(ctx, simserver.JobRequest{Workload: "Pointer", Arch: machine.HiDISC})
	if err != nil {
		fatal(fmt.Errorf("smoke: job: %w", err))
	}
	m, err := resp.Decode()
	if err != nil {
		fatal(fmt.Errorf("smoke: decode: %w", err))
	}
	if m.Cycles <= 0 {
		fatal(fmt.Errorf("smoke: implausible measurement: %+v", m))
	}
	// The same job again must come from the result cache.
	again, err := c.Run(ctx, simserver.JobRequest{Workload: "Pointer", Arch: machine.HiDISC})
	if err != nil {
		fatal(fmt.Errorf("smoke: cached job: %w", err))
	}
	if !again.Cached {
		fatal(errors.New("smoke: repeat submission missed the result cache"))
	}
	mts, err := c.Metrics(ctx)
	if err != nil || mts.Completed < 1 || mts.CacheHits < 1 {
		fatal(fmt.Errorf("smoke: metrics %+v: %v", mts, err))
	}
	// The same endpoint, content-negotiated to the Prometheus text
	// exposition, must carry the job-latency histogram.
	if err := checkPromMetrics(ctx, base); err != nil {
		fatal(fmt.Errorf("smoke: %w", err))
	}
	// Tracing is on by default: the jobs above must have left a span
	// tree in the ring, served as NDJSON.
	if err := checkTraces(ctx, c); err != nil {
		fatal(fmt.Errorf("smoke: %w", err))
	}
	logger.Info("smoke ok; sending SIGTERM",
		"workload", m.Workload, "arch", m.Arch, "cycles", m.Cycles)
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		fatal(fmt.Errorf("smoke: self-signal: %w", err))
	}
}

// checkPromMetrics fetches /metrics with Accept: text/plain and
// verifies the Prometheus view is served with the exposition
// content-type and includes the job-latency histogram.
func checkPromMetrics(ctx context.Context, base string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", "text/plain")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		return fmt.Errorf("prom metrics content-type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	for _, want := range []string{
		"# TYPE hidisc_job_seconds histogram",
		"hidisc_job_seconds_count",
		"hidisc_jobs_completed_total",
	} {
		if !strings.Contains(string(body), want) {
			return fmt.Errorf("prom metrics missing %q", want)
		}
	}
	return nil
}

// checkTraces verifies GET /v1/traces serves the span ring: the smoke
// jobs above must have produced a request-root span and a simulate
// span.
func checkTraces(ctx context.Context, c *simclient.Client) error {
	spans, err := c.Traces(ctx, "")
	if err != nil {
		return fmt.Errorf("traces: %w", err)
	}
	want := map[string]bool{"serve POST /v1/jobs": false, "serve.simulate": false}
	for _, s := range spans {
		if _, ok := want[s.Name]; ok {
			want[s.Name] = true
		}
		if s.TraceID == "" || s.SpanID == "" {
			return fmt.Errorf("traces: span %q missing ids", s.Name)
		}
	}
	for name, seen := range want {
		if !seen {
			return fmt.Errorf("traces: no %q span in ring (%d spans)", name, len(spans))
		}
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hidisc-serve:", err)
	os.Exit(1)
}
