// Command hidisc-coord fronts a fleet of hidisc-serve workers with the
// same job API a single worker serves. Jobs route to workers by
// consistent-hashing the canonical job key, so each worker's result
// cache, durable store and singleflight dedup stay effective on its
// shard of the key space; a worker that dies mid-batch has its
// in-flight jobs requeued onto the ring minus the dead node.
//
// Usage:
//
//	hidisc-coord [-addr HOST:PORT] [-scale test|paper]
//	             [-workers URL,URL,...] [-heartbeat D] [-ttl D]
//	             [-drain D]
//
//	hidisc-serve -addr 127.0.0.1:8081 -coord http://127.0.0.1:8080 &
//	hidisc-serve -addr 127.0.0.1:8082 -coord http://127.0.0.1:8080 &
//	hidisc-coord -addr 127.0.0.1:8080
//	curl -s localhost:8080/v1/batch -d '{"matrix":"fig8"}'
//	hidisc-bench -remote http://127.0.0.1:8080 -fig8
//
// Workers join by registering themselves (hidisc-serve -coord) or by
// being named in -workers, in which case the coordinator probes and
// adopts them. GET /healthz reports per-worker liveness and store
// state; GET /metrics merges the fleet's counters (JSON or Prometheus
// text). SIGTERM/SIGINT drains: new submissions are refused, forwarded
// jobs finish (up to -drain), and the process exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
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
	"hidisc/internal/simclient"
	"hidisc/internal/tracing"
	"hidisc/internal/workloads"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (port 0 picks an ephemeral port)")
	scale := flag.String("scale", "paper", "default workload scale: test or paper")
	workers := flag.String("workers", "", "comma-separated worker base URLs to probe and adopt (workers may also self-register via hidisc-serve -coord)")
	heartbeat := flag.Duration("heartbeat", time.Second, "heartbeat cadence workers are told to use")
	ttl := flag.Duration("ttl", 3*time.Second, "liveness budget: silent past -ttl is suspect, past 2x -ttl is dead")
	drain := flag.Duration("drain", 30*time.Second, "graceful-drain deadline after SIGTERM")
	traceBuffer := flag.Int("trace-buffer", tracing.DefaultCapacity, "span ring capacity for GET /v1/traces (0 disables tracing)")
	traceDir := flag.String("trace-dir", "", "assemble one merged Perfetto trace file per traced request into this directory (requires tracing)")
	debugAddr := flag.String("debug-addr", "", "separate listener for net/http/pprof (empty disables; never exposed on -addr)")
	flag.Parse()

	sc, err := workloads.ParseScale(*scale, workloads.ScalePaper)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hidisc-coord: -scale:", err)
		os.Exit(2)
	}
	logger := slog.New(slog.NewJSONHandler(os.Stderr, nil))

	var static []string
	for _, w := range strings.Split(*workers, ",") {
		if w = strings.TrimSpace(w); w != "" {
			static = append(static, strings.TrimRight(w, "/"))
		}
	}
	ccfg := cluster.Config{
		Scale:             sc,
		HeartbeatInterval: *heartbeat,
		TTL:               *ttl,
		ClientOptions:     simclient.Options{},
		StaticWorkers:     static,
		Logger:            logger,
	}
	if *traceBuffer > 0 {
		ccfg.Tracer = tracing.New("hidisc-coord", *traceBuffer)
	}
	if *traceDir != "" {
		if ccfg.Tracer == nil {
			fatal(fmt.Errorf("-trace-dir requires tracing (-trace-buffer > 0)"))
		}
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fatal(fmt.Errorf("trace dir: %w", err))
		}
		ccfg.TraceDir = *traceDir
	}
	if *debugAddr != "" {
		if _, err := debugserver.Start(*debugAddr, logger); err != nil {
			fatal(fmt.Errorf("debug listener: %w", err))
		}
	}
	co := cluster.New(ccfg)
	runCtx, stopRun := context.WithCancel(context.Background())
	defer stopRun()
	go co.Run(runCtx)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	httpSrv := &http.Server{Handler: co.Handler()}
	logger.Info("listening", "url", fmt.Sprintf("http://%s", ln.Addr()),
		"scale", *scale, "staticWorkers", len(static))

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)

	select {
	case err := <-serveErr:
		fatal(err)
	case sig := <-sigs:
		logger.Info("draining", "signal", sig.String(), "deadline", *drain)
	}

	// Graceful drain: refuse new submissions, let forwarded jobs finish
	// on their workers. A second signal abandons them.
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	go func() {
		<-sigs
		logger.Warn("second signal: abandoning in-flight forwards")
		co.ForceCancel()
	}()
	drainErr := co.Drain(ctx)
	if drainErr != nil {
		logger.Error("drain failed", "err", drainErr.Error())
		co.ForceCancel()
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hidisc-coord:", err)
	os.Exit(1)
}
