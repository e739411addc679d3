package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"hidisc/internal/cluster"
	"hidisc/internal/resultstore"
	"hidisc/internal/simclient"
	"hidisc/internal/simserver"
	"hidisc/internal/tracing"
	"hidisc/internal/workloads"
)

// fleet is an in-process coordinator in front of fleetWorkers simserver
// workers, each with its own result store, all on loopback.
type fleet struct {
	url        string // the coordinator
	workerURLs []string
	workers    []*simserver.Server
	// tracers are the coordinator's then each worker's; nil entries when
	// the fleet is untraced.
	tracers []*tracing.Tracer

	servers []*http.Server
	cancel  context.CancelFunc
	wg      sync.WaitGroup
}

// startFleet opens one store per directory and serves a worker on
// each, then a coordinator over them. spanCap > 0 gives every process a
// tracer with a ring of that many spans.
func startFleet(dirs []string, spanCap int) (f *fleet, err error) {
	f = &fleet{}
	defer func() {
		if err != nil {
			f.stop()
		}
	}()
	newTracer := func(service string) *tracing.Tracer {
		if spanCap <= 0 {
			return nil
		}
		return tracing.New(service, spanCap)
	}
	for _, dir := range dirs {
		st, _, err := resultstore.Open(dir, resultstore.Options{Sync: resultstore.SyncAlways})
		if err != nil {
			return nil, err
		}
		cfg := simserver.DefaultConfig(workloads.ScaleTest)
		cfg.CacheEntries = lruEntries
		cfg.Store = st
		cfg.Tracer = newTracer("hidisc-serve")
		w := simserver.New(cfg)
		f.workers = append(f.workers, w)
		f.tracers = append(f.tracers, cfg.Tracer)
		url, err := f.serve(w.Handler())
		if err != nil {
			return nil, err
		}
		f.workerURLs = append(f.workerURLs, url)
	}
	tr := newTracer("hidisc-coord")
	co := cluster.New(cluster.Config{Scale: workloads.ScaleTest, StaticWorkers: f.workerURLs, Tracer: tr})
	f.tracers = append([]*tracing.Tracer{tr}, f.tracers...)
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		co.Run(ctx)
	}()
	if f.url, err = f.serve(co.Handler()); err != nil {
		return nil, err
	}
	return f, f.waitAlive(len(dirs))
}

func (f *fleet) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h}
	f.servers = append(f.servers, srv)
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		_ = srv.Serve(ln) // returns ErrServerClosed on stop
	}()
	return "http://" + ln.Addr().String(), nil
}

// waitAlive blocks until the coordinator routes to all n workers.
func (f *fleet) waitAlive(n int) error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(f.url + "/healthz")
		if err == nil {
			var h cluster.HealthSnapshot
			derr := json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
			alive := 0
			for _, w := range h.Workers {
				if w.State == cluster.StateAlive {
					alive++
				}
			}
			if derr == nil && alive == n {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return errors.New("fleet: workers not routable after 10s")
}

// stop shuts the servers down, waits for every goroutine the fleet
// started, and closes the stores.
func (f *fleet) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var errs []error
	for i := len(f.servers) - 1; i >= 0; i-- { // coordinator first
		if err := f.servers[i].Shutdown(ctx); err != nil {
			errs = append(errs, err)
		}
	}
	if f.cancel != nil {
		f.cancel()
	}
	f.wg.Wait()
	for _, w := range f.workers {
		if err := w.CloseStore(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// rejected sums the workers' 429 counts.
func (f *fleet) rejected() int64 {
	n := int64(0)
	for _, w := range f.workers {
		n += w.Metrics().Rejected
	}
	return n
}

// newClient is the benchmark's client: no retry policy, so a 429 or a
// transport error is a failure rather than a hidden delay, and one idle
// connection per client goroutine.
func newClient(url string, conns int) *simclient.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = conns
	return simclient.NewWithOptions(url, simclient.Options{HTTPClient: &http.Client{Transport: tr}})
}

// warm compiles every workload on every worker by sending each worker
// one job per workload directly, then checks the coordinator path.
func (f *fleet) warm() error {
	ctx := context.Background()
	for _, url := range f.workerURLs {
		c := newClient(url, 1)
		for _, j := range warmJobs() {
			if err := checkCold(c.Run(ctx, j.req)); err != nil {
				return fmt.Errorf("warm-up %s %s: %w", url, j.req.Workload, err)
			}
		}
		c.HTTPClient.CloseIdleConnections()
	}
	c := newClient(f.url, 1)
	defer c.HTTPClient.CloseIdleConnections()
	if err := checkCold(c.Run(ctx, warmJobs()[0].req)); err != nil {
		return fmt.Errorf("warm-up through the coordinator: %w", err)
	}
	return nil
}
