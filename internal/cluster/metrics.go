package cluster

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"hidisc/internal/simclient"
	"hidisc/internal/simserver"
)

// Metrics snapshots the fleet: every reachable worker's /metrics is
// fetched in parallel and summed into the embedded top-level totals, so
// a consumer pointed at the coordinator reads the fleet exactly like
// one big server; per-worker snapshots and the coordinator's own
// routing counters ride alongside.
func (co *Coordinator) Metrics(ctx context.Context) MetricsSnapshot {
	clients := co.fleet.Clients()
	type fetched struct {
		url string
		m   *simserver.MetricsSnapshot
	}
	results := make(chan fetched, len(clients))
	var wg sync.WaitGroup
	for url, c := range clients {
		wg.Add(1)
		go func(url string, c *simclient.Client) {
			defer wg.Done()
			fctx, cancel := context.WithTimeout(ctx, 2*time.Second)
			defer cancel()
			if m, err := c.Metrics(fctx); err == nil {
				results <- fetched{url, &m}
			} else {
				results <- fetched{url, nil}
			}
		}(url, c)
	}
	wg.Wait()
	close(results)

	snap := MetricsSnapshot{Coordinator: co.coordinatorMetrics()}
	byURL := map[string]*simserver.MetricsSnapshot{}
	for f := range results {
		byURL[f.url] = f.m
		if f.m == nil {
			continue
		}
		mergeTotals(&snap.MetricsSnapshot, f.m)
	}
	// Fleet uptime is the coordinator's; summed worker uptimes would
	// read as a fleet older than its oldest member. Likewise the
	// top-level runtime view is the coordinator's own process — summed
	// goroutine counts or GOMAXPROCS across processes are meaningless;
	// per-worker runtimes live in the per-worker snapshots.
	snap.UptimeSeconds = snap.Coordinator.UptimeSeconds
	snap.Runtime = simserver.ReadRuntimeMetrics()
	for _, h := range co.fleet.Health() {
		snap.Workers = append(snap.Workers, WorkerMetrics{
			URL: h.URL, State: h.State, Metrics: byURL[h.URL],
		})
	}
	sort.Slice(snap.Workers, func(i, j int) bool { return snap.Workers[i].URL < snap.Workers[j].URL })
	return snap
}

// mergeTotals folds one worker snapshot into the fleet totals.
// Counters and gauges sum; the store state is the worst across the
// fleet (degraded > ok > off); derived rates are recomputed from the
// summed cycle/instruction counts against fleet uptime by the caller.
func mergeTotals(dst, src *simserver.MetricsSnapshot) {
	dst.Accepted += src.Accepted
	dst.Rejected += src.Rejected
	dst.Deduped += src.Deduped
	dst.CacheHits += src.CacheHits
	dst.Completed += src.Completed
	dst.Failed += src.Failed
	dst.InFlight += src.InFlight
	dst.CacheEntries += src.CacheEntries
	dst.Workers += src.Workers
	dst.Queue += src.Queue
	dst.Capacity += src.Capacity
	dst.SimCycles += src.SimCycles
	dst.SimInsts += src.SimInsts
	dst.MCyclesPerSec += src.MCyclesPerSec
	dst.SimMIPS += src.SimMIPS
	dst.Throughput = fmt.Sprintf("%.2f Mcycles/s, %.2f MIPS (fleet)", dst.MCyclesPerSec, dst.SimMIPS)
	dst.Store.Hits += src.Store.Hits
	dst.Store.Misses += src.Store.Misses
	dst.Store.Puts += src.Store.Puts
	dst.Store.Errors += src.Store.Errors
	dst.Store.Records += src.Store.Records
	dst.Store.RecoveredRecords += src.Store.RecoveredRecords
	dst.Store.TornTail = dst.Store.TornTail || src.Store.TornTail
	dst.Store.TruncatedBytes += src.Store.TruncatedBytes
	dst.Store.State = worseStore(dst.Store.State, src.Store.State)
}

// worseStore orders store states by severity: degraded > ok > off.
func worseStore(a, b string) string {
	rank := func(s string) int {
		switch s {
		case "degraded":
			return 2
		case "ok":
			return 1
		}
		return 0
	}
	if rank(b) > rank(a) {
		return b
	}
	if a == "" {
		return "off"
	}
	return a
}

func (co *Coordinator) coordinatorMetrics() CoordinatorMetrics {
	uptime := time.Since(co.start).Seconds()
	routed := co.routed.Load()
	m := CoordinatorMetrics{
		Routed:        routed,
		Failed:        co.failed.Load(),
		Requeued:      co.requeued.Load(),
		Rerouted:      co.rerouted.Load(),
		Throttled:     co.throttled.Load(),
		Rejected:      co.Rejected(),
		Registered:    co.registered.Load(),
		Deregistered:  co.deregistered.Load(),
		WorkerDeaths:  co.workerDeaths.Load(),
		UptimeSeconds: uptime,
	}
	if uptime > 0 {
		m.JobsPerSec = float64(routed) / uptime
	}
	for _, h := range co.fleet.Health() {
		switch h.State {
		case StateAlive:
			m.WorkersAlive++
		case StateSuspect:
			m.WorkersSuspect++
		case StateDead:
			m.WorkersDead++
		}
	}
	m.FleetInFlight, m.FleetCapacity, _ = co.fleet.Occupancy()
	return m
}

// MetricsView serves GET /metrics: the merged fleet snapshot, and its
// Prometheus rendering.
func (co *Coordinator) MetricsView(ctx context.Context) (any, func(io.Writer)) {
	snap := co.Metrics(ctx)
	return snap, func(w io.Writer) { writePrometheus(w, &snap) }
}

// coordMetrics is the coordinator's exposition, row for row over its
// JSON snapshot: the routing counters and the fleet occupancy.
// Fleet-summed simulation counters are deliberately not re-exported: a
// scraper that wants them scrapes the workers (labelled at the source)
// rather than double counting through the coordinator.
var coordMetrics = []simserver.Metric[*MetricsSnapshot]{
	simserver.Counter("hidisc_coord_jobs_routed_total", "Jobs successfully forwarded to a worker.", func(m *MetricsSnapshot) any { return m.Coordinator.Routed }),
	simserver.Counter("hidisc_coord_jobs_failed_total", "Jobs that exhausted attempts or failed fast.", func(m *MetricsSnapshot) any { return m.Coordinator.Failed }),
	simserver.Counter("hidisc_coord_jobs_requeued_total", "In-flight jobs replayed after a worker died under them.", func(m *MetricsSnapshot) any { return m.Coordinator.Requeued }),
	simserver.Counter("hidisc_coord_jobs_rerouted_total", "Jobs completed on a worker other than their ring home.", func(m *MetricsSnapshot) any { return m.Coordinator.Rerouted }),
	simserver.Counter("hidisc_coord_jobs_throttled_total", "Per-worker 429s absorbed by waiting out Retry-After.", func(m *MetricsSnapshot) any { return m.Coordinator.Throttled }),
	simserver.Counter("hidisc_coord_jobs_rejected_total", "Submissions answered 429 by fleet admission.", func(m *MetricsSnapshot) any { return m.Coordinator.Rejected }),
	simserver.Counter("hidisc_coord_workers_registered_total", "Worker registration events.", func(m *MetricsSnapshot) any { return m.Coordinator.Registered }),
	simserver.Counter("hidisc_coord_workers_deregistered_total", "Graceful worker departures.", func(m *MetricsSnapshot) any { return m.Coordinator.Deregistered }),
	simserver.Counter("hidisc_coord_worker_deaths_total", "Workers declared dead (TTL expiry or transport failure).", func(m *MetricsSnapshot) any { return m.Coordinator.WorkerDeaths }),
	simserver.Gauge("hidisc_fleet_workers_alive", "Workers heartbeating within TTL.", func(m *MetricsSnapshot) any { return m.Coordinator.WorkersAlive }),
	simserver.Gauge("hidisc_fleet_workers_suspect", "Workers silent past TTL but still in the ring.", func(m *MetricsSnapshot) any { return m.Coordinator.WorkersSuspect }),
	simserver.Gauge("hidisc_fleet_workers_dead", "Workers out of the ring.", func(m *MetricsSnapshot) any { return m.Coordinator.WorkersDead }),
	simserver.Gauge("hidisc_fleet_capacity", "Summed admission capacity of routable workers.", func(m *MetricsSnapshot) any { return m.Coordinator.FleetCapacity }),
	simserver.Gauge("hidisc_fleet_in_flight", "Coordinator-routed jobs currently forwarded.", func(m *MetricsSnapshot) any { return m.Coordinator.FleetInFlight }),
	simserver.Gauge("hidisc_coord_jobs_per_sec", "Routed jobs per second of coordinator uptime.", func(m *MetricsSnapshot) any { return m.Coordinator.JobsPerSec }),
	simserver.Gauge("hidisc_coord_uptime_seconds", "Seconds since the coordinator started.", func(m *MetricsSnapshot) any { return m.Coordinator.UptimeSeconds }),
}

// writePrometheus renders the coordinator rows, the runtime rows for
// the coordinator's own process, and per-worker liveness as labelled
// gauges.
func writePrometheus(w io.Writer, snap *MetricsSnapshot) {
	simserver.WriteMetrics(w, snap, coordMetrics)
	simserver.WriteRuntimePrometheus(w, snap.Runtime)
	fmt.Fprintf(w, "# HELP hidisc_worker_up Worker liveness (1 alive, 0.5 suspect, 0 dead).\n# TYPE hidisc_worker_up gauge\n")
	for _, wm := range snap.Workers {
		v := "0"
		switch wm.State {
		case StateAlive:
			v = "1"
		case StateSuspect:
			v = "0.5"
		}
		fmt.Fprintf(w, "hidisc_worker_up{worker=%q} %s\n", wm.URL, v)
	}
}
