package simserver

import (
	"fmt"
	"io"
	"strconv"
	"sync/atomic"
	"time"
)

// histogram is a fixed-bucket latency histogram with lock-free
// observation, rendered in the Prometheus exposition format. Bounds are
// upper bucket edges in seconds; an implicit +Inf bucket catches the
// tail. Sum is kept in integer nanoseconds so Observe stays a pair of
// atomic adds.
type histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	sumNs  atomic.Int64
	total  atomic.Int64
}

// jobLatencyBounds covers simulated-job wall times from sub-millisecond
// test-scale runs to minute-long paper-scale sweeps.
var jobLatencyBounds = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// queueWaitBounds covers admission-queue waits: usually ~0, up to the
// Retry-After ceiling under load.
var queueWaitBounds = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 5, 30,
}

func newHistogram(bounds []float64) *histogram {
	return &histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one duration.
func (h *histogram) Observe(d time.Duration) {
	secs := d.Seconds()
	i := 0
	for i < len(h.bounds) && secs > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sumNs.Add(int64(d))
	h.total.Add(1)
}

// write renders the histogram in exposition format under the given
// metric name. Bucket counts are cumulative per the format.
func (h *histogram) write(w io.Writer, name, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	var cum int64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, formatBound(b), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(w, "%s_sum %s\n", name, formatFloat(float64(h.sumNs.Load())/1e9))
	fmt.Fprintf(w, "%s_count %d\n", name, h.total.Load())
}

func formatBound(b float64) string { return strconv.FormatFloat(b, 'g', -1, 64) }

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Metric is one row of a Prometheus exposition: a sample read from the
// same snapshot the JSON view encodes, so the two views agree by
// construction. Build rows with Counter and Gauge.
type Metric[S any] struct {
	name, help, kind string
	value            func(S) any // an integer, a float64 or a bool
}

// Counter is a row for a monotonically increasing count.
func Counter[S any](name, help string, value func(S) any) Metric[S] {
	return Metric[S]{name, help, "counter", value}
}

// Gauge is a row for a value that can go up and down.
func Gauge[S any](name, help string, value func(S) any) Metric[S] {
	return Metric[S]{name, help, "gauge", value}
}

// WriteMetrics renders rows over one snapshot in the Prometheus text
// exposition format (version 0.0.4). A bool samples as 1 or 0.
func WriteMetrics[S any](w io.Writer, snap S, rows []Metric[S]) {
	for _, m := range rows {
		var v string
		switch x := m.value(snap).(type) {
		case bool:
			v = "0"
			if x {
				v = "1"
			}
		case float64:
			v = formatFloat(x)
		default:
			v = fmt.Sprint(x)
		}
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %s\n", m.name, m.help, m.name, m.kind, m.name, v)
	}
}

// serverMetrics is the worker's exposition, row for row over its JSON
// MetricsSnapshot.
var serverMetrics = []Metric[*MetricsSnapshot]{
	Counter("hidisc_jobs_accepted_total", "Jobs admitted past the bounded queue.", func(m *MetricsSnapshot) any { return m.Accepted }),
	Counter("hidisc_jobs_rejected_total", "Submissions answered 429 by admission control.", func(m *MetricsSnapshot) any { return m.Rejected }),
	Counter("hidisc_jobs_deduped_total", "Submissions that shared another in-flight simulation.", func(m *MetricsSnapshot) any { return m.Deduped }),
	Counter("hidisc_jobs_cache_hits_total", "Submissions answered from the result cache.", func(m *MetricsSnapshot) any { return m.CacheHits }),
	Counter("hidisc_jobs_completed_total", "Jobs that finished successfully.", func(m *MetricsSnapshot) any { return m.Completed }),
	Counter("hidisc_jobs_failed_total", "Jobs that finished with a fault.", func(m *MetricsSnapshot) any { return m.Failed }),
	Counter("hidisc_sim_cycles_total", "Machine cycles simulated since startup.", func(m *MetricsSnapshot) any { return m.SimCycles }),
	Counter("hidisc_sim_insts_total", "Instructions committed by simulations since startup.", func(m *MetricsSnapshot) any { return m.SimInsts }),
	Counter("hidisc_store_hits_total", "Submissions answered from the durable result store.", func(m *MetricsSnapshot) any { return m.Store.Hits }),
	Counter("hidisc_store_misses_total", "Store lookups that fell through to simulation.", func(m *MetricsSnapshot) any { return m.Store.Misses }),
	Counter("hidisc_store_appends_total", "Results appended to the durable result store.", func(m *MetricsSnapshot) any { return m.Store.Puts }),
	Counter("hidisc_store_errors_total", "Store reads/writes that failed (tier degraded).", func(m *MetricsSnapshot) any { return m.Store.Errors }),
	Counter("hidisc_store_recovered_records_total", "Records proven valid by open-time log recovery.", func(m *MetricsSnapshot) any { return m.Store.RecoveredRecords }),
	Counter("hidisc_store_truncated_bytes_total", "Torn-tail bytes truncated by open-time log recovery.", func(m *MetricsSnapshot) any { return m.Store.TruncatedBytes }),
	Gauge("hidisc_jobs_in_flight", "Jobs admitted and not yet finished.", func(m *MetricsSnapshot) any { return m.InFlight }),
	Gauge("hidisc_cache_entries", "Result-cache population.", func(m *MetricsSnapshot) any { return m.CacheEntries }),
	Gauge("hidisc_store_records", "Records in the durable result store.", func(m *MetricsSnapshot) any { return m.Store.Records }),
	Gauge("hidisc_store_degraded", "1 when the store tier has seen an error, else 0 (absent store: 0).", func(m *MetricsSnapshot) any { return m.Store.State == "degraded" }),
	Gauge("hidisc_uptime_seconds", "Seconds since the server started.", func(m *MetricsSnapshot) any { return m.UptimeSeconds }),
}

// runtimeMetrics is the Go runtime slice both roles expose for their
// own process.
var runtimeMetrics = []Metric[*RuntimeMetrics]{
	Gauge("hidisc_go_goroutines", "Live goroutines in this process.", func(m *RuntimeMetrics) any { return m.Goroutines }),
	Gauge("hidisc_go_heap_inuse_bytes", "Heap bytes in in-use spans.", func(m *RuntimeMetrics) any { return m.HeapInuseBytes }),
	Gauge("hidisc_go_gomaxprocs", "Scheduler parallelism (GOMAXPROCS).", func(m *RuntimeMetrics) any { return m.GOMAXPROCS }),
	Counter("hidisc_go_gc_pause_ns_total", "Cumulative stop-the-world GC pause time.", func(m *RuntimeMetrics) any { return m.GCPauseTotalNs }),
	Counter("hidisc_go_gc_cycles_total", "Completed GC cycles.", func(m *RuntimeMetrics) any { return m.GCCycles }),
}

// writePrometheus renders the worker's snapshot rows, its runtime rows
// and the two latency histograms.
func (s *Server) writePrometheus(w io.Writer, m *MetricsSnapshot) {
	WriteMetrics(w, m, serverMetrics)
	WriteRuntimePrometheus(w, m.Runtime)
	s.jobSeconds.write(w, "hidisc_job_seconds", "Wall time of executed simulation jobs.")
	s.queueWaitSeconds.write(w, "hidisc_job_queue_wait_seconds", "Time jobs waited for a worker slot.")
}

// WriteRuntimePrometheus renders the Go runtime rows — exported so the
// cluster coordinator's exposition reports the same metric names for
// its own process.
func WriteRuntimePrometheus(w io.Writer, m RuntimeMetrics) { WriteMetrics(w, &m, runtimeMetrics) }
