package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// CoreSample is one core's cumulative counters at a sample boundary.
// The machine fills these from cpu.Stats; the sampler differences
// consecutive samples into per-interval rates.
type CoreSample struct {
	Committed uint64
	QueueWait int64 // cycles the oldest entry waited on an architectural queue
	MemWait   int64 // cycles the oldest entry waited on a cache access
}

// Row is the sampler's reusable scratch record. The machine fills it
// with cumulative counters at a sample cycle and calls Record; the
// sampler turns consecutive rows into interval deltas, so filling is
// a plain copy of already-maintained statistics — no per-sample
// bookkeeping inside the components.
type Row struct {
	Cycle  int64
	Cores  []CoreSample
	Queues []int // current occupancy per architectural queue

	L1DAccesses, L1DMisses         uint64 // demand traffic, cumulative
	L2Accesses, L2Misses           uint64
	PrefetchIssued, PrefetchUseful uint64
	MSHR                           int // fills in flight at the sample cycle
}

// Sampler records interval time series. The machine clocks it like
// any other component: Boundary reports the next cycle it must be
// visited at (clamping the idle-cycle fast-forward), Due tests whether
// the current cycle is a boundary, and Record consumes the scratch Row
// the machine filled. NewSampler → (machine attaches, calls Start) →
// Due/Record per boundary → Timeline.
type Sampler struct {
	interval int64
	next     int64
	started  bool

	scratch Row
	prev    Row // previous cumulative sample (interval differencing)

	tl Timeline
}

// DefaultInterval is the sampling interval when none is given.
const DefaultInterval = 1024

// NewSampler returns a sampler recording every interval cycles
// (DefaultInterval when interval <= 0).
func NewSampler(interval int64) *Sampler {
	if interval <= 0 {
		interval = DefaultInterval
	}
	return &Sampler{interval: interval, next: interval}
}

// SetLabel tags the timeline (hidisc-bench labels each job's rows so
// one file can hold a whole run matrix).
func (s *Sampler) SetLabel(label string) { s.tl.Label = label }

// Interval returns the sampling interval in cycles.
func (s *Sampler) Interval() int64 { return s.interval }

// Start sizes the sampler for a machine: the per-core and per-queue
// series it will record. Called once by machine.New; the columnar
// buffers are preallocated here so steady-state recording is append
// into reserved capacity.
func (s *Sampler) Start(cores, queues []string) {
	const reserve = 1024 // rows preallocated per series
	s.started = true
	s.scratch = Row{Cores: make([]CoreSample, len(cores)), Queues: make([]int, len(queues))}
	s.prev = Row{Cores: make([]CoreSample, len(cores)), Queues: make([]int, len(queues))}
	s.tl.Interval = s.interval
	s.tl.Cores = append([]string(nil), cores...)
	s.tl.Queues = append([]string(nil), queues...)
	s.tl.Cycle = make([]int64, 0, reserve)
	col := func(n int) [][]float64 {
		c := make([][]float64, n)
		for i := range c {
			c[i] = make([]float64, 0, reserve)
		}
		return c
	}
	s.tl.CoreIPC = col(len(cores))
	s.tl.CoreLOD = col(len(cores))
	s.tl.CoreMemWait = col(len(cores))
	s.tl.CoreCommitted = make([][]uint64, len(cores))
	for i := range s.tl.CoreCommitted {
		s.tl.CoreCommitted[i] = make([]uint64, 0, reserve)
	}
	s.tl.QueueOcc = make([][]int, len(queues))
	for i := range s.tl.QueueOcc {
		s.tl.QueueOcc[i] = make([]int, 0, reserve)
	}
	s.tl.L1DMissRate = make([]float64, 0, reserve)
	s.tl.L2MissRate = make([]float64, 0, reserve)
	s.tl.MSHROcc = make([]int, 0, reserve)
	s.tl.PrefetchIssued = make([]uint64, 0, reserve)
	s.tl.PrefetchUseful = make([]uint64, 0, reserve)
}

// Due reports whether now is a sample boundary.
func (s *Sampler) Due(now int64) bool { return s.started && now == s.next }

// Boundary returns the next cycle the machine must visit so the
// sampler can observe it. Always strictly greater than the cycle the
// machine is deciding a jump from, so it composes as one more clamp.
func (s *Sampler) Boundary() int64 { return s.next }

// Row returns the scratch row for the machine to fill before Record.
func (s *Sampler) Row() *Row { return &s.scratch }

// Record consumes the filled scratch row: interval deltas against the
// previous sample are appended to the timeline. A row that advances no
// cycles (a run ending exactly on a boundary) is dropped, so the row
// count is exactly ceil(totalCycles/interval).
func (s *Sampler) Record() {
	r := &s.scratch
	cycles := r.Cycle - s.prev.Cycle
	if cycles <= 0 {
		return
	}
	fc := float64(cycles)
	s.tl.Cycle = append(s.tl.Cycle, r.Cycle)
	for i := range r.Cores {
		d := r.Cores[i].Committed - s.prev.Cores[i].Committed
		s.tl.CoreCommitted[i] = append(s.tl.CoreCommitted[i], d)
		s.tl.CoreIPC[i] = append(s.tl.CoreIPC[i], float64(d)/fc)
		s.tl.CoreLOD[i] = append(s.tl.CoreLOD[i], float64(r.Cores[i].QueueWait-s.prev.Cores[i].QueueWait)/fc)
		s.tl.CoreMemWait[i] = append(s.tl.CoreMemWait[i], float64(r.Cores[i].MemWait-s.prev.Cores[i].MemWait)/fc)
	}
	for i, occ := range r.Queues {
		s.tl.QueueOcc[i] = append(s.tl.QueueOcc[i], occ)
	}
	s.tl.L1DMissRate = append(s.tl.L1DMissRate, rate(r.L1DMisses-s.prev.L1DMisses, r.L1DAccesses-s.prev.L1DAccesses))
	s.tl.L2MissRate = append(s.tl.L2MissRate, rate(r.L2Misses-s.prev.L2Misses, r.L2Accesses-s.prev.L2Accesses))
	s.tl.MSHROcc = append(s.tl.MSHROcc, r.MSHR)
	s.tl.PrefetchIssued = append(s.tl.PrefetchIssued, r.PrefetchIssued-s.prev.PrefetchIssued)
	s.tl.PrefetchUseful = append(s.tl.PrefetchUseful, r.PrefetchUseful-s.prev.PrefetchUseful)

	s.prev.Cycle = r.Cycle
	copy(s.prev.Cores, r.Cores)
	copy(s.prev.Queues, r.Queues)
	s.prev.L1DAccesses, s.prev.L1DMisses = r.L1DAccesses, r.L1DMisses
	s.prev.L2Accesses, s.prev.L2Misses = r.L2Accesses, r.L2Misses
	s.prev.PrefetchIssued, s.prev.PrefetchUseful = r.PrefetchIssued, r.PrefetchUseful
	s.prev.MSHR = r.MSHR
	if r.Cycle >= s.next {
		s.next = (r.Cycle/s.interval + 1) * s.interval
	}
}

func rate(n, d uint64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// Timeline returns the recorded series. Valid after the run finishes.
func (s *Sampler) Timeline() *Timeline { return &s.tl }

// Timeline is the sampler's columnar record: one entry per interval
// across every series, indexed the same way (Rows() is the common
// length). The last interval may be partial — its Cycle is the run's
// final cycle count rather than a multiple of Interval.
type Timeline struct {
	Label    string // optional job tag (workload/arch)
	Interval int64
	Cores    []string
	Queues   []string

	Cycle          []int64
	CoreIPC        [][]float64 // committed per cycle over the interval, per core
	CoreCommitted  [][]uint64  // committed instructions in the interval
	CoreLOD        [][]float64 // fraction of interval the oldest entry waited on a queue
	CoreMemWait    [][]float64 // fraction of interval the oldest entry waited on memory
	QueueOcc       [][]int     // occupancy at the boundary, per queue
	L1DMissRate    []float64   // demand misses / demand accesses over the interval
	L2MissRate     []float64
	MSHROcc        []int // fills in flight at the boundary
	PrefetchIssued []uint64
	PrefetchUseful []uint64
}

// Rows returns the number of recorded intervals.
func (t *Timeline) Rows() int { return len(t.Cycle) }

// row builds the export form of interval i. Maps marshal with sorted
// keys, so the encoding is deterministic.
func (t *Timeline) row(i int) map[string]any {
	cores := map[string]any{}
	for c, name := range t.Cores {
		cores[name] = map[string]any{
			"ipc":       round6(t.CoreIPC[c][i]),
			"committed": t.CoreCommitted[c][i],
			"lod":       round6(t.CoreLOD[c][i]),
			"memWait":   round6(t.CoreMemWait[c][i]),
		}
	}
	queues := map[string]int{}
	for q, name := range t.Queues {
		queues[name] = t.QueueOcc[q][i]
	}
	m := map[string]any{
		"cycle":          t.Cycle[i],
		"interval":       t.Interval,
		"cores":          cores,
		"queues":         queues,
		"l1dMissRate":    round6(t.L1DMissRate[i]),
		"l2MissRate":     round6(t.L2MissRate[i]),
		"mshr":           t.MSHROcc[i],
		"prefetchIssued": t.PrefetchIssued[i],
		"prefetchUseful": t.PrefetchUseful[i],
	}
	if t.Label != "" {
		m["label"] = t.Label
	}
	return m
}

// round6 clips float noise so exported rates are stable to read and
// diff (1e-6 resolution is far below anything the analysis uses).
func round6(v float64) float64 { return math.Round(v*1e6) / 1e6 }

// WriteNDJSON writes one JSON object per interval, one per line.
func (t *Timeline) WriteNDJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	for i := range t.Cycle {
		if err := enc.Encode(t.row(i)); err != nil {
			return err
		}
	}
	return nil
}

// WriteCSV writes the timeline as CSV with one header row; per-core
// and per-queue series become <name>_<metric> columns.
func (t *Timeline) WriteCSV(w io.Writer) error {
	head := []string{"cycle"}
	if t.Label != "" {
		head = append(head, "label")
	}
	for _, c := range t.Cores {
		head = append(head, c+"_ipc", c+"_committed", c+"_lod", c+"_memwait")
	}
	for _, q := range t.Queues {
		head = append(head, q+"_occ")
	}
	head = append(head, "l1d_miss_rate", "l2_miss_rate", "mshr", "prefetch_issued", "prefetch_useful")
	if err := writeCSVRow(w, head); err != nil {
		return err
	}
	for i := range t.Cycle {
		row := []string{fmt.Sprint(t.Cycle[i])}
		if t.Label != "" {
			row = append(row, t.Label)
		}
		for c := range t.Cores {
			row = append(row,
				fmt.Sprintf("%.6f", t.CoreIPC[c][i]),
				fmt.Sprint(t.CoreCommitted[c][i]),
				fmt.Sprintf("%.6f", t.CoreLOD[c][i]),
				fmt.Sprintf("%.6f", t.CoreMemWait[c][i]))
		}
		for q := range t.Queues {
			row = append(row, fmt.Sprint(t.QueueOcc[q][i]))
		}
		row = append(row,
			fmt.Sprintf("%.6f", t.L1DMissRate[i]),
			fmt.Sprintf("%.6f", t.L2MissRate[i]),
			fmt.Sprint(t.MSHROcc[i]),
			fmt.Sprint(t.PrefetchIssued[i]),
			fmt.Sprint(t.PrefetchUseful[i]))
		if err := writeCSVRow(w, row); err != nil {
			return err
		}
	}
	return nil
}

func writeCSVRow(w io.Writer, fields []string) error {
	for i, f := range fields {
		if i > 0 {
			if _, err := io.WriteString(w, ","); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, f); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "\n")
	return err
}
