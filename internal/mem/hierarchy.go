package mem

import (
	"fmt"
	"math"

	"hidisc/internal/simfault"
)

// HierConfig describes the full data-memory hierarchy. The defaults
// reproduce Table 1 of the paper.
//
// The JSON field names are a stable wire format shared by the
// hidisc-serve API, its client, and configuration files; changing a
// tag is a breaking protocol change (pinned by TestHierConfigJSON).
type HierConfig struct {
	L1D        CacheConfig `json:"l1d"`
	L2         CacheConfig `json:"l2"`
	MemLatency int         `json:"memLatency"` // main-memory access latency in CPU cycles
}

// DefaultHierConfig returns the paper's Table 1 hierarchy: L1D 256
// sets / 32 B blocks / 4-way LRU / 1 cycle; unified L2 1024 sets / 64 B
// blocks / 4-way LRU / 12 cycles; memory 120 cycles.
func DefaultHierConfig() HierConfig {
	return HierConfig{
		L1D:        CacheConfig{Name: "dl1", Sets: 256, Ways: 4, BlockSize: 32, Latency: 1},
		L2:         CacheConfig{Name: "ul2", Sets: 1024, Ways: 4, BlockSize: 64, Latency: 12},
		MemLatency: 120,
	}
}

// WithLatencies returns a copy with the L2 and memory latencies
// replaced; used for the Figure 10 latency-tolerance sweep.
func (c HierConfig) WithLatencies(l2, mem int) HierConfig {
	c.L2.Latency = l2
	c.MemLatency = mem
	return c
}

// Validate checks the configuration.
func (c HierConfig) Validate() error {
	if err := c.L1D.Validate(); err != nil {
		return err
	}
	if err := c.L2.Validate(); err != nil {
		return err
	}
	if c.MemLatency < 1 {
		return fmt.Errorf("hierarchy: memory latency %d must be >= 1", c.MemLatency)
	}
	if c.L2.BlockSize < c.L1D.BlockSize {
		return fmt.Errorf("hierarchy: L2 block (%d) smaller than L1 block (%d)", c.L2.BlockSize, c.L1D.BlockSize)
	}
	return nil
}

// HierStats aggregates hierarchy-level counters.
type HierStats struct {
	L1D             CacheStats
	L2              CacheStats
	MemWritebacks   uint64 // dirty L2 evictions (timing ignored)
	MSHRMergedHits  uint64 // demand accesses merged into an in-flight fill
	PrefetchIssued  uint64
	InFlightAtReset int
}

// mshrFill is one in-flight L1 block: the block address and the cycle
// its fill completes.
type mshrFill struct {
	block uint32
	ready int64
}

// Hierarchy is the shared data-memory system: an L1 data cache backed
// by a unified L2 backed by main memory, with MSHR-style merging of
// accesses to in-flight blocks.
//
// State (tag arrays, LRU) is updated eagerly at access time; the MSHR
// list records when each in-flight L1 block's fill completes so that
// later accesses to the block are delayed until the data has actually
// arrived. This models a non-blocking cache with unlimited MSHRs, the
// sim-outorder default. The list is kept sorted by completion cycle
// and bounded by the number of outstanding misses: completed entries
// are pruned from the front on every access, and NextFill (the
// event-driven cycle skipper's clock) is O(1).
type Hierarchy struct {
	cfg  HierConfig
	L1D  *Cache
	L2   *Cache
	mshr []mshrFill // in flight, sorted ascending by ready cycle

	l1BlockShift uint // log2(L1 block size), precomputed

	// probe, when attached, observes miss/fill/prefetch traffic for the
	// telemetry trace sink. Nil (the default) costs a pointer check per
	// event site, pinned by the AllocsPerRun test.
	probe Probe

	memWritebacks  uint64
	mergedHits     uint64
	prefetchIssued uint64
}

// Probe observes memory-system events for the telemetry trace sink:
// demand/prefetch misses per level, L1 fill reservations with their
// completion cycle, prefetch issues, and the in-flight fill count
// whenever it changes. Implementations are pure observers — they must
// not touch the hierarchy or perturb timing.
type Probe interface {
	CacheMiss(level string, addr uint32, prefetch bool)
	CacheFill(level string, addr uint32, readyAt int64)
	PrefetchIssued(addr uint32)
	MSHROccupancy(n int)
}

// NewHierarchy builds a hierarchy.
func NewHierarchy(cfg HierConfig) (*Hierarchy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	l1, err := NewCache(cfg.L1D)
	if err != nil {
		return nil, err
	}
	l2, err := NewCache(cfg.L2)
	if err != nil {
		return nil, err
	}
	bb := uint(0)
	for 1<<bb != cfg.L1D.BlockSize {
		bb++
	}
	return &Hierarchy{
		cfg:          cfg,
		L1D:          l1,
		L2:           l2,
		l1BlockShift: bb,
	}, nil
}

// Config returns the hierarchy configuration.
func (h *Hierarchy) Config() HierConfig { return h.cfg }

// SetProbe attaches an event observer (nil detaches).
func (h *Hierarchy) SetProbe(p Probe) { h.probe = p }

// Access simulates one data access issued at cycle now and returns the
// cycle at which the data is available (loads) or the write is accepted
// (stores). Prefetch accesses fill the caches and are tracked
// separately in the statistics; they never raise demand-miss counters.
func (h *Hierarchy) Access(now int64, addr uint32, write, prefetch bool) int64 {
	if prefetch {
		h.prefetchIssued++
		if h.probe != nil {
			h.probe.PrefetchIssued(addr)
		}
	}
	// Prune completed fills from the sorted front. This is driven purely
	// by the access sequence, so skip and no-skip runs prune identically.
	pruned := false
	for len(h.mshr) > 0 && h.mshr[0].ready <= now {
		h.mshr = h.mshr[:copy(h.mshr, h.mshr[1:])]
		pruned = true
	}
	if pruned && h.probe != nil {
		h.probe.MSHROccupancy(len(h.mshr))
	}
	l1lat := int64(h.cfg.L1D.Latency)
	block := h.L1D.BlockAddr(addr)
	if h.L1D.Access(addr, write, prefetch) {
		if ready, ok := h.fillTime(block); ok && now < ready {
			// Line is still in flight: merge into the pending fill.
			if !prefetch {
				h.L1D.MarkDelayedHit()
				h.mergedHits++
			}
			return ready
		}
		return now + l1lat
	}

	// L1 miss: consult L2, fill both levels, record fill time.
	if h.probe != nil {
		h.probe.CacheMiss("l1d", addr, prefetch)
	}
	fill := l1lat + int64(h.cfg.L2.Latency)
	if !h.L2.Access(addr, false, prefetch) {
		if h.probe != nil {
			h.probe.CacheMiss("l2", addr, prefetch)
		}
		fill += int64(h.cfg.MemLatency)
		_, _, wb := h.L2.Fill(addr, false, prefetch)
		if wb {
			h.memWritebacks++
		}
	}
	evicted, evValid, wb := h.L1D.Fill(addr, write, prefetch)
	if evValid {
		// If the victim was itself in flight its MSHR entry is dead.
		h.dropFill(evicted)
		if wb {
			evAddr := evicted << h.l1BlockShift
			if !h.L2.WritebackTo(evAddr) {
				h.memWritebacks++
			}
		}
	}
	ready := now + fill
	h.insertFill(block, ready)
	if h.probe != nil {
		h.probe.CacheFill("l1d", addr, ready)
		h.probe.MSHROccupancy(len(h.mshr))
	}
	return ready
}

// fillTime returns the completion cycle of the in-flight fill for an L1
// block, if one is outstanding.
func (h *Hierarchy) fillTime(block uint32) (int64, bool) {
	for i := range h.mshr {
		if h.mshr[i].block == block {
			return h.mshr[i].ready, true
		}
	}
	return 0, false
}

// dropFill removes the MSHR entry for a block, preserving order.
func (h *Hierarchy) dropFill(block uint32) {
	for i := range h.mshr {
		if h.mshr[i].block == block {
			h.mshr = append(h.mshr[:i], h.mshr[i+1:]...)
			return
		}
	}
}

// insertFill records an in-flight fill, keeping the list sorted by
// completion cycle (ties keep insertion order, so the order is
// deterministic).
func (h *Hierarchy) insertFill(block uint32, ready int64) {
	h.mshr = append(h.mshr, mshrFill{block: block, ready: ready})
	for i := len(h.mshr) - 1; i > 0 && h.mshr[i-1].ready > ready; i-- {
		h.mshr[i-1], h.mshr[i] = h.mshr[i], h.mshr[i-1]
	}
}

// NextFill returns the earliest cycle strictly after now at which an
// in-flight fill completes, or math.MaxInt64 when nothing is in flight.
// The machine's event-driven fast-forward uses it as the memory
// system's next-wakeup clock. O(1) in the common case: the list is
// sorted by completion cycle and completed entries are pruned on every
// access.
func (h *Hierarchy) NextFill(now int64) int64 {
	for i := range h.mshr {
		if h.mshr[i].ready > now {
			return h.mshr[i].ready
		}
	}
	return math.MaxInt64
}

// InFlight returns how many L1 fills are outstanding at cycle now
// (the MSHR occupancy the telemetry sampler records).
func (h *Hierarchy) InFlight(now int64) int {
	n := 0
	for i := range h.mshr {
		if h.mshr[i].ready > now {
			n++
		}
	}
	return n
}

// Present reports whether addr currently hits in L1 with its fill
// complete at cycle now; used by tests and the prefetch-usefulness
// accounting.
func (h *Hierarchy) Present(now int64, addr uint32) bool {
	if !h.L1D.Lookup(addr) {
		return false
	}
	if ready, ok := h.fillTime(h.L1D.BlockAddr(addr)); ok && now < ready {
		return false
	}
	return true
}

// Stats returns the aggregated counters.
func (h *Hierarchy) Stats() HierStats {
	return HierStats{
		L1D:             h.L1D.Stats(),
		L2:              h.L2.Stats(),
		MemWritebacks:   h.memWritebacks,
		MSHRMergedHits:  h.mergedHits,
		PrefetchIssued:  h.prefetchIssued,
		InFlightAtReset: len(h.mshr),
	}
}

// L1DemandMisses returns the L1 data cache's demand-miss count, the
// one counter the cache-profile pass reads after every access; it
// copies no statistics.
func (h *Hierarchy) L1DemandMisses() uint64 { return h.L1D.stats.DemandMisses }

// FaultState summarises the hierarchy for a fault snapshot: MSHR
// entries whose fill has not completed by cycle now, plus the demand
// traffic at both levels.
func (h *Hierarchy) FaultState(now int64) simfault.HierState {
	inFlight := 0
	for i := range h.mshr {
		if h.mshr[i].ready > now {
			inFlight++
		}
	}
	l1, l2 := h.L1D.Stats(), h.L2.Stats()
	return simfault.HierState{
		MSHRInFlight:      inFlight,
		L1DDemandAccesses: l1.DemandAccesses,
		L1DDemandMisses:   l1.DemandMisses,
		L2DemandAccesses:  l2.DemandAccesses,
		L2DemandMisses:    l2.DemandMisses,
		PrefetchIssued:    h.prefetchIssued,
	}
}

// Reset flushes both cache levels, clears in-flight state and zeroes
// statistics.
func (h *Hierarchy) Reset() {
	h.L1D.Flush()
	h.L1D.ResetStats()
	h.L2.Flush()
	h.L2.ResetStats()
	h.mshr = h.mshr[:0]
	h.memWritebacks, h.mergedHits, h.prefetchIssued = 0, 0, 0
}
