package mem

import "testing"

// Access is called for every load, store, and prefetch the machine
// simulates; with no probe attached it must not allocate once the MSHR
// list has grown to its steady-state capacity. Pinned so the telemetry
// hooks can never sneak an allocation into the telemetry-off path.
func TestHierarchyAccessDoesNotAllocate(t *testing.T) {
	h, err := NewHierarchy(DefaultHierConfig())
	if err != nil {
		t.Fatal(err)
	}
	now := int64(0)
	// A strided sweep over a footprint larger than L2 keeps both levels
	// missing, so every access exercises the miss+fill path. Warm up
	// until the MSHR slice has reached its final capacity.
	const stride, footprint = 64, 1 << 22
	addr := uint32(0)
	access := func() {
		h.Access(now, addr, false, false)
		addr = (addr + stride) % footprint
		now += 3
	}
	for i := 0; i < 100_000; i++ {
		access()
	}
	avg := testing.AllocsPerRun(20, func() {
		for i := 0; i < 10_000; i++ {
			access()
		}
	})
	if avg != 0 {
		t.Errorf("Access: %.2f allocs per 10k accesses with nil probe, want 0", avg)
	}
}

// fillProbe records probe callbacks for the wiring test.
type fillProbe struct {
	misses, fills, prefetches int
	lastMSHR                  int
}

func (p *fillProbe) CacheMiss(string, uint32, bool) { p.misses++ }
func (p *fillProbe) CacheFill(string, uint32, int64) {
	p.fills++
}
func (p *fillProbe) PrefetchIssued(uint32) { p.prefetches++ }
func (p *fillProbe) MSHROccupancy(n int)   { p.lastMSHR = n }

func TestHierarchyProbeSeesTraffic(t *testing.T) {
	h, err := NewHierarchy(DefaultHierConfig())
	if err != nil {
		t.Fatal(err)
	}
	p := &fillProbe{}
	h.SetProbe(p)
	h.Access(0, 0x1000, false, false) // cold: L1 and L2 miss, one fill
	h.Access(0, 0x9000, false, true)  // prefetch miss
	if p.misses < 2 {
		t.Errorf("probe saw %d misses, want >= 2 (l1d+l2 per cold access)", p.misses)
	}
	if p.fills != 2 {
		t.Errorf("probe saw %d fills, want 2", p.fills)
	}
	if p.prefetches != 1 {
		t.Errorf("probe saw %d prefetch issues, want 1", p.prefetches)
	}
	if p.lastMSHR != 2 {
		t.Errorf("probe saw MSHR occupancy %d, want 2", p.lastMSHR)
	}
	if got := h.InFlight(0); got != 2 {
		t.Errorf("InFlight(0) = %d, want 2", got)
	}
	// Both fills complete well before cycle 10000.
	if got := h.InFlight(10_000); got != 0 {
		t.Errorf("InFlight(10000) = %d, want 0", got)
	}
}
