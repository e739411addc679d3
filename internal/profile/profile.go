// Package profile implements the cache-access profiling pass the
// HiDISC compiler uses to identify "probable cache miss instructions"
// (Section 4.2 of the paper): a functional execution drives the same
// cache hierarchy the timing simulation uses and records per-PC access
// and miss counts for loads and stores (write-allocate misses cost the
// same fill). Instructions whose misses exceed a threshold become the
// seeds of Cache Miss Access Slices.
package profile

import (
	"sort"

	"hidisc/internal/fnsim"
	"hidisc/internal/isa"
	"hidisc/internal/mem"
)

// PCStats counts memory behaviour for one static instruction.
type PCStats struct {
	Accesses uint64
	Misses   uint64

	// Stride detection: an access stream with a repeating address
	// delta is coverable by prefetching a fixed distance ahead.
	prevAddr   uint32
	lastStride int32
	strideHits uint64
}

// MissRatio returns misses per access.
func (s PCStats) MissRatio() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// Strided reports whether the instruction's addresses advance by a
// stable non-zero delta (a streaming access pattern).
func (s PCStats) Strided() bool {
	return s.Accesses > 16 && s.strideHits*2 >= s.Accesses
}

// Stride returns the last observed address delta.
func (s PCStats) Stride() int32 { return s.lastStride }

// Profile is the result of a cache-profiling run. The run executes the
// sequential program to completion, so it is also the program's
// functional reference: ExecutedInsts, Output and MemHash are what
// fnsim.RunProgram reports for the same program.
type Profile struct {
	PerPC         map[int]PCStats
	TotalAccesses uint64
	TotalMisses   uint64
	ExecutedInsts uint64
	Output        []string // the program's OUT lines
	MemHash       uint64   // checksum of the final memory image
}

// CacheProfile runs the sequential program to completion on the
// functional simulator with the given cache configuration, recording
// per-PC load statistics. Time is approximated by the dynamic
// instruction count, which is sufficient to exercise LRU and capacity
// behaviour.
//
// The run uses the simulator's MemObserver hook: non-memory
// instructions execute on the compiled fast path with no per-event
// callback or Event construction at all, and the per-PC statistics
// live in a dense array indexed by pc (the profiled program is
// static), so the profiling pass allocates nothing per instruction.
func CacheProfile(p *isa.Program, hcfg mem.HierConfig, maxInsts uint64) (*Profile, error) {
	return cacheProfile(p, hcfg, maxInsts, false)
}

// CacheProfileInterp is CacheProfile on the pure interpreter (the
// -no-compile path); used by the differential tests.
func CacheProfileInterp(p *isa.Program, hcfg mem.HierConfig, maxInsts uint64) (*Profile, error) {
	return cacheProfile(p, hcfg, maxInsts, true)
}

func cacheProfile(p *isa.Program, hcfg mem.HierConfig, maxInsts uint64, noCompile bool) (*Profile, error) {
	hier, err := mem.NewHierarchy(hcfg)
	if err != nil {
		return nil, err
	}
	sim := fnsim.New(p)
	sim.NoCompile = noCompile
	prof := &Profile{}
	perPC := make([]PCStats, len(p.Insts))
	sim.MemObserver = func(pc int, addr uint32, isLoad, isPref bool) {
		if isPref {
			return
		}
		// InstCount counts the observed instruction, so it equals the
		// per-instruction clock the previous Observer implementation
		// advanced — access times are bit-identical.
		now := int64(sim.InstCount())
		missesBefore := hier.L1DemandMisses()
		hier.Access(now, addr, !isLoad, false)
		missed := hier.L1DemandMisses() > missesBefore
		st := &perPC[pc]
		if st.Accesses > 0 {
			delta := int32(addr - st.prevAddr)
			if delta != 0 && delta == st.lastStride {
				st.strideHits++
			}
			st.lastStride = delta
		}
		st.prevAddr = addr
		st.Accesses++
		prof.TotalAccesses++
		if missed {
			st.Misses++
			prof.TotalMisses++
		}
	}
	if err := sim.Run(maxInsts); err != nil {
		return nil, err
	}
	prof.ExecutedInsts = sim.InstCount()
	prof.Output = sim.Output()
	prof.MemHash = sim.Mem.Checksum()
	prof.PerPC = make(map[int]PCStats, len(p.Insts))
	for pc := range perPC {
		if perPC[pc].Accesses > 0 {
			prof.PerPC[pc] = perPC[pc]
		}
	}
	return prof, nil
}

// Delinquent returns the PCs of loads whose miss ratio is at least
// minRatio and whose absolute miss count is at least minMisses,
// sorted by descending miss count (most delinquent first).
func (prof *Profile) Delinquent(minRatio float64, minMisses uint64) []int {
	var pcs []int
	for pc, st := range prof.PerPC {
		if st.Misses >= minMisses && st.MissRatio() >= minRatio {
			pcs = append(pcs, pc)
		}
	}
	sort.Slice(pcs, func(i, j int) bool {
		a, b := prof.PerPC[pcs[i]], prof.PerPC[pcs[j]]
		if a.Misses != b.Misses {
			return a.Misses > b.Misses
		}
		return pcs[i] < pcs[j]
	})
	return pcs
}
