package mem

import "fmt"

// CacheConfig describes one set-associative cache level. The JSON
// tags are part of the HierConfig wire format (see hierarchy.go).
type CacheConfig struct {
	Name      string `json:"name,omitempty"`
	Sets      int    `json:"sets"`      // number of sets (power of two)
	Ways      int    `json:"ways"`      // associativity
	BlockSize int    `json:"blockSize"` // line size in bytes (power of two)
	Latency   int    `json:"latency"`   // access latency in cycles
}

// Validate checks the configuration.
func (c CacheConfig) Validate() error {
	if c.Sets <= 0 || c.Sets&(c.Sets-1) != 0 {
		return fmt.Errorf("cache %s: sets %d must be a positive power of two", c.Name, c.Sets)
	}
	if c.BlockSize <= 0 || c.BlockSize&(c.BlockSize-1) != 0 {
		return fmt.Errorf("cache %s: block size %d must be a positive power of two", c.Name, c.BlockSize)
	}
	if c.Ways <= 0 {
		return fmt.Errorf("cache %s: ways %d must be positive", c.Name, c.Ways)
	}
	if c.Latency < 1 {
		return fmt.Errorf("cache %s: latency %d must be >= 1", c.Name, c.Latency)
	}
	return nil
}

// SizeBytes returns the cache capacity.
func (c CacheConfig) SizeBytes() int { return c.Sets * c.Ways * c.BlockSize }

// CacheStats counts cache events. Demand counters exclude prefetches.
type CacheStats struct {
	Accesses       uint64 // all lookups, including prefetch
	Misses         uint64 // all misses, including prefetch
	DemandAccesses uint64
	DemandMisses   uint64 // demand access, line absent and not in flight
	DelayedHits    uint64 // demand access to an in-flight line
	Writebacks     uint64 // dirty evictions
	PrefetchFills  uint64 // lines brought in by prefetch
	UsefulPrefetch uint64 // prefetched lines later touched by demand
	Evictions      uint64
}

// DemandMissRate returns demand misses per demand access.
func (s CacheStats) DemandMissRate() float64 {
	if s.DemandAccesses == 0 {
		return 0
	}
	return float64(s.DemandMisses) / float64(s.DemandAccesses)
}

// cacheLine is one way of a set. The fields are ordered widest first so
// a line packs into 16 bytes and a 4-way set fits one 64-byte host line.
type cacheLine struct {
	lastUse    uint64 // LRU timestamp
	tag        uint32 // block address (addr >> blockBits)
	valid      bool
	dirty      bool
	prefetched bool // filled by a CMP prefetch, not yet touched by demand
}

// Cache is one timing-only set-associative cache level with true LRU
// replacement.
type Cache struct {
	cfg       CacheConfig
	blockBits uint
	setMask   uint32
	lines     []cacheLine // sets*ways, row-major by set
	tick      uint64
	stats     CacheStats
}

// NewCache builds a cache from its configuration, rejecting invalid
// geometry with an error.
func NewCache(cfg CacheConfig) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	bb := uint(0)
	for 1<<bb != cfg.BlockSize {
		bb++
	}
	return &Cache{
		cfg:       cfg,
		blockBits: bb,
		setMask:   uint32(cfg.Sets - 1),
		lines:     make([]cacheLine, cfg.Sets*cfg.Ways),
	}, nil
}

// Config returns the cache configuration.
func (c *Cache) Config() CacheConfig { return c.cfg }

// BlockAddr returns the block address of a byte address.
func (c *Cache) BlockAddr(addr uint32) uint32 { return addr >> c.blockBits }

func (c *Cache) set(block uint32) []cacheLine {
	s := int(block & c.setMask)
	return c.lines[s*c.cfg.Ways : (s+1)*c.cfg.Ways]
}

// Lookup probes for the block containing addr without modifying state.
func (c *Cache) Lookup(addr uint32) bool {
	block := c.BlockAddr(addr)
	for i := range c.set(block) {
		l := &c.set(block)[i]
		if l.valid && l.tag == block {
			return true
		}
	}
	return false
}

// Access probes the cache, updating LRU and dirty state. It returns
// whether the access hit. On a miss the caller is responsible for
// calling Fill once the lower level has supplied the line.
func (c *Cache) Access(addr uint32, write, prefetch bool) (hit bool) {
	c.tick++
	c.stats.Accesses++
	if !prefetch {
		c.stats.DemandAccesses++
	}
	block := c.BlockAddr(addr)
	set := c.set(block)
	for i := range set {
		l := &set[i]
		if l.valid && l.tag == block {
			l.lastUse = c.tick
			if write {
				l.dirty = true
			}
			if !prefetch && l.prefetched {
				c.stats.UsefulPrefetch++
				l.prefetched = false
			}
			return true
		}
	}
	c.stats.Misses++
	if !prefetch {
		c.stats.DemandMisses++
	}
	return false
}

// MarkDelayedHit records a demand access that hit a line still in
// flight from a previous miss (counted by the hierarchy's MSHRs).
func (c *Cache) MarkDelayedHit() { c.stats.DelayedHits++ }

// WritebackTo marks the line containing addr dirty if present,
// modelling a dirty eviction from the level above landing in this
// level. It reports whether the line was present; when it is not, the
// writeback falls through to main memory.
func (c *Cache) WritebackTo(addr uint32) bool {
	block := c.BlockAddr(addr)
	set := c.set(block)
	for i := range set {
		if set[i].valid && set[i].tag == block {
			set[i].dirty = true
			return true
		}
	}
	return false
}

// Fill allocates the block containing addr, evicting the LRU way.
// It returns the evicted block address and whether a dirty line was
// evicted (for writeback accounting at the caller's discretion).
func (c *Cache) Fill(addr uint32, write, prefetch bool) (evicted uint32, evictedValid, writeback bool) {
	c.tick++
	block := c.BlockAddr(addr)
	set := c.set(block)
	victim := 0
	for i := range set {
		l := &set[i]
		if !l.valid {
			victim = i
			break
		}
		if l.lastUse < set[victim].lastUse {
			victim = i
		}
	}
	v := &set[victim]
	if v.valid {
		evicted, evictedValid = v.tag, true
		c.stats.Evictions++
		if v.dirty {
			writeback = true
			c.stats.Writebacks++
		}
	}
	*v = cacheLine{valid: true, tag: block, dirty: write, prefetched: prefetch, lastUse: c.tick}
	if prefetch {
		c.stats.PrefetchFills++
	}
	return evicted, evictedValid, writeback
}

// Stats returns a copy of the counters.
func (c *Cache) Stats() CacheStats { return c.stats }

// ResetStats zeroes the counters without touching cache contents.
func (c *Cache) ResetStats() { c.stats = CacheStats{} }

// Flush invalidates every line (contents only; stats preserved).
func (c *Cache) Flush() {
	for i := range c.lines {
		c.lines[i] = cacheLine{}
	}
}
