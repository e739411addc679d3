// Package mem implements the simulated memory system: a sparse byte-
// addressable main memory holding the architectural data image, and a
// two-level set-associative cache hierarchy used for timing.
//
// The caches are timing-only: data always lives in the Memory image and
// every store updates it at commit, while the caches track presence,
// LRU state, dirtiness and in-flight fills to produce latencies and
// miss statistics. This is the same separation SimpleScalar's
// sim-outorder uses.
package mem

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"
)

const (
	pageBits = 12
	pageSize = 1 << pageBits
	pageMask = pageSize - 1
)

// Memory is a sparse, paged, little-endian byte-addressable memory.
type Memory struct {
	pages map[uint32]*[pageSize]byte

	// Last translation, memoised: accesses have strong page locality,
	// so most lookups skip the map probe entirely. lastPage==nil means
	// the memo is empty (untouched pages are never cached, so a later
	// write to the same page cannot be shadowed by a stale nil).
	lastPN   uint32
	lastPage *[pageSize]byte
}

// NewMemory returns an empty memory image.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint32]*[pageSize]byte)}
}

func (m *Memory) page(addr uint32, create bool) *[pageSize]byte {
	pn := addr >> pageBits
	if m.lastPage != nil && m.lastPN == pn {
		return m.lastPage
	}
	p := m.pages[pn]
	if p == nil && create {
		p = new([pageSize]byte)
		m.pages[pn] = p
	}
	if p != nil {
		m.lastPN, m.lastPage = pn, p
	}
	return p
}

// Read8 returns the byte at addr (0 for untouched memory).
func (m *Memory) Read8(addr uint32) byte {
	if p := m.page(addr, false); p != nil {
		return p[addr&pageMask]
	}
	return 0
}

// Write8 stores one byte.
func (m *Memory) Write8(addr uint32, v byte) {
	m.page(addr, true)[addr&pageMask] = v
}

// Read32 loads a little-endian 32-bit word.
func (m *Memory) Read32(addr uint32) uint32 {
	// Fast path within one page.
	if addr&pageMask <= pageSize-4 {
		if p := m.page(addr, false); p != nil {
			o := addr & pageMask
			return uint32(p[o]) | uint32(p[o+1])<<8 | uint32(p[o+2])<<16 | uint32(p[o+3])<<24
		}
		return 0
	}
	var v uint32
	for i := uint32(0); i < 4; i++ {
		v |= uint32(m.Read8(addr+i)) << (8 * i)
	}
	return v
}

// Write32 stores a little-endian 32-bit word.
func (m *Memory) Write32(addr uint32, v uint32) {
	if addr&pageMask <= pageSize-4 {
		p := m.page(addr, true)
		o := addr & pageMask
		p[o] = byte(v)
		p[o+1] = byte(v >> 8)
		p[o+2] = byte(v >> 16)
		p[o+3] = byte(v >> 24)
		return
	}
	for i := uint32(0); i < 4; i++ {
		m.Write8(addr+i, byte(v>>(8*i)))
	}
}

// Read64 loads a little-endian 64-bit word.
func (m *Memory) Read64(addr uint32) uint64 {
	return uint64(m.Read32(addr)) | uint64(m.Read32(addr+4))<<32
}

// Write64 stores a little-endian 64-bit word.
func (m *Memory) Write64(addr uint32, v uint64) {
	m.Write32(addr, uint32(v))
	m.Write32(addr+4, uint32(v>>32))
}

// ReadFloat64 loads an IEEE-754 double.
func (m *Memory) ReadFloat64(addr uint32) float64 {
	return math.Float64frombits(m.Read64(addr))
}

// WriteFloat64 stores an IEEE-754 double.
func (m *Memory) WriteFloat64(addr uint32, v float64) {
	m.Write64(addr, math.Float64bits(v))
}

// LoadSegment copies data into memory starting at base, a page-sized
// chunk at a time. It touches exactly the pages a byte-by-byte copy
// would, zero bytes included.
func (m *Memory) LoadSegment(base uint32, data []byte) {
	for addr := base; len(data) > 0; {
		n := copy(m.page(addr, true)[addr&pageMask:], data)
		data = data[n:]
		addr += uint32(n)
	}
}

// ReadRange copies n bytes starting at addr into a fresh slice.
func (m *Memory) ReadRange(addr uint32, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = m.Read8(addr + uint32(i))
	}
	return out
}

// Checksum returns a deterministic FNV-1a digest of the entire touched
// memory image. Pages that were allocated but remain all-zero hash the
// same as untouched pages, so images produced by different simulators
// compare equal iff the architectural contents are equal.
func (m *Memory) Checksum() uint64 {
	pns := make([]uint32, 0, len(m.pages))
	for pn, p := range m.pages {
		zero := true
		for _, b := range p {
			if b != 0 {
				zero = false
				break
			}
		}
		if !zero {
			pns = append(pns, pn)
		}
	}
	sort.Slice(pns, func(i, j int) bool { return pns[i] < pns[j] })
	h := fnv.New64a()
	var buf [4]byte
	for _, pn := range pns {
		buf[0], buf[1], buf[2], buf[3] = byte(pn), byte(pn>>8), byte(pn>>16), byte(pn>>24)
		h.Write(buf[:])
		h.Write(m.pages[pn][:])
	}
	return h.Sum64()
}

// Clone returns a deep copy of the memory image.
func (m *Memory) Clone() *Memory {
	c := NewMemory()
	for pn, p := range m.pages {
		cp := new([pageSize]byte)
		*cp = *p
		c.pages[pn] = cp
	}
	return c
}

// String summarises the image.
func (m *Memory) String() string {
	return fmt.Sprintf("memory[%d pages]", len(m.pages))
}
