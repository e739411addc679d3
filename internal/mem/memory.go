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
	"encoding/binary"
	"fmt"
	"hash/fnv"
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

// Load returns the width bytes at addr (1, 4 or 8), little-endian and
// zero-extended; untouched memory reads 0. An access inside one page
// costs one page lookup; one that crosses a page goes byte by byte.
func (m *Memory) Load(addr, width uint32) uint64 {
	if o := addr & pageMask; o <= pageSize-width {
		p := m.page(addr, false)
		if p == nil {
			return 0
		}
		switch width {
		case 1:
			return uint64(p[o])
		case 4:
			return uint64(binary.LittleEndian.Uint32(p[o:]))
		case 8:
			return binary.LittleEndian.Uint64(p[o:])
		}
	}
	var v uint64
	for i := uint32(0); i < width; i++ {
		if p := m.page(addr+i, false); p != nil {
			v |= uint64(p[(addr+i)&pageMask]) << (8 * i)
		}
	}
	return v
}

// Store writes the low width bytes of v (1, 4 or 8) at addr,
// little-endian, with Load's one page lookup inside a page.
func (m *Memory) Store(addr, width uint32, v uint64) {
	if o := addr & pageMask; o <= pageSize-width {
		p := m.page(addr, true)
		switch width {
		case 1:
			p[o] = byte(v)
			return
		case 4:
			binary.LittleEndian.PutUint32(p[o:], uint32(v))
			return
		case 8:
			binary.LittleEndian.PutUint64(p[o:], v)
			return
		}
	}
	for i := uint32(0); i < width; i++ {
		m.page(addr+i, true)[(addr+i)&pageMask] = byte(v >> (8 * i))
	}
}

// Trunc returns the low width bytes of v, zero-extended: what Load
// reads back after Store(addr, width, v).
func Trunc(v uint64, width uint32) uint64 {
	return v << (64 - 8*width) >> (64 - 8*width)
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
		out[i] = byte(m.Load(addr+uint32(i), 1))
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
