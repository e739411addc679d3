package cfg

import (
	"math/bits"

	"hidisc/internal/isa"
)

// EntryDef is the pseudo definition index standing for register values
// live at program entry (the initial context: the stack pointer and
// zero-initialised registers).
const EntryDef = -1

// numRegs bounds the architectural register numbers (isa.Reg.IsArch).
const numRegs = 64

// useDefs is one source operand's reaching definitions: defs[lo:hi] of
// the DataFlow. An unused slot has reg isa.RegNone.
type useDefs struct {
	reg    isa.Reg
	lo, hi int32
}

// DataFlow holds instruction-granularity use-def and def-use chains
// computed by reaching-definitions analysis over a Graph.
type DataFlow struct {
	// ud holds, per instruction, one entry for each distinct tracked
	// source register; each entry's definitions are a sorted run of
	// defs.
	ud   [][isa.MaxSources]useDefs
	defs []int
	// du[d] lists the instructions using the value defined by d,
	// sorted.
	du [][]int
}

type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int) { b[i/64] |= 1 << (i % 64) }

func (b bitset) orInto(o bitset) bool {
	changed := false
	for i := range b {
		n := b[i] | o[i]
		if n != b[i] {
			b[i] = n
			changed = true
		}
	}
	return changed
}

func (b bitset) copyFrom(o bitset) {
	copy(b, o)
}

// ReachingDefs computes the dataflow chains for the program in g.
// A definition is any instruction writing an architectural register;
// queue pseudo-registers are not tracked (queue pairing is handled
// structurally by the stream separator).
func ReachingDefs(g *Graph) *DataFlow {
	insts := g.Prog.Insts
	n := len(insts)
	df := &DataFlow{ud: make([][isa.MaxSources]useDefs, n), du: make([][]int, n)}

	// dest[i] is the register instruction i defines, or isa.RegNone.
	dest := make([]isa.Reg, n)
	var defsOf [numRegs][]int // all defs of each register, program-wide
	for i, in := range insts {
		dest[i] = isa.RegNone
		if d := in.Dest(); d.IsArch() && d != isa.R0 {
			dest[i] = d
			defsOf[d] = append(defsOf[d], i)
		}
	}

	// gen, kill, in and out bitsets for every block, carved from one
	// allocation.
	nb := len(g.Blocks)
	words := (n + 63) / 64
	sets := make(bitset, 4*nb*words)
	carve := func() bitset {
		b := sets[:words:words]
		sets = sets[words:]
		return b
	}
	gen := make([]bitset, nb)
	kill := make([]bitset, nb)
	in := make([]bitset, nb)
	out := make([]bitset, nb)
	for b := 0; b < nb; b++ {
		gen[b], kill[b], in[b], out[b] = carve(), carve(), carve(), carve()
	}

	// A block generates the last def of each register it writes and
	// kills every other def of that register, its own earlier ones
	// included.
	var last [numRegs]int
	for _, blk := range g.Blocks {
		for r := range last {
			last[r] = -1
		}
		for i := blk.Start; i < blk.End; i++ {
			if d := dest[i]; d != isa.RegNone {
				last[d] = i
			}
		}
		for r, i := range last {
			if i < 0 {
				continue
			}
			gen[blk.ID].set(i)
			for _, d := range defsOf[r] {
				if d != i {
					kill[blk.ID].set(d)
				}
			}
		}
	}

	// Iterate to fixpoint in reverse postorder.
	rpo := g.ReversePostorder()
	tmp := newBitset(n)
	for changed := true; changed; {
		changed = false
		for _, b := range rpo {
			blk := g.Blocks[b]
			for _, p := range blk.Preds {
				if in[b].orInto(out[p]) {
					changed = true
				}
			}
			// out = gen | (in &^ kill)
			tmp.copyFrom(in[b])
			for i := range tmp {
				tmp[i] = gen[b][i] | (tmp[i] &^ kill[b][i])
			}
			for i := range tmp {
				if tmp[i] != out[b][i] {
					out[b][i] = tmp[i]
					changed = true
				}
			}
		}
	}

	// Walk each block to attribute defs to uses. current[r] holds the
	// defs of r reaching the walk's position, in ascending order; its
	// backing arrays are reused from block to block.
	var current [numRegs][]int
	entry := []int{EntryDef}
	for _, blk := range g.Blocks {
		for r := range current {
			current[r] = current[r][:0]
		}
		for w, word := range in[blk.ID] {
			for ; word != 0; word &= word - 1 {
				d := w*64 + bits.TrailingZeros64(word)
				current[dest[d]] = append(current[dest[d]], d)
			}
		}
		for i := blk.Start; i < blk.End; i++ {
			src, ns := insts[i].SourceList()
			slots := &df.ud[i]
			for k := range slots {
				slots[k].reg = isa.RegNone
			}
			used := 0
		operands:
			for _, r := range src[:ns] {
				if !r.IsArch() || r == isa.R0 {
					continue
				}
				for _, u := range slots[:used] {
					if u.reg == r {
						continue operands
					}
				}
				ds := current[r]
				if len(ds) == 0 {
					ds = entry
				}
				lo := int32(len(df.defs))
				df.defs = append(df.defs, ds...)
				slots[used] = useDefs{reg: r, lo: lo, hi: int32(len(df.defs))}
				used++
				// Blocks and their instructions are walked in ascending
				// order, so each def-use chain comes out sorted.
				for _, d := range ds {
					if d != EntryDef {
						df.du[d] = append(df.du[d], i)
					}
				}
			}
			if d := dest[i]; d != isa.RegNone {
				current[d] = append(current[d][:0], i)
			}
		}
	}

	return df
}

// Defs returns the definition sites whose value may reach the use of
// register r by instruction i, sorted; EntryDef appears when the
// initial register context may reach the use.
func (df *DataFlow) Defs(i int, r isa.Reg) []int {
	for _, u := range df.ud[i] {
		if u.reg == r && r != isa.RegNone {
			return df.defs[u.lo:u.hi:u.hi]
		}
	}
	return nil
}

// Uses returns the instructions that may consume the value defined by
// instruction d, sorted.
func (df *DataFlow) Uses(d int) []int { return df.du[d] }
