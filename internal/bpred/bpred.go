// Package bpred implements the branch prediction structures used by the
// cores: the paper's bimodal predictor, a 2048-entry table of 2-bit
// saturating counters (Table 1), plus a small return-address stack and
// branch target buffer that predict indirect jumps.
package bpred

// Bimodal is a table of 2-bit saturating counters indexed by PC.
type Bimodal struct {
	table []uint8
	mask  int
}

// NewBimodal returns a bimodal predictor with the given table size,
// which must be a power of two. Counters initialise to weakly taken,
// matching SimpleScalar.
func NewBimodal(size int) *Bimodal {
	if size <= 0 || size&(size-1) != 0 {
		panic("bpred: bimodal size must be a positive power of two")
	}
	t := make([]uint8, size)
	for i := range t {
		t[i] = 2 // weakly taken
	}
	return &Bimodal{table: t, mask: size - 1}
}

// Predict returns the predicted direction for the branch at pc (an
// instruction index): true when the counter's top bit is set.
func (b *Bimodal) Predict(pc int) bool {
	return b.table[pc&b.mask] >= 2
}

// Update trains the counter with the resolved outcome.
func (b *Bimodal) Update(pc int, taken bool) {
	c := &b.table[pc&b.mask]
	if taken {
		if *c < 3 {
			*c++
		}
	} else if *c > 0 {
		*c--
	}
}

// BTB is a direct-mapped branch target buffer for indirect jumps.
type BTB struct {
	tags    []int
	targets []int
	mask    int
}

// NewBTB returns a BTB with the given number of entries (power of two).
func NewBTB(size int) *BTB {
	if size <= 0 || size&(size-1) != 0 {
		panic("bpred: BTB size must be a positive power of two")
	}
	b := &BTB{tags: make([]int, size), targets: make([]int, size), mask: size - 1}
	for i := range b.tags {
		b.tags[i] = -1
	}
	return b
}

// Lookup returns the predicted target for the indirect jump at pc.
func (b *BTB) Lookup(pc int) (target int, ok bool) {
	i := pc & b.mask
	if b.tags[i] == pc {
		return b.targets[i], true
	}
	return 0, false
}

// Update records the resolved target.
func (b *BTB) Update(pc, target int) {
	i := pc & b.mask
	b.tags[i] = pc
	b.targets[i] = target
}

// RAS is a return-address stack predicting JR-through-RA returns.
type RAS struct {
	stack []int
	top   int
}

// NewRAS returns a return-address stack with the given depth.
func NewRAS(depth int) *RAS {
	if depth <= 0 {
		panic("bpred: RAS depth must be positive")
	}
	return &RAS{stack: make([]int, depth)}
}

// Push records a return address at a call.
func (r *RAS) Push(ret int) {
	r.stack[r.top%len(r.stack)] = ret
	r.top++
}

// Pop predicts the target of a return. It reports false when empty.
func (r *RAS) Pop() (int, bool) {
	if r.top == 0 {
		return 0, false
	}
	r.top--
	return r.stack[r.top%len(r.stack)], true
}
