// Package slicer implements the HiDISC compiler's stream separation
// (Section 4 of the paper): starting from a sequential binary it
//
//  1. derives the program flow graph and reaching definitions,
//  2. seeds the Access Stream with every load, store and control
//     instruction and chases backward slices through register
//     dependences (store *data* operands are not chased — they are the
//     canonical Computation Stream -> Access Stream communication),
//  3. classifies the remainder as the Computation Stream,
//  4. inserts queue communication: Access Stream values consumed by
//     the Computation Stream flow through the LDQ, computed values
//     consumed by stores flow through the SDQ, and every conditional
//     branch outcome flows through the control queue (the generalised
//     End-Of-Data token),
//  5. builds one Cache Miss Access Slice per loop containing
//     delinquent loads (from the cache-access profile), inserting the
//     GETSCQ/PUTSCQ slip-control handshake of Figure 3.
//
// The separation maintains one structural invariant on which queue
// correctness rests: the two streams have isomorphic control-flow
// graphs, and every queue push in one stream has its pop placed at the
// corresponding position of the other, so the k-th push pairs with the
// k-th pop along any executed path.
package slicer

import (
	"fmt"
	"sort"

	"hidisc/internal/cfg"
	"hidisc/internal/isa"
	"hidisc/internal/profile"
)

// Options configures the separation.
type Options struct {
	// Profile enables CMAS construction when non-nil.
	Profile *profile.Profile
	// MinMissRatio and MinMisses select delinquent loads (defaults
	// 0.02 and 256: streaming loads with low per-access miss ratios
	// still account for most total misses, and the CMAS covers them).
	MinMissRatio float64
	MinMisses    uint64
	// PrefetchDistance is the byte offset added to CMAS prefetches of
	// seeds the profile identified as strided (default 256). It is the
	// static form of the runtime prefetch-distance control the paper
	// leaves as future work: streaming misses are covered a fixed
	// distance ahead even when the CMP cannot outrun the demand stream.
	PrefetchDistance int32
	// KeepAllControl disables control-queue thinning: by default the
	// compiler drops the Computation Stream mirror (and the outcome
	// token) of every branch whose region up to its immediate
	// post-dominator contains no Computation Stream work, since the
	// CS's execution is identical on both paths. Pure access-stream
	// loops then cost the CP nothing, instead of one BCQ per
	// iteration.
	KeepAllControl bool
	// BlockingHandshake emits explicit GETSCQ instructions in the
	// Access Stream (the literal Figure 3 handshake, for use with the
	// blocking-SCQ machine option). The default expresses the credit
	// consumption and the CMAS trigger as annotations on the loop's
	// back-edge branch, which costs no issue slots.
	BlockingHandshake bool
}

// maxCMAS bounds the number of slices, and with it the number of CMP
// thread contexts that can be live at once.
const maxCMAS = 8

func (o Options) withDefaults() Options {
	if o.MinMissRatio == 0 {
		o.MinMissRatio = 0.02
	}
	if o.MinMisses == 0 {
		o.MinMisses = 256
	}
	if o.PrefetchDistance == 0 {
		o.PrefetchDistance = 128
	}
	return o
}

// CMAS is one cache-miss access slice: a small loop program executed
// by the Cache Management Processor with a register context forked
// from the Access Processor at the trigger.
type CMAS struct {
	ID            int
	LoopHeader    int   // original instruction index of the loop header
	DelinquentPCs []int // original indices of the seed loads
	Insts         []isa.Inst
	OrigOf        []int // CMAS index -> original index (-1 for inserted)
}

// Bundle is the compiler's output for one program.
type Bundle struct {
	Name string
	// Seq is the annotated sequential binary: every instruction tagged
	// with its stream, plus trigger/SCQ annotations used by the CP+CMP
	// configuration (speculative precomputation on a superscalar).
	Seq *isa.Program
	// CS and AS are the separated computation and access streams.
	CS *isa.Program
	AS *isa.Program
	// CMAS holds the cache management slices (may be empty).
	CMAS []*CMAS

	// CSPos / ASPos map original instruction indices to the stream
	// position where that instruction (or its mirror/pop) begins.
	CSPos []int
	ASPos []int
	// OrigOfCS / OrigOfAS map stream indices back to original indices
	// (-1 for inserted communication instructions).
	OrigOfCS []int
	OrigOfAS []int
}

// Separate runs stream separation on the sequential program p.
func Separate(p *isa.Program, opts Options) (*Bundle, error) {
	opts = opts.withDefaults()
	if err := p.Validate(); err != nil {
		return nil, err
	}
	g, err := cfg.Build(p)
	if err != nil {
		return nil, err
	}
	df := cfg.ReachingDefs(g)

	s := &separator{p: p, g: g, df: df, opts: opts}
	s.classify()
	s.computeMirrored()
	if err := s.planCMAS(); err != nil {
		return nil, err
	}
	b, err := s.buildStreams()
	if err != nil {
		return nil, err
	}
	if err := s.buildCMAS(b); err != nil {
		return nil, err
	}
	if err := b.CS.Validate(); err != nil {
		return nil, fmt.Errorf("slicer: CS invalid: %w", err)
	}
	if err := b.AS.Validate(); err != nil {
		return nil, fmt.Errorf("slicer: AS invalid: %w", err)
	}
	return b, nil
}

type loopPlan struct {
	id        int
	loop      *cfg.Loop
	seeds     []int        // delinquent load indices
	slice     map[int]bool // original indices in the CMAS slice
	headerI   int          // first instruction index of the header block
	backEdges []int        // original indices of the back-edge branches
}

type separator struct {
	p    *isa.Program
	g    *cfg.Graph
	df   *cfg.DataFlow
	opts Options

	access   []bool // classification: true = Access Stream
	mirrored []bool // per control instruction: CS carries a mirror
	plans    []*loopPlan
}

// sliceSources returns the source registers chased by backward slicing
// for instruction i: address operands for memory operations, all
// operands for control and other access-stream instructions. Store
// data operands are deliberately excluded (they are CS->AS queue
// traffic, per Figures 5 and 6 of the paper).
func sliceSources(in isa.Inst) []isa.Reg {
	if in.Op.IsStore() {
		return []isa.Reg{in.Rs}
	}
	var out []isa.Reg
	for _, r := range in.Sources() {
		if r.IsArch() {
			out = append(out, r)
		}
	}
	return out
}

// classify seeds the Access Stream and chases backward slices.
func (s *separator) classify() {
	n := len(s.p.Insts)
	s.access = make([]bool, n)
	var work []int
	for i, in := range s.p.Insts {
		if in.Op.IsMem() || in.Op.IsControl() {
			s.access[i] = true
			work = append(work, i)
		}
	}
	for len(work) > 0 {
		i := work[len(work)-1]
		work = work[:len(work)-1]
		for _, r := range sliceSources(s.p.Insts[i]) {
			if !r.IsArch() || r == isa.R0 {
				continue
			}
			for _, d := range s.df.Defs(i, r) {
				if d == cfg.EntryDef || s.access[d] {
					continue
				}
				s.access[d] = true
				work = append(work, d)
			}
		}
	}
}

// blockHasCSContent reports whether block b holds anything the
// Computation Stream must execute: a CS instruction, an inserted LDQ
// pop (an AS definition with a CS consumer), HALT, or a control
// instruction that is currently mirrored.
func (s *separator) blockHasCSContent(b int, exceptCtl map[int]bool) bool {
	blk := s.g.Blocks[b]
	for i := blk.Start; i < blk.End; i++ {
		in := s.p.Insts[i]
		switch {
		case in.Op == isa.HALT:
			return true
		case in.Op.IsControl():
			if s.mirrored[i] && !exceptCtl[i] {
				return true
			}
		case !s.access[i]:
			return true // CS instruction
		default:
			if d := in.Dest(); d.IsArch() && d != isa.R0 && s.hasCSUse(i) {
				return true // LDQ pop inserted here
			}
		}
	}
	return false
}

// computeMirrored decides, per control instruction, whether the
// Computation Stream carries a mirror (BCQ / J / JCQ). A conditional
// branch is thinned when every path from it to its immediate
// post-dominator is free of CS content; the region's unconditional
// jumps are thinned with it (the CS simply falls through — the region
// emits no CS instructions at all). Indirect jumps are never thinned.
func (s *separator) computeMirrored() {
	n := len(s.p.Insts)
	s.mirrored = make([]bool, n)
	for i, in := range s.p.Insts {
		if in.Op.IsControl() {
			s.mirrored[i] = true
		}
	}
	if s.opts.KeepAllControl {
		return
	}
	ipdom := s.g.PostDominators()

	for changed := true; changed; {
		changed = false
		for i, in := range s.p.Insts {
			if !in.Op.IsCondBranch() || !s.mirrored[i] {
				continue
			}
			b := s.g.BlockOf[i]
			ipd := ipdom[b]
			if ipd < 0 {
				continue // region runs to program exit: HALT is CS content
			}
			// Region: blocks reachable from the branch's successors
			// without entering the post-dominator.
			region := map[int]bool{}
			stack := append([]int(nil), s.g.Blocks[b].Succs...)
			for len(stack) > 0 {
				r := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if r == ipd || region[r] {
					continue
				}
				region[r] = true
				stack = append(stack, s.g.Blocks[r].Succs...)
			}
			// Unconditional direct jumps inside the region are thinned
			// together with the branch, provided they stay inside. A
			// call (JAL) never is: its callee's JR still pushes the
			// return target on the control queue, which the CS would
			// then pop as a branch outcome.
			thinnableCtl := map[int]bool{i: true}
			ok := true
			for r := range region {
				blk := s.g.Blocks[r]
				last := s.p.Insts[blk.End-1]
				if last.Op == isa.J {
					t := s.g.BlockOf[last.Target()]
					if region[t] || t == ipd {
						thinnableCtl[blk.End-1] = true
					}
				}
			}
			for r := range region {
				if s.blockHasCSContent(r, thinnableCtl) {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			for c := range thinnableCtl {
				if s.mirrored[c] {
					s.mirrored[c] = false
					changed = true
				}
			}
		}
	}
}

// hasCSUse reports whether any consumer of the value defined at d is a
// Computation Stream instruction.
func (s *separator) hasCSUse(d int) bool {
	for _, u := range s.df.Uses(d) {
		if !s.access[u] {
			return true
		}
		// A store's data operand is a CS-style use even though the
		// store itself is in the AS only when the def is in CS; here d
		// is an AS def, so AS consumers read it locally.
	}
	return false
}

// hasASUse reports whether any Access Stream instruction consumes the
// value defined at d.
func (s *separator) hasASUse(d int) bool {
	for _, u := range s.df.Uses(d) {
		if s.access[u] {
			return true
		}
	}
	return false
}

// makePop builds the communication instruction popping one value from
// q into register rd, typed by rd's register file.
func makePop(rd isa.Reg, q isa.Reg, stream isa.Stream) isa.Inst {
	ann := isa.Annotation(0).WithStream(stream)
	if rd.IsFP() {
		return isa.Inst{Op: isa.FMOV, Rd: rd, Rs: q, Ann: ann}
	}
	return isa.Inst{Op: isa.ADD, Rd: rd, Rs: q, Rt: isa.R0, Ann: ann}
}

// buildStreams constructs the CS and AS programs plus the annotated
// sequential binary.
func (s *separator) buildStreams() (*Bundle, error) {
	p := s.p
	n := len(p.Insts)
	b := &Bundle{
		Name:  p.Name,
		CSPos: make([]int, n),
		ASPos: make([]int, n),
	}

	seq := p.Clone()
	var csInsts, asInsts []isa.Inst
	var origCS, origAS []int
	var csFix, asFix []int // stream indices whose direct targets need remapping

	appendCS := func(in isa.Inst, orig int, needsFix bool) {
		if needsFix {
			csFix = append(csFix, len(csInsts))
		}
		csInsts = append(csInsts, in)
		origCS = append(origCS, orig)
	}
	appendAS := func(in isa.Inst, orig int, needsFix bool) {
		if needsFix {
			asFix = append(asFix, len(asInsts))
		}
		asInsts = append(asInsts, in)
		origAS = append(origAS, orig)
	}

	// Loop headers that need a GETSCQ (blocking handshake), or
	// back-edge branches that carry the trigger/credit annotations.
	getscqAt := map[int]*loopPlan{} // header first-inst index -> plan
	annotateAt := map[int]*loopPlan{}
	for _, pl := range s.plans {
		if s.opts.BlockingHandshake {
			getscqAt[pl.headerI] = pl
		} else {
			for _, be := range pl.backEdges {
				annotateAt[be] = pl
			}
		}
	}

	for i := 0; i < n; i++ {
		in := p.Insts[i]
		b.CSPos[i] = len(csInsts)
		b.ASPos[i] = len(asInsts)

		if pl, ok := getscqAt[i]; ok {
			// Blocking slip-control handshake at the top of the loop
			// body (Figure 3). The GETSCQ also carries the trigger:
			// forking is idempotent while the CMAS thread runs, and
			// re-forks resynchronise the prefetcher on the next entry.
			ann := isa.Annotation(0).WithStream(isa.StreamAccess).
				WithCMASID(pl.id) | isa.AnnTrigger
			appendAS(isa.Inst{Op: isa.GETSCQ, Imm: int32(pl.id), Ann: ann}, -1, false)
		}
		if pl, ok := annotateAt[i]; ok {
			// Default handshake: the back-edge branch consumes one
			// slip-control credit at commit and (re-)triggers the CMAS
			// thread at dispatch; no instruction is inserted.
			seq.Insts[i].Ann |= isa.AnnTrigger | isa.AnnConsumeSCQ
			seq.Insts[i].Ann = seq.Insts[i].Ann.WithCMASID(pl.id)
		}
		if pl, ok := getscqAt[i]; ok {
			// The annotated sequential binary (CP+CMP configuration)
			// always uses the annotation form.
			seq.Insts[pl.headerI].Ann |= isa.AnnTrigger | isa.AnnConsumeSCQ
			seq.Insts[pl.headerI].Ann = seq.Insts[pl.headerI].Ann.WithCMASID(pl.id)
		}

		switch {
		case in.Op == isa.HALT:
			seq.Insts[i].Ann = seq.Insts[i].Ann.WithStream(isa.StreamAccess)
			appendAS(isa.Inst{Op: isa.HALT, Ann: isa.Annotation(0).WithStream(isa.StreamAccess)}, i, false)
			appendCS(isa.Inst{Op: isa.HALT, Ann: isa.Annotation(0).WithStream(isa.StreamCompute)}, i, false)

		case s.access[i]:
			seq.Insts[i].Ann = seq.Insts[i].Ann.WithStream(isa.StreamAccess)
			cp := in
			cp.Ann = cp.Ann.WithStream(isa.StreamAccess)
			if pl, ok := annotateAt[i]; ok {
				// The Access Stream copy of the back-edge branch
				// carries the trigger and credit-consume annotations.
				cp.Ann |= isa.AnnTrigger | isa.AnnConsumeSCQ
				cp.Ann = cp.Ann.WithCMASID(pl.id)
			}

			// Store data produced by the CS arrives via the SDQ pop
			// placed at the producing instruction; nothing to change
			// on the store itself.

			// Values flowing AS -> CS.
			csUse := false
			if d := in.Dest(); d.IsArch() && d != isa.R0 && s.hasCSUse(i) {
				csUse = true
				if in.Op.IsLoad() && !s.hasASUse(i) {
					// Pure transport: the paper's "l.d $LDQ, ..." form.
					cp.Rd = isa.RegLDQ
				} else {
					cp.Ann |= isa.AnnTapLDQ
				}
			}

			// Control mirroring (thinned branches keep only the AS copy).
			switch {
			case in.Op.IsCondBranch() && s.mirrored[i]:
				cp.Ann |= isa.AnnPushCQ
				appendAS(cp, i, true)
				appendCS(isa.Inst{Op: isa.BCQ, Imm: in.Imm,
					Ann: isa.Annotation(0).WithStream(isa.StreamCompute)}, i, true)
			case (in.Op == isa.J || in.Op == isa.JAL) && s.mirrored[i]:
				appendAS(cp, i, true)
				appendCS(isa.Inst{Op: isa.J, Imm: in.Imm,
					Ann: isa.Annotation(0).WithStream(isa.StreamCompute)}, i, true)
			case in.Op == isa.JR, in.Op == isa.JALR:
				cp.Ann |= isa.AnnPushCQ
				appendAS(cp, i, false)
				appendCS(isa.Inst{Op: isa.JCQ,
					Ann: isa.Annotation(0).WithStream(isa.StreamCompute)}, i, false)
			case in.Op.IsDirectControl():
				appendAS(cp, i, true) // AS keeps the (remapped) branch
			default:
				appendAS(cp, i, false)
			}

			if csUse {
				appendCS(makePop(in.Dest(), isa.RegLDQ, isa.StreamCompute), -1, false)
			}

		default: // Computation Stream
			seq.Insts[i].Ann = seq.Insts[i].Ann.WithStream(isa.StreamCompute)
			cp := in
			cp.Ann = cp.Ann.WithStream(isa.StreamCompute)
			asUse := false
			if d := in.Dest(); d.IsArch() && d != isa.R0 && s.hasASUse(i) {
				asUse = true
				cp.Ann |= isa.AnnTapSDQ
			}
			appendCS(cp, i, false)
			if asUse {
				appendAS(makePop(in.Dest(), isa.RegSDQ, isa.StreamAccess), -1, false)
			}
		}
	}

	// Remap direct control targets into stream coordinates.
	for _, idx := range csFix {
		csInsts[idx].Imm = int32(b.CSPos[csInsts[idx].Imm])
	}
	for _, idx := range asFix {
		asInsts[idx].Imm = int32(b.ASPos[asInsts[idx].Imm])
	}

	remapLabels := func(pos []int) map[string]int {
		out := make(map[string]int, len(p.Labels))
		for name, idx := range p.Labels {
			out[name] = pos[idx]
		}
		return out
	}

	b.Seq = seq
	b.CS = &isa.Program{
		Name:    p.Name + ".cs",
		Insts:   csInsts,
		Entry:   b.CSPos[p.Entry],
		Labels:  remapLabels(b.CSPos),
		Symbols: p.Symbols,
	}
	b.AS = &isa.Program{
		Name:    p.Name + ".as",
		Insts:   asInsts,
		Entry:   b.ASPos[p.Entry],
		Data:    p.Data, // read-only, shared with Seq and the source
		Labels:  remapLabels(b.ASPos),
		Symbols: p.Symbols,
	}
	b.OrigOfCS = origCS
	b.OrigOfAS = origAS
	return b, nil
}

// Stats summarises a separation for reports and tests.
type Stats struct {
	Total      int
	Access     int
	Compute    int
	LDQPushes  int // static count of tapped/pure-push producers
	SDQPushes  int
	CQBranches int
	CMASCount  int
}

// Stats computes static separation statistics from the bundle.
func (b *Bundle) Stats() Stats {
	st := Stats{Total: len(b.Seq.Insts), CMASCount: len(b.CMAS)}
	for _, in := range b.Seq.Insts {
		if in.Ann.Stream() == isa.StreamAccess {
			st.Access++
		} else {
			st.Compute++
		}
	}
	for _, in := range b.AS.Insts {
		if in.Ann.Has(isa.AnnTapLDQ) || in.Dest() == isa.RegLDQ {
			st.LDQPushes++
		}
		if in.Ann.Has(isa.AnnPushCQ) {
			st.CQBranches++
		}
	}
	for _, in := range b.CS.Insts {
		if in.Ann.Has(isa.AnnTapSDQ) {
			st.SDQPushes++
		}
	}
	return st
}

// Report renders a human-readable separation report: per-stream
// listings and CMAS contents.
func (b *Bundle) Report() string {
	var sb []byte
	appendf := func(format string, args ...any) {
		sb = append(sb, fmt.Sprintf(format, args...)...)
	}
	st := b.Stats()
	appendf("stream separation of %q: %d insts -> AS %d, CS %d (static)\n",
		b.Name, st.Total, st.Access, st.Compute)
	appendf("communication: %d LDQ producers, %d SDQ producers, %d CQ branches, %d CMAS\n\n",
		st.LDQPushes, st.SDQPushes, st.CQBranches, st.CMASCount)
	appendf("--- access stream ---\n%s\n", b.AS.Listing())
	appendf("--- computation stream ---\n%s\n", b.CS.Listing())
	for _, c := range b.CMAS {
		appendf("--- CMAS #%d (loop header at seq inst %d, seeds %v) ---\n",
			c.ID, c.LoopHeader, c.DelinquentPCs)
		for i, in := range c.Insts {
			appendf("%6d: %s\n", i, in)
		}
		appendf("\n")
	}
	return string(sb)
}

// planCMAS groups delinquent loads by innermost loop and computes the
// slice sets.
func (s *separator) planCMAS() error {
	if s.opts.Profile == nil {
		return nil
	}
	delinquent := s.opts.Profile.Delinquent(s.opts.MinMissRatio, s.opts.MinMisses)
	if len(delinquent) == 0 {
		return nil
	}
	loops := s.g.NaturalLoops()
	byHeader := map[int]*loopPlan{}
	var order []int
	for _, pc := range delinquent {
		l := s.g.InnermostLoopFor(loops, pc)
		if l == nil {
			continue // miss outside any loop: no slice to run ahead
		}
		headerI := s.g.Blocks[l.Header].Start
		pl := byHeader[headerI]
		if pl == nil {
			if len(byHeader) == maxCMAS {
				continue
			}
			pl = &loopPlan{loop: l, headerI: headerI}
			byHeader[headerI] = pl
			order = append(order, headerI)
		}
		pl.seeds = append(pl.seeds, pc)
	}
	sort.Ints(order)
	id := 0
	for _, h := range order {
		pl := byHeader[h]
		for _, be := range pl.loop.BackEdges {
			pl.backEdges = append(pl.backEdges, s.g.Blocks[be].End-1)
		}
		if !s.computeSlice(pl) {
			continue // e.g. the loop contains a call: no slice, no harm
		}
		pl.id = id
		id++
		s.plans = append(s.plans, pl)
	}
	return nil
}

// computeSlice builds the CMAS instruction set for one loop: the
// backward slices of the delinquent loads restricted to the loop, plus
// the loop's control instructions and their slices. It reports false
// when the loop cannot carry a slice (it contains a call).
func (s *separator) computeSlice(pl *loopPlan) bool {
	inLoop := map[int]bool{}
	for _, i := range pl.loop.Insts(s.g) {
		inLoop[i] = true
	}
	slice := map[int]bool{}
	var work []int
	add := func(i int) {
		if !slice[i] {
			slice[i] = true
			work = append(work, i)
		}
	}
	for _, pc := range pl.seeds {
		add(pc)
	}
	// Loop control: keep only what makes the slice iterate and
	// terminate — the back-edge branches and any branch that can leave
	// the loop. Interior control (e.g. an inner chain walk, a
	// conditional update) is dropped: the slice glues the surviving
	// instructions in program order, which may drift from the demand
	// stream but only ever mis-prefetches; this is the "selective"
	// slice reduction the paper's future-work section motivates, and
	// without it a slice degenerates into re-running the whole loop.
	backEdgeInsts := map[int]bool{}
	for _, be := range pl.loop.BackEdges {
		backEdgeInsts[s.g.Blocks[be].End-1] = true
	}
	for i := range inLoop {
		in := s.p.Insts[i]
		if in.Op == isa.JAL || in.Op == isa.JALR || in.Op == isa.JR {
			return false
		}
		if !in.Op.IsControl() {
			continue
		}
		if backEdgeInsts[i] {
			add(i)
			continue
		}
		if in.Op.IsCondBranch() {
			exits := !pl.loop.Contains(s.g, in.Target()) ||
				(i+1 < len(s.p.Insts) && !pl.loop.Contains(s.g, i+1))
			if exits {
				add(i)
			}
		}
	}
	for len(work) > 0 {
		i := work[len(work)-1]
		work = work[:len(work)-1]
		for _, r := range sliceSources(s.p.Insts[i]) {
			if !r.IsArch() || r == isa.R0 {
				continue
			}
			for _, d := range s.df.Defs(i, r) {
				if d == cfg.EntryDef || !inLoop[d] {
					continue // live-in: provided by the forked context
				}
				add(d)
			}
		}
	}
	// Stores may appear only as seeds (write-allocate misses cost the
	// same fill as load misses); they become address prefetches in the
	// slice. Any other store is removed — the slice must stay free of
	// side effects.
	seedSet := map[int]bool{}
	for _, pc := range pl.seeds {
		seedSet[pc] = true
	}
	for i := range slice {
		if s.p.Insts[i].Op.IsStore() && !seedSet[i] {
			delete(slice, i)
		}
	}
	pl.slice = slice
	return true
}

// buildCMAS materialises the CMAS programs planned by planCMAS.
func (s *separator) buildCMAS(b *Bundle) error {
	for _, pl := range s.plans {
		c := &CMAS{ID: pl.id, LoopHeader: pl.headerI, DelinquentPCs: pl.seeds}

		loopInsts := pl.loop.Insts(s.g)
		// Which slice loads feed other slice instructions (their value
		// is needed to keep chasing)? Others become pure prefetches.
		valueNeeded := map[int]bool{}
		for _, i := range loopInsts {
			if !pl.slice[i] || !s.p.Insts[i].Op.IsLoad() {
				continue
			}
			for _, u := range s.df.Uses(i) {
				if pl.slice[u] {
					valueNeeded[i] = true
					break
				}
			}
		}

		// Identify back-edge branches: last instruction of a back-edge
		// block targeting the header.
		backEdge := map[int]bool{}
		for _, be := range pl.loop.BackEdges {
			blk := s.g.Blocks[be]
			backEdge[blk.End-1] = true
		}

		// Prefetch distance for strided seeds (see Options).
		strideAhead := func(i int) int32 {
			if s.opts.Profile == nil {
				return 0
			}
			if st, ok := s.opts.Profile.PerPC[i]; ok && st.Strided() {
				return s.opts.PrefetchDistance
			}
			return 0
		}

		pos := map[int]int{} // original index -> CMAS index
		var fixups []int
		for _, i := range loopInsts {
			if !pl.slice[i] {
				continue
			}
			in := s.p.Insts[i]
			if backEdge[i] {
				// Slip-control credit: one per iteration, deposited
				// just before looping back (Figure 3's PUT_SCQ).
				c.Insts = append(c.Insts, isa.Inst{Op: isa.PUTSCQ, Imm: int32(pl.id),
					Ann: isa.Annotation(0).WithStream(isa.StreamCMAS).WithCMASID(pl.id)})
				c.OrigOf = append(c.OrigOf, -1)
			}
			pos[i] = len(c.Insts)
			cp := in
			cp.Ann = isa.Annotation(0).WithStream(isa.StreamCMAS).WithCMASID(pl.id)
			switch {
			case in.Op.IsLoad() && !valueNeeded[i]:
				cp = isa.Inst{Op: isa.PREF, Rs: in.Rs, Imm: in.Imm + strideAhead(i), Ann: cp.Ann}
			case in.Op.IsStore():
				// Seed store: prefetch the write-allocate target line.
				cp = isa.Inst{Op: isa.PREF, Rs: in.Rs, Imm: in.Imm + strideAhead(i), Ann: cp.Ann}
			}
			if cp.Op.IsDirectControl() {
				fixups = append(fixups, len(c.Insts))
			}
			c.Insts = append(c.Insts, cp)
			c.OrigOf = append(c.OrigOf, i)
		}
		haltIdx := len(c.Insts)
		c.Insts = append(c.Insts, isa.Inst{Op: isa.HALT,
			Ann: isa.Annotation(0).WithStream(isa.StreamCMAS).WithCMASID(pl.id)})
		c.OrigOf = append(c.OrigOf, -1)

		// Remap branch targets: a target inside the loop maps to the
		// first included instruction at or after it; anything else
		// (loop exit) maps to the HALT.
		inLoopSorted := loopInsts
		remap := func(t int) int32 {
			if !pl.loop.Contains(s.g, t) {
				return int32(haltIdx)
			}
			for _, i := range inLoopSorted {
				if i >= t {
					if p, ok := pos[i]; ok {
						return int32(p)
					}
				}
			}
			return int32(haltIdx)
		}
		for _, fi := range fixups {
			c.Insts[fi].Imm = remap(int(c.Insts[fi].Imm))
		}
		b.CMAS = append(b.CMAS, c)
	}
	return nil
}
