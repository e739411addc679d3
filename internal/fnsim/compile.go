// Compiled simulation: instead of re-interpreting an immutable program
// one Step at a time, each basic block (cfg.Build) is pre-translated
// into a sequence of micro-ops with operand registers, immediates and
// successor PCs resolved at translate time. A computational op runs
// straight from its isa semantics entry, rd <- Fn(r[rs], r[rt] | b),
// so the entry is the only call it costs; memory, control and
// faulting ops run a specialized closure. Blocks execute straight-line
// with a single PC update at the block edge, and the per-instruction
// queue / annotation checks of the interpreter are elided entirely for
// the (overwhelmingly common) queue-free block.
//
// The fallback contract: any instruction the translator cannot
// specialize — queue operations (pops, pushes, taps, BCQ/JCQ,
// GETSCQ/PUTSCQ), OUT/OUTF/HALT, statically invalid operand classes,
// unknown ops — marks its whole block as interp, and Run executes that
// block through the ordinary Step interpreter. Fallback therefore
// happens only at block boundaries, the interpreter and the compiled
// chain observe identical architectural state at every boundary, and
// Step-level co-simulation (internal/slicer) is untouched. Results are
// bit-identical to the interpreter — registers, memory, output,
// instruction counts, error strings and the Sim state at an error —
// pinned by the differential and fuzz tests.
//
// A second, MemObserver-aware translation of every block serves the
// cache profiler without putting an observer nil-check in the plain
// fast path; the two translations share the micro-ops of non-memory
// instructions.
package fnsim

import (
	"fmt"

	"hidisc/internal/cfg"
	"hidisc/internal/isa"
)

// cop is the closure of a translated instruction. Closures never touch
// s.pc except to end a block (control transfers) or to rewind it to
// their own instruction when they fail, so the Sim is left exactly as
// the interpreter would leave it.
type cop func(*Sim) error

// uop is one translated instruction: a closure, or, when op is nil,
// the computational op rd <- fn(r[rs], r[rt] | b). The immediate forms
// read R0 as rt and carry the immediate in b; the two-source forms
// have b = 0. A conditional branch is a uop that writes nothing (rd is
// R0): its value decides the block's exit.
type uop struct {
	op         cop
	fn         func(a, b uint64) uint64
	b          uint64
	rd, rs, rt isa.Reg
}

// cblock is the translation of one basic block. Run performs the
// block's PC update after its last op, except for a jump, whose
// closure performs it.
type cblock struct {
	start, end int
	interp     bool  // execute through Step (fallback contract above)
	exit       uint8 // how Run leaves the block (exitFall..exitJump)
	target     int   // a conditional branch's taken target
	ops        []uop // plain translation
	obsOps     []uop // MemObserver-aware translation
}

// Block exits.
const (
	exitFall = uint8(iota) // pc <- end
	exitCond               // pc <- target if the last uop's value is nonzero, else end
	exitJump               // the last closure sets pc
)

// code is the compiled form of one program.
type code struct {
	blocks  []cblock
	blockOf []int // pc -> block index
}

// compile translates p. It returns nil when no control-flow graph can
// be built at all (empty program, control target or entry outside the
// instruction range); the caller then runs the whole program on the
// interpreter, which reports such conditions lazily and only if
// actually executed.
func compile(p *isa.Program) *code {
	g, err := cfg.Build(p)
	if err != nil {
		return nil
	}
	c := &code{blocks: make([]cblock, len(g.Blocks)), blockOf: g.BlockOf}
	qfree := queueFree(p)
	for i, b := range g.Blocks {
		cb := &c.blocks[i]
		cb.start, cb.end = b.Start, b.End
		switch last := p.Insts[b.End-1]; {
		case last.Op.IsCondBranch():
			cb.exit, cb.target = exitCond, last.Target()
		case last.Op.IsControl():
			cb.exit = exitJump
		}
		cb.ops = make([]uop, 0, b.End-b.Start)
		cb.obsOps = make([]uop, 0, b.End-b.Start)
		for pc := b.Start; pc < b.End; pc++ {
			plain, obs, ok := translate(p, pc, b.End, qfree)
			if !ok {
				cb.interp = true
				cb.ops, cb.obsOps = nil, nil
				break
			}
			cb.ops = append(cb.ops, plain)
			cb.obsOps = append(cb.obsOps, obs)
		}
	}
	return c
}

// queueFree reports, per pc, that the instruction touches no
// architectural queue in any way (operands, destination, taps or
// control-queue annotations) — the same derivation New caches in usesQ.
func queueFree(p *isa.Program) []bool {
	out := make([]bool, len(p.Insts))
	for i, in := range p.Insts {
		uses := in.Dest().IsQueue() ||
			in.Ann.Has(isa.AnnTapLDQ) || in.Ann.Has(isa.AnnTapSDQ) || in.Ann.Has(isa.AnnPushCQ)
		src, n := in.SourceList()
		for j := 0; j < n; j++ {
			if src[j].IsQueue() {
				uses = true
			}
		}
		out[i] = !uses
	}
	return out
}

// translate builds the plain and MemObserver-aware micro-ops for the
// instruction at pc inside a block ending at end. ok is false when the
// instruction is unspecializable and its block must fall back to the
// interpreter.
func translate(p *isa.Program, pc, end int, qfree []bool) (plain, obs uop, ok bool) {
	in := p.Insts[pc]
	if !qfree[pc] {
		return uop{}, uop{}, false
	}
	last := pc == end-1
	rd, rs, rt := in.Rd, in.Rs, in.Rt
	closures := func(plainOp, obsOp cop) (uop, uop, bool) {
		return uop{op: plainOp}, uop{op: obsOp}, plainOp != nil
	}

	switch {
	case in.Op == isa.NOP:
		op := func(s *Sim) error { s.instCount++; return nil }
		return closures(op, op)

	case in.Op.IsMem():
		return closures(genMem(in, pc))

	case in.Op.IsJump():
		if !last {
			return uop{}, uop{}, false // control always ends a block; be defensive
		}
		op := genJump(in, pc)
		return closures(op, op)
	}

	// Computational ops and conditional branches run their isa table
	// entry. HALT, OUT, OUTF, GETSCQ, PUTSCQ, BCQ, JCQ (the last two
	// are already rejected by the queue-free gate) and anything
	// unknown are interpreter territory, as is an operand outside the
	// register file its entry names.
	sem, known := in.Op.Semantics()
	if !known ||
		in.Op.ReadsRs() && !rs.InFile(sem.FPSrc) ||
		in.Op.ReadsRt() && !rt.InFile(sem.FPSrc) ||
		in.Op.WritesRd() && !rd.InFile(sem.FPDst) {
		return uop{}, uop{}, false
	}
	// Unread operands read R0, which is always 0.
	u := uop{fn: sem.Fn, rd: rd, rs: rs, rt: rt}
	if !in.Op.ReadsRs() {
		u.rs = isa.R0
	}
	if !in.Op.ReadsRt() {
		u.rt = isa.R0
	}
	if in.Op.ImmOperand() {
		u.b = uint64(uint32(in.Imm))
	}
	if in.Op.IsCondBranch() {
		if !last {
			return uop{}, uop{}, false
		}
		u.rd = isa.R0
	}
	if sem.Fault != "" {
		op := genFaulting(u, sem, pc)
		return closures(op, op)
	}
	return u, u, true
}

// genFaulting translates DIV and REM. The zero-divisor error must
// leave the Sim exactly as the interpreter does (pc at the faulting
// instruction, instruction not counted).
func genFaulting(u uop, sem isa.Sem, pc int) cop {
	return func(s *Sim) error {
		b := s.r[u.rt]
		if sem.Faults(b) {
			s.pc = pc
			return fmt.Errorf("fnsim: pc %d: %s", pc, sem.Fault)
		}
		if u.rd != isa.R0 {
			s.r[u.rd] = u.fn(s.r[u.rs], b)
		}
		s.instCount++
		return nil
	}
}

// genMem translates loads, stores and PREF, returning the plain and
// MemObserver-aware variants. The observer fires after the instruction
// has executed and been counted, so InstCount() inside the callback is
// the same per-instruction clock the interpreter's post-step observer
// sees (the Sim's PC is unspecified during the callback).
func genMem(in isa.Inst, pc int) (plain, obs cop) {
	rd, rs, rt := in.Rd, in.Rs, in.Rt
	if !rs.IsInt() {
		return nil, nil
	}
	uimm := uint32(in.Imm)
	width, fp := in.Op.MemWidth(), in.Op.IsFP()
	switch {
	case in.Op.IsLoad():
		if !rd.InFile(fp) {
			return nil, nil
		}
		load := func(s *Sim) uint32 {
			a := uint32(s.r[rs]) + uimm
			if rd != isa.R0 {
				s.r[rd] = s.Mem.Load(a, width)
			}
			s.instCount++
			return a
		}
		return func(s *Sim) error { load(s); return nil },
			func(s *Sim) error { s.MemObserver(pc, load(s), true, false); return nil }
	case in.Op.IsStore():
		if !rt.InFile(fp) {
			return nil, nil
		}
		store := func(s *Sim) uint32 {
			a := uint32(s.r[rs]) + uimm
			s.Mem.Store(a, width, s.r[rt])
			s.instCount++
			return a
		}
		return func(s *Sim) error { store(s); return nil },
			func(s *Sim) error { s.MemObserver(pc, store(s), false, false); return nil }
	}
	// PREF has no architectural effect: the plain translation only
	// counts.
	return func(s *Sim) error { s.instCount++; return nil },
		func(s *Sim) error {
			a := uint32(s.r[rs]) + uimm
			s.instCount++
			s.MemObserver(pc, a, false, true)
			return nil
		}
}

// genJump translates the block-terminating unconditional control
// transfers. A linking jump writes isa.Link(pc) to its destination.
func genJump(in isa.Inst, pc int) cop {
	rd, rs := isa.R0, in.Rs
	if in.Op.Links() {
		if rd = in.Dest(); !rd.IsInt() {
			return nil
		}
	}
	target := in.Target()
	link := isa.Link(pc)
	if in.Op.IsIndirect() {
		if !rs.IsInt() {
			return nil
		}
		return func(s *Sim) error {
			t := s.r[rs]
			if rd != isa.R0 {
				s.r[rd] = link
			}
			s.instCount++
			s.pc = int(t)
			return nil
		}
	}
	return func(s *Sim) error {
		if rd != isa.R0 {
			s.r[rd] = link
		}
		s.instCount++
		s.pc = target
		return nil
	}
}
