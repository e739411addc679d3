// Package fnsim implements the in-order functional simulator: a plain
// interpreter for sequential (unseparated) programs. It is the
// reference model every timing configuration is validated against, and
// it drives the cache-access profiler that identifies delinquent loads
// for CMAS construction.
package fnsim

import (
	"errors"
	"fmt"
	"math"

	"hidisc/internal/isa"
	"hidisc/internal/mem"
)

// ErrBlocked is returned by Step when the instruction cannot proceed
// because an architectural queue is empty (pop) or full (push). The
// simulator state is unchanged; the caller may retry after running the
// peer stream. Used by the functional co-simulation of separated
// streams.
var ErrBlocked = errors.New("fnsim: blocked on architectural queue")

// QueueEnv connects a Sim to the architectural queues when it executes
// one stream of a separated program. All methods operate immediately
// (the functional model has no speculation).
type QueueEnv interface {
	// PopAvail returns the number of values available to pop from q.
	PopAvail(q isa.Reg) int
	// Pop dequeues the next value; the caller has checked PopAvail.
	Pop(q isa.Reg) uint64
	// PushSpace returns the number of free slots in q.
	PushSpace(q isa.Reg) int
	// Push enqueues a value; the caller has checked PushSpace.
	Push(q isa.Reg, v uint64)
	// GetSCQ consumes one slip-control credit for the given CMAS; it
	// reports false when the caller must block.
	GetSCQ(id int) bool
	// PutSCQ deposits one credit; false when the caller must block.
	PutSCQ(id int) bool
}

// Event describes one executed instruction, delivered to the Observer.
type Event struct {
	PC     int
	Inst   isa.Inst
	IsLoad bool
	IsMem  bool
	Addr   uint32 // effective address for memory operations
	Taken  bool   // branch outcome for control operations
}

// Sim is a functional simulator instance.
type Sim struct {
	prog   *isa.Program
	Mem    *mem.Memory
	pc     int
	halted bool

	// r is the register file indexed by isa.Reg, in the semantics
	// table's register-bits convention: integers zero-extended, FP
	// values as IEEE-754 bits. r[R0] stays 0.
	r [isa.NumIntRegs + isa.NumFPRegs]uint64

	instCount uint64
	output    []string

	// Observer, when non-nil, is invoked after each executed
	// instruction. It forces the per-instruction interpreter: Run will
	// not use the compiled fast path while an Observer is attached.
	Observer func(Event)

	// MemObserver, when non-nil, is invoked after each executed memory
	// instruction (loads, stores and PREF) with the instruction's pc,
	// its effective address, whether it was a load, and whether it was
	// a PREF. Unlike Observer it is supported on the compiled fast path
	// through a dedicated translation (used by the cache profiler). The
	// Sim's PC is unspecified during the callback; InstCount() counts
	// the observed instruction.
	MemObserver func(pc int, addr uint32, isLoad, isPref bool)

	// NoCompile forces Run onto the pure per-instruction interpreter.
	// The compiled and interpreted paths are bit-identical (pinned by
	// the differential tests); the flag keeps the interpreter reachable
	// from CI and -no-compile.
	NoCompile bool

	// code is the lazily built compiled form of the program (nil until
	// first Run, and permanently nil when the program is untranslatable
	// as a whole).
	code         *code
	compileTried bool

	// Queues, when non-nil, enables the HiDISC queue operations so the
	// Sim can execute one stream of a separated program.
	Queues QueueEnv
	// JCQMap translates the producer-coordinate index popped by JCQ
	// into this stream's coordinates (identity when nil).
	JCQMap []int

	// usesQ caches, per pc, whether the instruction touches any
	// architectural queue (pop source, push destination, or tap
	// annotation). The program is immutable, so Step consults this one
	// bool instead of re-deriving the need sets for the overwhelmingly
	// common queue-free instruction.
	usesQ []bool
}

// New prepares a simulator for the program: memory holds the data
// segment, the stack pointer is initialised, and the PC is at entry.
func New(p *isa.Program) *Sim {
	s := &Sim{prog: p, Mem: mem.NewMemory(), pc: p.Entry}
	s.Mem.LoadSegment(isa.DataBase, p.Data)
	s.r[isa.SP] = uint64(isa.StackTop)
	s.usesQ = make([]bool, len(p.Insts))
	for i, in := range p.Insts {
		uses := in.Dest().IsQueue() ||
			in.Ann.Has(isa.AnnTapLDQ) || in.Ann.Has(isa.AnnTapSDQ) || in.Ann.Has(isa.AnnPushCQ)
		src, n := in.SourceList()
		for j := 0; j < n; j++ {
			if src[j].IsQueue() {
				uses = true
			}
		}
		s.usesQ[i] = uses
	}
	return s
}

// Halted reports whether the program has executed HALT.
func (s *Sim) Halted() bool { return s.halted }

// PC returns the current program counter (instruction index).
func (s *Sim) PC() int { return s.pc }

// InstCount returns the number of instructions executed so far.
func (s *Sim) InstCount() uint64 { return s.instCount }

// Output returns the values printed by OUT/OUTF, in order.
func (s *Sim) Output() []string { return s.output }

// IntReg returns the value of an integer register.
func (s *Sim) IntReg(r isa.Reg) uint32 {
	if !r.IsInt() {
		panic(fmt.Sprintf("fnsim: IntReg(%v)", r))
	}
	return uint32(s.r[r])
}

// FPReg returns the value of a floating point register.
func (s *Sim) FPReg(r isa.Reg) float64 {
	if !r.IsFP() {
		panic(fmt.Sprintf("fnsim: FPReg(%v)", r))
	}
	return math.Float64frombits(s.r[r])
}

// Run executes until HALT or maxInsts instructions, whichever first.
// It returns an error for invalid executions (queue operands in a
// sequential program, division by zero, PC out of range).
//
// Runs execute on the compiled fast path (see compile.go) unless
// NoCompile is set or an Observer is attached; the two paths are
// bit-identical in registers, memory, output, instruction counts and
// error behaviour.
func (s *Sim) Run(maxInsts uint64) error {
	if s.NoCompile || s.Observer != nil {
		return s.runInterp(maxInsts)
	}
	if !s.compileTried {
		s.compileTried = true
		s.code = compile(s.prog)
	}
	if s.code == nil {
		return s.runInterp(maxInsts)
	}
	nInsts := len(s.prog.Insts)
	observed := s.MemObserver != nil
	for !s.halted {
		if s.instCount >= maxInsts {
			return fmt.Errorf("fnsim: %q exceeded %d instructions (runaway?)", s.prog.Name, maxInsts)
		}
		if s.pc < 0 || s.pc >= nInsts {
			return fmt.Errorf("fnsim: pc %d out of range", s.pc)
		}
		b := &s.code.blocks[s.code.blockOf[s.pc]]
		// Fallback contract: untranslatable blocks run on the
		// interpreter, as does any block that could overrun the
		// instruction budget mid-chain (the interpreter checks the
		// budget before every instruction, and the runaway error must
		// fire at the exact same instruction on both paths).
		if b.interp || maxInsts-s.instCount < uint64(b.end-s.pc) {
			if err := s.Step(); err != nil {
				return err
			}
			continue
		}
		ops := b.ops
		if observed {
			ops = b.obsOps
		}
		// A closure runs itself; a computational uop runs here, and the
		// last one's value decides a conditional exit (see uop).
		ops = ops[s.pc-b.start:]
		var v uint64
		for i := range ops {
			u := &ops[i]
			if u.op != nil {
				if err := u.op(s); err != nil {
					return err
				}
				continue
			}
			v = u.fn(s.r[u.rs], s.r[u.rt]|u.b)
			if u.rd != isa.R0 {
				s.r[u.rd] = v
			}
			s.instCount++
		}
		switch b.exit {
		case exitFall:
			s.pc = b.end
		case exitCond:
			s.pc = b.end
			if v != 0 {
				s.pc = b.target
			}
		}
	}
	return nil
}

// runInterp is the per-instruction interpreter loop.
func (s *Sim) runInterp(maxInsts uint64) error {
	for !s.halted {
		if s.instCount >= maxInsts {
			return fmt.Errorf("fnsim: %q exceeded %d instructions (runaway?)", s.prog.Name, maxInsts)
		}
		if err := s.Step(); err != nil {
			return err
		}
	}
	return nil
}

// get reads operand r as register bits from the FP file when fp is
// set, the integer file otherwise; a queue operand pops instead.
func (s *Sim) get(r isa.Reg, fp bool) (uint64, error) {
	if r.IsQueue() && s.Queues != nil {
		v := s.Queues.Pop(r)
		if !fp {
			v = uint64(uint32(v))
		}
		return v, nil
	}
	if !r.InFile(fp) {
		return 0, fmt.Errorf("fnsim: pc %d: %s operand %v invalid in this execution mode", s.pc, fileName(fp), r)
	}
	return s.r[r], nil
}

// set writes register bits v to r, which must be in the FP file when
// fp is set and the integer file otherwise; a queue destination pushes.
func (s *Sim) set(r isa.Reg, fp bool, v uint64) error {
	if r.IsQueue() && s.Queues != nil {
		s.Queues.Push(r, v)
		return nil
	}
	if !r.InFile(fp) {
		return fmt.Errorf("fnsim: pc %d: %s destination %v invalid in this execution mode", s.pc, fileName(fp), r)
	}
	if r != isa.R0 {
		s.r[r] = v
	}
	return nil
}

func fileName(fp bool) string {
	if fp {
		return "FP"
	}
	return "integer"
}

// queueReady checks the instruction's queue pops and pushes against
// the environment, returning ErrBlocked when any would block. With no
// environment it returns a descriptive error for queue usage.
func (s *Sim) queueReady(in isa.Inst) error {
	// Needs are tallied in fixed arrays over the four queue registers
	// (RegLDQ..RegSCQ): this runs for every functionally executed
	// instruction, where per-step map allocation dominated the
	// reference simulator's profile.
	var popNeed, pushNeed [int(isa.RegSCQ-isa.RegLDQ) + 1]int
	used := false
	src, n := in.SourceList()
	for i := 0; i < n; i++ {
		if r := src[i]; r.IsQueue() {
			popNeed[r-isa.RegLDQ]++
			used = true
		}
	}
	if d := in.Dest(); d.IsQueue() {
		pushNeed[d-isa.RegLDQ]++
		used = true
	}
	if in.Ann.Has(isa.AnnTapLDQ) {
		pushNeed[0]++ // RegLDQ
		used = true
	}
	if in.Ann.Has(isa.AnnTapSDQ) {
		pushNeed[isa.RegSDQ-isa.RegLDQ]++
		used = true
	}
	if in.Ann.Has(isa.AnnPushCQ) {
		pushNeed[isa.RegCQ-isa.RegLDQ]++
		used = true
	}
	if !used {
		return nil
	}
	if s.Queues == nil {
		return fmt.Errorf("fnsim: pc %d: %v uses architectural queues, invalid in sequential execution", s.pc, in.Op)
	}
	for i, n := range popNeed {
		if n > 0 && s.Queues.PopAvail(isa.RegLDQ+isa.Reg(i)) < n {
			return ErrBlocked
		}
	}
	for i, n := range pushNeed {
		if n > 0 && s.Queues.PushSpace(isa.RegLDQ+isa.Reg(i)) < n {
			return ErrBlocked
		}
	}
	return nil
}

// Step executes one instruction.
func (s *Sim) Step() error {
	if s.halted {
		return nil
	}
	if s.pc < 0 || s.pc >= len(s.prog.Insts) {
		return fmt.Errorf("fnsim: pc %d out of range", s.pc)
	}
	in := s.prog.Insts[s.pc]
	if s.usesQ[s.pc] {
		if err := s.queueReady(in); err != nil {
			return err
		}
	}
	pc := s.pc
	next := s.pc + 1
	var (
		isMem, isLoad, taken bool
		addr                 uint32
	)

	switch in.Op {
	case isa.NOP:
	case isa.HALT:
		s.halted = true

	case isa.LW, isa.LBU, isa.LFD, isa.SW, isa.SB, isa.SFD, isa.PREF:
		base, err := s.get(in.Rs, false)
		if err != nil {
			return err
		}
		addr = uint32(base) + uint32(in.Imm)
		isMem, isLoad = true, in.Op.IsLoad()
		width, fp := in.Op.MemWidth(), in.Op.IsFP()
		switch {
		case isLoad:
			err = s.set(in.Rd, fp, s.Mem.Load(addr, width))
		case in.Op.IsStore():
			var v uint64
			if v, err = s.get(in.Rt, fp); err == nil {
				s.Mem.Store(addr, width, v)
			}
		} // PREF has no architectural effect.
		if err != nil {
			return err
		}

	case isa.J, isa.JAL:
		taken = true
		next = in.Target()
	case isa.JR, isa.JALR:
		t, err := s.get(in.Rs, false)
		if err != nil {
			return err
		}
		taken = true
		next = int(t)

	case isa.OUT:
		v, err := s.get(in.Rs, false)
		if err != nil {
			return err
		}
		s.output = append(s.output, fmt.Sprintf("%d", int32(v)))
	case isa.OUTF:
		v, err := s.get(in.Rs, true)
		if err != nil {
			return err
		}
		s.output = append(s.output, fmt.Sprintf("%g", math.Float64frombits(v)))

	case isa.BCQ:
		token := s.Queues.Pop(isa.RegCQ)
		taken = token != 0
		if taken {
			next = in.Target()
		}
	case isa.JCQ:
		v := int(s.Queues.Pop(isa.RegCQ))
		taken = true
		if s.JCQMap != nil {
			if v < 0 || v >= len(s.JCQMap) {
				return fmt.Errorf("fnsim: pc %d: JCQ token %d out of range", s.pc, v)
			}
			v = s.JCQMap[v]
		}
		next = v

	case isa.GETSCQ, isa.PUTSCQ:
		if s.Queues == nil {
			return fmt.Errorf("fnsim: pc %d: %v uses architectural queues, invalid in sequential execution", s.pc, in.Op)
		}
		if in.Op == isa.GETSCQ {
			if !s.Queues.GetSCQ(int(in.Imm)) {
				return ErrBlocked
			}
		} else if !s.Queues.PutSCQ(int(in.Imm)) {
			return ErrBlocked
		}

	default:
		// Computational ops and conditional branches: the isa table.
		sem, ok := in.Op.Semantics()
		if !ok {
			return fmt.Errorf("fnsim: pc %d: unimplemented op %v", s.pc, in.Op)
		}
		var a, b uint64
		var err error
		if in.Op.ReadsRs() {
			if a, err = s.get(in.Rs, sem.FPSrc); err != nil {
				return err
			}
		}
		if in.Op.ReadsRt() {
			if b, err = s.get(in.Rt, sem.FPSrc); err != nil {
				return err
			}
		} else if in.Op.ImmOperand() {
			b = uint64(uint32(in.Imm))
		}
		if sem.Faults(b) {
			return fmt.Errorf("fnsim: pc %d: %s", s.pc, sem.Fault)
		}
		v := sem.Fn(a, b)
		if in.Op.IsCondBranch() {
			taken = v != 0
			if taken {
				next = in.Target()
			}
		} else if err := s.set(in.Rd, sem.FPDst, v); err != nil {
			return err
		}
	}

	if in.Op.Links() {
		if err := s.set(in.Dest(), false, isa.Link(pc)); err != nil {
			return err
		}
	}

	// Queue taps and control-outcome pushes (the pre-check reserved
	// the space).
	if s.Queues != nil {
		if d := in.Dest(); d.IsArch() {
			if in.Ann.Has(isa.AnnTapLDQ) || in.Ann.Has(isa.AnnTapSDQ) {
				q := isa.RegLDQ
				if in.Ann.Has(isa.AnnTapSDQ) {
					q = isa.RegSDQ
				}
				s.Queues.Push(q, s.r[d])
			}
		}
		if in.Ann.Has(isa.AnnPushCQ) {
			switch {
			case in.Op.IsCondBranch():
				token := uint64(0)
				if taken {
					token = 1
				}
				s.Queues.Push(isa.RegCQ, token)
			case in.Op == isa.JR, in.Op == isa.JALR:
				s.Queues.Push(isa.RegCQ, uint64(uint32(next)))
			}
		}
	}

	s.instCount++
	s.pc = next
	if s.Observer != nil {
		s.Observer(Event{PC: pc, Inst: in, IsLoad: isLoad, IsMem: isMem, Addr: addr, Taken: taken})
	}
	if s.MemObserver != nil && isMem {
		s.MemObserver(pc, addr, isLoad, in.Op == isa.PREF)
	}
	return nil
}

// Result bundles the observable outcome of a run for comparisons.
type Result struct {
	Insts   uint64
	MemHash uint64
	Output  []string
}

// RunProgram executes p to completion and returns its result.
func RunProgram(p *isa.Program, maxInsts uint64) (Result, error) {
	s := New(p)
	if err := s.Run(maxInsts); err != nil {
		return Result{}, err
	}
	return Result{Insts: s.InstCount(), MemHash: s.Mem.Checksum(), Output: s.Output()}, nil
}

// RunProgramInterp executes p to completion on the pure interpreter,
// bypassing the compiled fast path (the -no-compile path). It is used
// by the differential tests and CLI flags that pin the two paths
// bit-identical.
func RunProgramInterp(p *isa.Program, maxInsts uint64) (Result, error) {
	s := New(p)
	s.NoCompile = true
	if err := s.Run(maxInsts); err != nil {
		return Result{}, err
	}
	return Result{Insts: s.InstCount(), MemHash: s.Mem.Checksum(), Output: s.Output()}, nil
}
