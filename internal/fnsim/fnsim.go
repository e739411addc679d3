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
	intR   [isa.NumIntRegs]uint32
	fpR    [isa.NumFPRegs]float64
	pc     int
	halted bool

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
	s.intR[isa.SP] = isa.StackTop
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
	return s.intR[r]
}

// FPReg returns the value of a floating point register.
func (s *Sim) FPReg(r isa.Reg) float64 {
	if !r.IsFP() {
		panic(fmt.Sprintf("fnsim: FPReg(%v)", r))
	}
	return s.fpR[r.FPIndex()]
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
		for _, op := range ops[s.pc-b.start:] {
			if err := op(s); err != nil {
				return err
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

func (s *Sim) getInt(r isa.Reg) (uint32, error) {
	if r.IsQueue() && s.Queues != nil {
		return uint32(s.Queues.Pop(r)), nil
	}
	if !r.IsInt() {
		return 0, fmt.Errorf("fnsim: pc %d: integer operand %v invalid in this execution mode", s.pc, r)
	}
	return s.intR[r], nil
}

func (s *Sim) getFP(r isa.Reg) (float64, error) {
	if r.IsQueue() && s.Queues != nil {
		return math.Float64frombits(s.Queues.Pop(r)), nil
	}
	if !r.IsFP() {
		return 0, fmt.Errorf("fnsim: pc %d: FP operand %v invalid in this execution mode", s.pc, r)
	}
	return s.fpR[r.FPIndex()], nil
}

func (s *Sim) setInt(r isa.Reg, v uint32) error {
	if r.IsQueue() && s.Queues != nil {
		s.Queues.Push(r, uint64(v))
		return nil
	}
	if !r.IsInt() {
		return fmt.Errorf("fnsim: pc %d: integer destination %v invalid in this execution mode", s.pc, r)
	}
	if r != isa.R0 {
		s.intR[r] = v
	}
	return nil
}

func (s *Sim) setFP(r isa.Reg, v float64) error {
	if r.IsQueue() && s.Queues != nil {
		s.Queues.Push(r, math.Float64bits(v))
		return nil
	}
	if !r.IsFP() {
		return fmt.Errorf("fnsim: pc %d: FP destination %v invalid in this execution mode", s.pc, r)
	}
	s.fpR[r.FPIndex()] = v
	return nil
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

	case isa.ADD, isa.SUB, isa.MUL, isa.DIV, isa.REM, isa.AND, isa.OR, isa.XOR,
		isa.NOR, isa.SLL, isa.SRL, isa.SRA, isa.SLT, isa.SLTU:
		a, err := s.getInt(in.Rs)
		if err != nil {
			return err
		}
		b, err := s.getInt(in.Rt)
		if err != nil {
			return err
		}
		v, err := s.intALU(in.Op, a, b)
		if err != nil {
			return err
		}
		if err := s.setInt(in.Rd, v); err != nil {
			return err
		}

	case isa.ADDI, isa.ANDI, isa.ORI, isa.XORI, isa.SLLI, isa.SRLI, isa.SRAI, isa.SLTI:
		a, err := s.getInt(in.Rs)
		if err != nil {
			return err
		}
		v, err := s.intALUImm(in.Op, a, in.Imm)
		if err != nil {
			return err
		}
		if err := s.setInt(in.Rd, v); err != nil {
			return err
		}

	case isa.LI:
		if err := s.setInt(in.Rd, uint32(in.Imm)); err != nil {
			return err
		}
	case isa.LUI:
		if err := s.setInt(in.Rd, uint32(in.Imm)<<16); err != nil {
			return err
		}

	case isa.LW, isa.LBU, isa.LFD:
		base, err := s.getInt(in.Rs)
		if err != nil {
			return err
		}
		addr = base + uint32(in.Imm)
		isMem, isLoad = true, true
		switch in.Op {
		case isa.LW:
			err = s.setInt(in.Rd, s.Mem.Read32(addr))
		case isa.LBU:
			err = s.setInt(in.Rd, uint32(s.Mem.Read8(addr)))
		case isa.LFD:
			err = s.setFP(in.Rd, s.Mem.ReadFloat64(addr))
		}
		if err != nil {
			return err
		}

	case isa.SW, isa.SB, isa.SFD:
		base, err := s.getInt(in.Rs)
		if err != nil {
			return err
		}
		addr = base + uint32(in.Imm)
		isMem = true
		switch in.Op {
		case isa.SW:
			v, err := s.getInt(in.Rt)
			if err != nil {
				return err
			}
			s.Mem.Write32(addr, v)
		case isa.SB:
			v, err := s.getInt(in.Rt)
			if err != nil {
				return err
			}
			s.Mem.Write8(addr, byte(v))
		case isa.SFD:
			v, err := s.getFP(in.Rt)
			if err != nil {
				return err
			}
			s.Mem.WriteFloat64(addr, v)
		}

	case isa.PREF:
		base, err := s.getInt(in.Rs)
		if err != nil {
			return err
		}
		isMem, addr = true, base+uint32(in.Imm)
		// No architectural effect.

	case isa.FADD, isa.FSUB, isa.FMUL, isa.FDIV:
		a, err := s.getFP(in.Rs)
		if err != nil {
			return err
		}
		b, err := s.getFP(in.Rt)
		if err != nil {
			return err
		}
		var v float64
		switch in.Op {
		case isa.FADD:
			v = a + b
		case isa.FSUB:
			v = a - b
		case isa.FMUL:
			v = a * b
		case isa.FDIV:
			v = a / b
		}
		if err := s.setFP(in.Rd, v); err != nil {
			return err
		}

	case isa.FMOV, isa.FNEG, isa.FABS:
		a, err := s.getFP(in.Rs)
		if err != nil {
			return err
		}
		switch in.Op {
		case isa.FNEG:
			a = -a
		case isa.FABS:
			a = math.Abs(a)
		}
		if err := s.setFP(in.Rd, a); err != nil {
			return err
		}

	case isa.CVTIF:
		a, err := s.getInt(in.Rs)
		if err != nil {
			return err
		}
		if err := s.setFP(in.Rd, float64(int32(a))); err != nil {
			return err
		}
	case isa.CVTFI:
		a, err := s.getFP(in.Rs)
		if err != nil {
			return err
		}
		if err := s.setInt(in.Rd, uint32(int32(math.Trunc(a)))); err != nil {
			return err
		}

	case isa.FLT, isa.FLE, isa.FEQ:
		a, err := s.getFP(in.Rs)
		if err != nil {
			return err
		}
		b, err := s.getFP(in.Rt)
		if err != nil {
			return err
		}
		var cond bool
		switch in.Op {
		case isa.FLT:
			cond = a < b
		case isa.FLE:
			cond = a <= b
		case isa.FEQ:
			cond = a == b
		}
		if err := s.setInt(in.Rd, b2u(cond)); err != nil {
			return err
		}

	case isa.BEQ, isa.BNE, isa.BLEZ, isa.BGTZ, isa.BLTZ, isa.BGEZ:
		t, err := s.evalBranch(in)
		if err != nil {
			return err
		}
		taken = t
		if taken {
			next = in.Target()
		}

	case isa.J:
		taken = true
		next = in.Target()
	case isa.JAL:
		taken = true
		if err := s.setInt(isa.RA, uint32(s.pc+1)); err != nil {
			return err
		}
		next = in.Target()
	case isa.JR:
		t, err := s.getInt(in.Rs)
		if err != nil {
			return err
		}
		taken = true
		next = int(t)
	case isa.JALR:
		t, err := s.getInt(in.Rs)
		if err != nil {
			return err
		}
		if err := s.setInt(in.Rd, uint32(s.pc+1)); err != nil {
			return err
		}
		taken = true
		next = int(t)

	case isa.OUT:
		v, err := s.getInt(in.Rs)
		if err != nil {
			return err
		}
		s.output = append(s.output, fmt.Sprintf("%d", int32(v)))
	case isa.OUTF:
		v, err := s.getFP(in.Rs)
		if err != nil {
			return err
		}
		s.output = append(s.output, fmt.Sprintf("%g", v))

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
		return fmt.Errorf("fnsim: pc %d: unimplemented op %v", s.pc, in.Op)
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
				if d.IsFP() {
					s.Queues.Push(q, math.Float64bits(s.fpR[d.FPIndex()]))
				} else {
					s.Queues.Push(q, uint64(s.intR[d]))
				}
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

func (s *Sim) evalBranch(in isa.Inst) (bool, error) {
	a, err := s.getInt(in.Rs)
	if err != nil {
		return false, err
	}
	switch in.Op {
	case isa.BEQ, isa.BNE:
		b, err := s.getInt(in.Rt)
		if err != nil {
			return false, err
		}
		if in.Op == isa.BEQ {
			return a == b, nil
		}
		return a != b, nil
	case isa.BLEZ:
		return int32(a) <= 0, nil
	case isa.BGTZ:
		return int32(a) > 0, nil
	case isa.BLTZ:
		return int32(a) < 0, nil
	case isa.BGEZ:
		return int32(a) >= 0, nil
	}
	return false, fmt.Errorf("fnsim: evalBranch(%v)", in.Op)
}

func (s *Sim) intALU(op isa.Op, a, b uint32) (uint32, error) {
	switch op {
	case isa.ADD:
		return a + b, nil
	case isa.SUB:
		return a - b, nil
	case isa.MUL:
		return uint32(int32(a) * int32(b)), nil
	case isa.DIV:
		if b == 0 {
			return 0, fmt.Errorf("fnsim: pc %d: integer division by zero", s.pc)
		}
		return uint32(int32(a) / int32(b)), nil
	case isa.REM:
		if b == 0 {
			return 0, fmt.Errorf("fnsim: pc %d: integer remainder by zero", s.pc)
		}
		return uint32(int32(a) % int32(b)), nil
	case isa.AND:
		return a & b, nil
	case isa.OR:
		return a | b, nil
	case isa.XOR:
		return a ^ b, nil
	case isa.NOR:
		return ^(a | b), nil
	case isa.SLL:
		return a << (b & 31), nil
	case isa.SRL:
		return a >> (b & 31), nil
	case isa.SRA:
		return uint32(int32(a) >> (b & 31)), nil
	case isa.SLT:
		return b2u(int32(a) < int32(b)), nil
	case isa.SLTU:
		return b2u(a < b), nil
	}
	return 0, fmt.Errorf("fnsim: intALU(%v)", op)
}

func (s *Sim) intALUImm(op isa.Op, a uint32, imm int32) (uint32, error) {
	b := uint32(imm)
	switch op {
	case isa.ADDI:
		return a + b, nil
	case isa.ANDI:
		return a & b, nil
	case isa.ORI:
		return a | b, nil
	case isa.XORI:
		return a ^ b, nil
	case isa.SLLI:
		return a << (b & 31), nil
	case isa.SRLI:
		return a >> (b & 31), nil
	case isa.SRAI:
		return uint32(int32(a) >> (b & 31)), nil
	case isa.SLTI:
		return b2u(int32(a) < imm), nil
	}
	return 0, fmt.Errorf("fnsim: intALUImm(%v)", op)
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
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
