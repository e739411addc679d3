package isa

// Op is an operation code.
type Op uint8

// Operation codes. The set follows SimpleScalar's PISA closely enough
// that the paper's examples (MIPS assembly) transliterate directly,
// plus the HiDISC queue/communication operations.
const (
	NOP Op = iota

	// Integer ALU, three-register form: rd <- rs OP rt.
	ADD
	SUB
	MUL
	DIV
	REM
	AND
	OR
	XOR
	NOR
	SLL
	SRL
	SRA
	SLT  // rd <- (int32(rs) < int32(rt)) ? 1 : 0
	SLTU // rd <- (uint32(rs) < uint32(rt)) ? 1 : 0

	// Integer ALU, immediate form: rd <- rs OP imm.
	ADDI
	ANDI
	ORI
	XORI
	SLLI
	SRLI
	SRAI
	SLTI

	// Immediate loads: rd <- imm, rd <- imm << 16.
	LI
	LUI

	// Memory. Loads: rd <- mem[rs+imm]; stores: mem[rs+imm] <- rt.
	// Each accesses MemWidth bytes (see sem.go).
	LW  // load 32-bit word
	LBU // load byte, zero-extended
	SW  // store 32-bit word
	SB  // store low byte
	LFD // load 64-bit float into FP register rd
	SFD // store 64-bit float from FP register rt

	// Floating point, three-register form (registers are FP).
	FADD
	FSUB
	FMUL
	FDIV

	// Floating point, two-register form: rd <- op(rs).
	FMOV
	FNEG
	FABS
	CVTIF // FP rd <- float64(int32(rs)); rs integer
	CVTFI // int rd <- int32(trunc(fs)); rs FP

	// Floating point compares producing an integer 0/1 in rd.
	FLT
	FLE
	FEQ

	// Control. Conditional branches compare integer registers.
	BEQ  // if rs == rt goto imm
	BNE  // if rs != rt goto imm
	BLEZ // if int32(rs) <= 0 goto imm
	BGTZ // if int32(rs) > 0 goto imm
	BLTZ // if int32(rs) < 0 goto imm
	BGEZ // if int32(rs) >= 0 goto imm
	J    // goto imm
	JAL  // ra <- return index; goto imm
	JR   // goto rs
	JALR // rd <- return index; goto rs

	// HiDISC control communication. BCQ is the Computation Stream's
	// mirror of an Access Stream conditional branch: it consumes one
	// outcome token from the control queue and branches iff the token
	// is "taken". JCQ consumes a full target index (mirror of JR).
	BCQ
	JCQ

	// Slip control queue operations (Figure 3 of the paper). GETSCQ is
	// executed by the Access Processor and blocks until the CMAS thread
	// identified by imm has deposited a credit; PUTSCQ is executed by
	// the Cache Management Processor and blocks while the queue is full,
	// bounding the prefetch run-ahead distance.
	GETSCQ
	PUTSCQ

	// PREF prefetches mem[rs+imm] into the data cache hierarchy without
	// touching architectural state. Used by CMAS code for delinquent
	// loads whose value the slice itself does not need.
	PREF

	// OUT and OUTF append rs (integer) / rs (FP) to the machine's
	// output log; used by examples and tests.
	OUT
	OUTF

	// HALT stops the executing processor.
	HALT

	numOps
)

// Class groups operations by the functional unit that executes them.
type Class uint8

// Functional unit classes with SimpleScalar's default latencies.
const (
	ClassNop    Class = iota // zero-latency bookkeeping (NOP, HALT)
	ClassIntALU              // 1 cycle
	ClassIntMul              // 3 cycles
	ClassIntDiv              // 20 cycles
	ClassFPAdd               // 2 cycles: add/sub/compare/convert/move
	ClassFPMul               // 4 cycles
	ClassFPDiv               // 12 cycles
	ClassLoad                // address generation + cache access
	ClassStore               // address generation; data written at commit
	ClassBranch              // 1 cycle, executed on an integer ALU
	ClassQueue               // queue ops: GETSCQ/PUTSCQ/OUT/OUTF
	NumClasses
)

// Fmt describes the assembler operand format of an operation.
type Fmt uint8

// Operand formats.
const (
	FmtNone Fmt = iota // op
	FmtR3              // op rd, rs, rt
	FmtR2I             // op rd, rs, imm
	FmtRI              // op rd, imm
	FmtR2              // op rd, rs
	FmtMemL            // op rd, imm(rs)
	FmtMemS            // op rt, imm(rs)
	FmtB2              // op rs, rt, target
	FmtB1              // op rs, target
	FmtB0              // op target
	FmtR1              // op rs
	FmtI               // op imm (GETSCQ/PUTSCQ)
)

type opInfo struct {
	name    string
	class   Class
	format  Fmt
	load    bool
	store   bool
	branch  bool // conditional branch
	jump    bool // unconditional control transfer
	indir   bool // target comes from a register (JR/JALR) or queue (JCQ)
	readsRs bool
	readsRt bool
	writes  bool  // writes Rd
	fp      bool  // operates on FP register file
	width   uint8 // bytes a memory op accesses (see MemWidth)
	link    bool  // writes the return index to its destination (see Link)
}

var opTable = [numOps]opInfo{
	NOP:  {name: "nop", class: ClassNop, format: FmtNone},
	ADD:  {name: "add", class: ClassIntALU, format: FmtR3, readsRs: true, readsRt: true, writes: true},
	SUB:  {name: "sub", class: ClassIntALU, format: FmtR3, readsRs: true, readsRt: true, writes: true},
	MUL:  {name: "mul", class: ClassIntMul, format: FmtR3, readsRs: true, readsRt: true, writes: true},
	DIV:  {name: "div", class: ClassIntDiv, format: FmtR3, readsRs: true, readsRt: true, writes: true},
	REM:  {name: "rem", class: ClassIntDiv, format: FmtR3, readsRs: true, readsRt: true, writes: true},
	AND:  {name: "and", class: ClassIntALU, format: FmtR3, readsRs: true, readsRt: true, writes: true},
	OR:   {name: "or", class: ClassIntALU, format: FmtR3, readsRs: true, readsRt: true, writes: true},
	XOR:  {name: "xor", class: ClassIntALU, format: FmtR3, readsRs: true, readsRt: true, writes: true},
	NOR:  {name: "nor", class: ClassIntALU, format: FmtR3, readsRs: true, readsRt: true, writes: true},
	SLL:  {name: "sll", class: ClassIntALU, format: FmtR3, readsRs: true, readsRt: true, writes: true},
	SRL:  {name: "srl", class: ClassIntALU, format: FmtR3, readsRs: true, readsRt: true, writes: true},
	SRA:  {name: "sra", class: ClassIntALU, format: FmtR3, readsRs: true, readsRt: true, writes: true},
	SLT:  {name: "slt", class: ClassIntALU, format: FmtR3, readsRs: true, readsRt: true, writes: true},
	SLTU: {name: "sltu", class: ClassIntALU, format: FmtR3, readsRs: true, readsRt: true, writes: true},

	ADDI: {name: "addi", class: ClassIntALU, format: FmtR2I, readsRs: true, writes: true},
	ANDI: {name: "andi", class: ClassIntALU, format: FmtR2I, readsRs: true, writes: true},
	ORI:  {name: "ori", class: ClassIntALU, format: FmtR2I, readsRs: true, writes: true},
	XORI: {name: "xori", class: ClassIntALU, format: FmtR2I, readsRs: true, writes: true},
	SLLI: {name: "slli", class: ClassIntALU, format: FmtR2I, readsRs: true, writes: true},
	SRLI: {name: "srli", class: ClassIntALU, format: FmtR2I, readsRs: true, writes: true},
	SRAI: {name: "srai", class: ClassIntALU, format: FmtR2I, readsRs: true, writes: true},
	SLTI: {name: "slti", class: ClassIntALU, format: FmtR2I, readsRs: true, writes: true},

	LI:  {name: "li", class: ClassIntALU, format: FmtRI, writes: true},
	LUI: {name: "lui", class: ClassIntALU, format: FmtRI, writes: true},

	LW:  {name: "lw", class: ClassLoad, format: FmtMemL, load: true, width: 4, readsRs: true, writes: true},
	LBU: {name: "lbu", class: ClassLoad, format: FmtMemL, load: true, width: 1, readsRs: true, writes: true},
	SW:  {name: "sw", class: ClassStore, format: FmtMemS, store: true, width: 4, readsRs: true, readsRt: true},
	SB:  {name: "sb", class: ClassStore, format: FmtMemS, store: true, width: 1, readsRs: true, readsRt: true},
	LFD: {name: "l.d", class: ClassLoad, format: FmtMemL, load: true, width: 8, readsRs: true, writes: true, fp: true},
	SFD: {name: "s.d", class: ClassStore, format: FmtMemS, store: true, width: 8, readsRs: true, readsRt: true, fp: true},

	FADD: {name: "add.d", class: ClassFPAdd, format: FmtR3, readsRs: true, readsRt: true, writes: true, fp: true},
	FSUB: {name: "sub.d", class: ClassFPAdd, format: FmtR3, readsRs: true, readsRt: true, writes: true, fp: true},
	FMUL: {name: "mul.d", class: ClassFPMul, format: FmtR3, readsRs: true, readsRt: true, writes: true, fp: true},
	FDIV: {name: "div.d", class: ClassFPDiv, format: FmtR3, readsRs: true, readsRt: true, writes: true, fp: true},

	FMOV:  {name: "mov.d", class: ClassFPAdd, format: FmtR2, readsRs: true, writes: true, fp: true},
	FNEG:  {name: "neg.d", class: ClassFPAdd, format: FmtR2, readsRs: true, writes: true, fp: true},
	FABS:  {name: "abs.d", class: ClassFPAdd, format: FmtR2, readsRs: true, writes: true, fp: true},
	CVTIF: {name: "cvt.d.w", class: ClassFPAdd, format: FmtR2, readsRs: true, writes: true, fp: true},
	CVTFI: {name: "cvt.w.d", class: ClassFPAdd, format: FmtR2, readsRs: true, writes: true, fp: true},

	FLT: {name: "c.lt.d", class: ClassFPAdd, format: FmtR3, readsRs: true, readsRt: true, writes: true, fp: true},
	FLE: {name: "c.le.d", class: ClassFPAdd, format: FmtR3, readsRs: true, readsRt: true, writes: true, fp: true},
	FEQ: {name: "c.eq.d", class: ClassFPAdd, format: FmtR3, readsRs: true, readsRt: true, writes: true, fp: true},

	BEQ:  {name: "beq", class: ClassBranch, format: FmtB2, branch: true, readsRs: true, readsRt: true},
	BNE:  {name: "bne", class: ClassBranch, format: FmtB2, branch: true, readsRs: true, readsRt: true},
	BLEZ: {name: "blez", class: ClassBranch, format: FmtB1, branch: true, readsRs: true},
	BGTZ: {name: "bgtz", class: ClassBranch, format: FmtB1, branch: true, readsRs: true},
	BLTZ: {name: "bltz", class: ClassBranch, format: FmtB1, branch: true, readsRs: true},
	BGEZ: {name: "bgez", class: ClassBranch, format: FmtB1, branch: true, readsRs: true},
	J:    {name: "j", class: ClassBranch, format: FmtB0, jump: true},
	JAL:  {name: "jal", class: ClassBranch, format: FmtB0, jump: true, writes: true, link: true},
	JR:   {name: "jr", class: ClassBranch, format: FmtR1, jump: true, indir: true, readsRs: true},
	JALR: {name: "jalr", class: ClassBranch, format: FmtR2, jump: true, indir: true, readsRs: true, writes: true, link: true},

	BCQ: {name: "bcq", class: ClassBranch, format: FmtB0, branch: true},
	JCQ: {name: "jcq", class: ClassBranch, format: FmtNone, jump: true, indir: true},

	GETSCQ: {name: "getscq", class: ClassQueue, format: FmtI},
	PUTSCQ: {name: "putscq", class: ClassQueue, format: FmtI},

	PREF: {name: "pref", class: ClassLoad, format: FmtMemL, readsRs: true, width: 4},

	OUT:  {name: "out", class: ClassQueue, format: FmtR1, readsRs: true},
	OUTF: {name: "out.d", class: ClassQueue, format: FmtR1, readsRs: true, fp: true},

	HALT: {name: "halt", class: ClassNop, format: FmtNone},
}

// Name returns the assembler mnemonic of the operation.
func (o Op) Name() string { return opTable[o].name }

// Class returns the functional-unit class of the operation.
func (o Op) Class() Class { return opTable[o].class }

// Format returns the assembler operand format of the operation.
func (o Op) Format() Fmt { return opTable[o].format }

// IsLoad reports whether the operation reads data memory.
func (o Op) IsLoad() bool { return opTable[o].load }

// IsStore reports whether the operation writes data memory.
func (o Op) IsStore() bool { return opTable[o].store }

// IsMem reports whether the operation accesses data memory (PREF included).
func (o Op) IsMem() bool { return opTable[o].load || opTable[o].store || o == PREF }

// IsCondBranch reports whether the operation is a conditional branch.
func (o Op) IsCondBranch() bool { return opTable[o].branch }

// IsJump reports whether the operation is an unconditional control transfer.
func (o Op) IsJump() bool { return opTable[o].jump }

// IsControl reports whether the operation changes control flow.
func (o Op) IsControl() bool { return opTable[o].branch || opTable[o].jump }

// IsIndirect reports whether the control target comes from a register or queue.
func (o Op) IsIndirect() bool { return opTable[o].indir }

// IsDirectControl reports whether the operation transfers control to the
// instruction index held in its immediate.
func (o Op) IsDirectControl() bool { return o.IsControl() && !opTable[o].indir }

// ReadsRs reports whether the operation reads its Rs operand.
func (o Op) ReadsRs() bool { return opTable[o].readsRs }

// ReadsRt reports whether the operation reads its Rt operand.
func (o Op) ReadsRt() bool { return opTable[o].readsRt }

// WritesRd reports whether the operation writes its Rd operand.
func (o Op) WritesRd() bool { return opTable[o].writes }

// IsFP reports whether the operation involves the FP register file.
func (o Op) IsFP() bool { return opTable[o].fp }

// String returns the mnemonic.
func (o Op) String() string {
	if int(o) < len(opTable) && opTable[o].name != "" {
		return opTable[o].name
	}
	return "op?"
}

// OpByName maps an assembler mnemonic to its operation code.
var OpByName = func() map[string]Op {
	m := make(map[string]Op, numOps)
	for op := Op(0); op < numOps; op++ {
		if opTable[op].name != "" {
			m[opTable[op].name] = op
		}
	}
	return m
}()

// Latency returns the default execution latency in cycles for a class.
// Load latency covers address generation only; the cache access is
// modelled by the memory hierarchy.
func (c Class) Latency() int {
	switch c {
	case ClassIntMul:
		return 3
	case ClassIntDiv:
		return 20
	case ClassFPAdd:
		return 2
	case ClassFPMul:
		return 4
	case ClassFPDiv:
		return 12
	default:
		return 1
	}
}

// Pipelined reports whether a unit of this class accepts a new operation
// every cycle (true) or is busy for the whole latency (false).
func (c Class) Pipelined() bool {
	switch c {
	case ClassIntDiv, ClassFPDiv:
		return false
	}
	return true
}

// String names the class.
func (c Class) String() string {
	switch c {
	case ClassNop:
		return "nop"
	case ClassIntALU:
		return "int-alu"
	case ClassIntMul:
		return "int-mul"
	case ClassIntDiv:
		return "int-div"
	case ClassFPAdd:
		return "fp-add"
	case ClassFPMul:
		return "fp-mul"
	case ClassFPDiv:
		return "fp-div"
	case ClassLoad:
		return "load"
	case ClassStore:
		return "store"
	case ClassBranch:
		return "branch"
	case ClassQueue:
		return "queue"
	}
	return "class?"
}
