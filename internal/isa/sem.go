package isa

import "math"

// Sem is the meaning of one computational op. It is the only
// definition of what such an op computes: the functional simulator's
// interpreter and compiled closures, the out-of-order core and the CMP
// all execute this entry.
//
// Operands and the result are register bits: an integer is its uint32
// value zero-extended, an FP value its IEEE-754 bits. Fn(a, b) takes
// rs as a; b is rt for the two-source forms, uint32(Imm) for the
// immediate forms (ImmOperand) and 0 for the one-source forms. LI and
// LUI read only b. A conditional branch's result is 1 when taken, 0
// when not.
type Sem struct {
	Fn func(a, b uint64) uint64
	// FPSrc and FPDst report that the sources are read from, and the
	// destination written to, the FP register file (otherwise the
	// integer file).
	FPSrc, FPDst bool
	// Fault is set for DIV and REM only: the op faults with this
	// description when the low 32 bits of b are zero (see Faults).
	Fault string
}

// Faults reports whether the op faults on divisor b; an executor must
// check it before calling Fn.
func (s Sem) Faults(b uint64) bool { return s.Fault != "" && uint32(b) == 0 }

// Semantics returns op's entry. ok is false for the ops whose effect is
// not a computed value: memory, queue and unconditional control
// operations, NOP and HALT.
func (o Op) Semantics() (s Sem, ok bool) {
	if int(o) >= len(semTable) {
		return Sem{}, false
	}
	s = semTable[o]
	return s, s.Fn != nil
}

// ImmOperand reports whether Fn's b operand is the instruction's
// immediate (the immediate ALU forms, LI and LUI).
func (o Op) ImmOperand() bool {
	f := o.Format()
	return f == FmtR2I || f == FmtRI
}

var semTable = [numOps]Sem{
	ADD:  {Fn: add},
	SUB:  {Fn: func(a, b uint64) uint64 { return w(uint32(a) - uint32(b)) }},
	MUL:  {Fn: func(a, b uint64) uint64 { return w(uint32(s32(a) * s32(b))) }},
	DIV:  {Fn: div, Fault: "integer division by zero"},
	REM:  {Fn: rem, Fault: "integer remainder by zero"},
	AND:  {Fn: and},
	OR:   {Fn: or},
	XOR:  {Fn: xor},
	NOR:  {Fn: func(a, b uint64) uint64 { return w(^(uint32(a) | uint32(b))) }},
	SLL:  {Fn: sll},
	SRL:  {Fn: srl},
	SRA:  {Fn: sra},
	SLT:  {Fn: slt},
	SLTU: {Fn: func(a, b uint64) uint64 { return flag(uint32(a) < uint32(b)) }},

	// The immediate forms are the register forms with b = uint32(Imm).
	ADDI: {Fn: add},
	ANDI: {Fn: and},
	ORI:  {Fn: or},
	XORI: {Fn: xor},
	SLLI: {Fn: sll},
	SRLI: {Fn: srl},
	SRAI: {Fn: sra},
	SLTI: {Fn: slt},

	LI:  {Fn: func(_, b uint64) uint64 { return b }},
	LUI: {Fn: func(_, b uint64) uint64 { return w(uint32(b) << 16) }},

	FADD: {Fn: func(a, b uint64) uint64 { return fb(fv(a) + fv(b)) }, FPSrc: true, FPDst: true},
	FSUB: {Fn: func(a, b uint64) uint64 { return fb(fv(a) - fv(b)) }, FPSrc: true, FPDst: true},
	FMUL: {Fn: func(a, b uint64) uint64 { return fb(fv(a) * fv(b)) }, FPSrc: true, FPDst: true},
	FDIV: {Fn: func(a, b uint64) uint64 { return fb(fv(a) / fv(b)) }, FPSrc: true, FPDst: true},
	FMOV: {Fn: func(a, _ uint64) uint64 { return a }, FPSrc: true, FPDst: true},
	FNEG: {Fn: func(a, _ uint64) uint64 { return fb(-fv(a)) }, FPSrc: true, FPDst: true},
	FABS: {Fn: func(a, _ uint64) uint64 { return fb(math.Abs(fv(a))) }, FPSrc: true, FPDst: true},

	CVTIF: {Fn: func(a, _ uint64) uint64 { return fb(float64(s32(a))) }, FPDst: true},
	CVTFI: {Fn: cvtfi, FPSrc: true},

	FLT: {Fn: func(a, b uint64) uint64 { return flag(fv(a) < fv(b)) }, FPSrc: true},
	FLE: {Fn: func(a, b uint64) uint64 { return flag(fv(a) <= fv(b)) }, FPSrc: true},
	FEQ: {Fn: func(a, b uint64) uint64 { return flag(fv(a) == fv(b)) }, FPSrc: true},

	BEQ:  {Fn: func(a, b uint64) uint64 { return flag(uint32(a) == uint32(b)) }},
	BNE:  {Fn: func(a, b uint64) uint64 { return flag(uint32(a) != uint32(b)) }},
	BLEZ: {Fn: func(a, _ uint64) uint64 { return flag(s32(a) <= 0) }},
	BGTZ: {Fn: func(a, _ uint64) uint64 { return flag(s32(a) > 0) }},
	BLTZ: {Fn: func(a, _ uint64) uint64 { return flag(s32(a) < 0) }},
	BGEZ: {Fn: func(a, _ uint64) uint64 { return flag(s32(a) >= 0) }},
}

func add(a, b uint64) uint64 { return w(uint32(a) + uint32(b)) }
func and(a, b uint64) uint64 { return w(uint32(a) & uint32(b)) }
func or(a, b uint64) uint64  { return w(uint32(a) | uint32(b)) }
func xor(a, b uint64) uint64 { return w(uint32(a) ^ uint32(b)) }

// Shift amounts use the low five bits of b.
func sll(a, b uint64) uint64 { return w(uint32(a) << (b & 31)) }
func srl(a, b uint64) uint64 { return w(uint32(a) >> (b & 31)) }
func sra(a, b uint64) uint64 { return w(uint32(s32(a) >> (b & 31))) }
func slt(a, b uint64) uint64 { return flag(s32(a) < s32(b)) }

// div and rem truncate toward zero; 0x80000000 / -1 wraps to
// 0x80000000 with remainder 0. A zero divisor yields 0 (the op faults
// before Fn runs).
func div(a, b uint64) uint64 {
	if uint32(b) == 0 {
		return 0
	}
	return w(uint32(s32(a) / s32(b)))
}

func rem(a, b uint64) uint64 {
	if uint32(b) == 0 {
		return 0
	}
	return w(uint32(s32(a) % s32(b)))
}

// cvtfi truncates toward zero. NaN and every value whose truncation
// lies outside int32 convert to 0x80000000; Go leaves such a
// conversion to the host, so the rule is spelled out (it is what
// amd64's truncating convert yields).
func cvtfi(a, _ uint64) uint64 {
	x := math.Trunc(fv(a))
	if !(x >= math.MinInt32 && x <= math.MaxInt32) {
		return 0x80000000
	}
	return w(uint32(int32(x)))
}

// Conversions between register bits and the values an op computes on:
// w zero-extends an integer result, s32 reads an operand as int32, fv
// and fb convert FP bits to and from float64, flag is a 0/1 result.
func w(x uint32) uint64   { return uint64(x) }
func s32(x uint64) int32  { return int32(uint32(x)) }
func fv(x uint64) float64 { return math.Float64frombits(x) }
func fb(x float64) uint64 { return math.Float64bits(x) }
func flag(c bool) uint64 {
	if c {
		return 1
	}
	return 0
}
