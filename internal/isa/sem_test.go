package isa

import (
	"math"
	"testing"

	"hidisc/internal/mem"
)

// The golden semantics vectors. Every executor (the functional
// simulator's interpreter and compiled closures, the out-of-order core
// and the CMP) reads the one table in sem.go, so a wrong entry would be
// wrong everywhere at once and no differential test could see it.
// These hand-computed results on edge operands are the independent
// check of the arithmetic.

// wb spells an int32 operand in the table's register-bits convention
// (fb, in sem.go, spells an FP one).
func wb(x int32) uint64 { return uint64(uint32(x)) }

// semEval runs op's table entry on operands a and b, reporting the
// fault text when the op faults instead.
func semEval(op Op, a, b uint64) (v uint64, fault string, ok bool) {
	s, ok := op.Semantics()
	if !ok {
		return 0, "", false
	}
	if s.Faults(b) {
		return 0, s.Fault, true
	}
	return s.Fn(a, b), "", true
}

const minInt32 = 0x80000000

func TestSemanticsGoldenVectors(t *testing.T) {
	negZero := math.Copysign(0, -1)
	nan := math.NaN()
	cases := []struct {
		op      Op
		a, b    uint64
		want    uint64
		isNaN   bool   // want any NaN (its bits are host-defined)
		wantErr string // the fault text, for a faulting case
	}{
		// Integer, three-register form.
		{op: ADD, a: 3, b: 4, want: 7},
		{op: ADD, a: 0xFFFFFFFF, b: 1, want: 0}, // wraps
		{op: SUB, a: 3, b: 5, want: 0xFFFFFFFE},
		{op: MUL, a: 0xFFFF, b: 0xFFFF, want: 0xFFFE0001},
		{op: MUL, a: minInt32, b: wb(-1), want: minInt32},
		{op: DIV, a: wb(-7), b: 2, want: wb(-3)}, // truncates toward zero
		{op: REM, a: wb(-7), b: 2, want: wb(-1)}, // takes the dividend's sign
		{op: DIV, a: 7, b: wb(-2), want: wb(-3)},
		{op: REM, a: 7, b: wb(-2), want: 1},
		{op: DIV, a: minInt32, b: wb(-1), want: minInt32}, // overflows back to itself
		{op: REM, a: minInt32, b: wb(-1), want: 0},
		{op: DIV, a: 1, b: 0, wantErr: "integer division by zero"},
		{op: REM, a: 1, b: 0, wantErr: "integer remainder by zero"},
		{op: AND, a: 0b1100, b: 0b1010, want: 0b1000},
		{op: OR, a: 0b1100, b: 0b1010, want: 0b1110},
		{op: XOR, a: 0b1100, b: 0b1010, want: 0b0110},
		{op: NOR, a: 0, b: 0, want: 0xFFFFFFFF},
		{op: NOR, a: 0xF0F0F0F0, b: 0x0F0F0000, want: 0x00000F0F},
		{op: SLL, a: 1, b: 31, want: minInt32},
		{op: SLL, a: 1, b: 32, want: 1}, // shift amounts use the low 5 bits
		{op: SLL, a: 1, b: 33, want: 2},
		{op: SLL, a: 1, b: 35, want: 8},
		{op: SRL, a: minInt32, b: 31, want: 1},
		{op: SRL, a: minInt32, b: 32, want: minInt32},
		{op: SRL, a: minInt32, b: 33, want: 0x40000000},
		{op: SRA, a: minInt32, b: 31, want: 0xFFFFFFFF},
		{op: SRA, a: minInt32, b: 32, want: minInt32},
		{op: SRA, a: minInt32, b: 33, want: 0xC0000000},
		{op: SRA, a: wb(-8), b: 1, want: wb(-4)},
		{op: SRA, a: wb(-1), b: 31, want: wb(-1)},
		{op: SLT, a: 0xFFFFFFFF, b: 0, want: 1}, // -1 < 0 signed
		{op: SLTU, a: 0xFFFFFFFF, b: 0, want: 0},
		{op: SLT, a: 0, b: 0xFFFFFFFF, want: 0},
		{op: SLTU, a: 0, b: 0xFFFFFFFF, want: 1},
		{op: SLT, a: 5, b: 5, want: 0},

		// Integer, immediate form: b is uint32(Imm).
		{op: ADDI, a: 5, b: wb(-3), want: 2},
		{op: ANDI, a: 0xFFFF1234, b: 0xFF, want: 0x34},
		{op: ORI, a: 0x1200, b: 0x34, want: 0x1234},
		{op: XORI, a: 0xFF, b: 0x0F, want: 0xF0},
		{op: SLLI, a: 1, b: 33, want: 2},
		{op: SRLI, a: minInt32, b: 31, want: 1},
		{op: SRAI, a: minInt32, b: 4, want: 0xF8000000},
		{op: SRAI, a: wb(-8), b: 2, want: wb(-2)},
		{op: SRAI, a: wb(-1), b: 32, want: wb(-1)},
		{op: SLTI, a: wb(-5), b: wb(-3), want: 1},
		{op: SLTI, a: wb(-3), b: wb(-5), want: 0},
		{op: SLTI, a: 0xFFFFFFFF, b: 0, want: 1},
		{op: SLTI, a: 0, b: wb(-1), want: 0},

		// Immediate loads read only b.
		{op: LI, b: wb(-1), want: 0xFFFFFFFF},
		{op: LI, b: 42, want: 42},
		{op: LUI, b: 0xFFFF, want: 0xFFFF0000},
		{op: LUI, b: wb(-1), want: 0xFFFF0000},
		{op: LUI, b: 0x1234, want: 0x12340000},

		// FP arithmetic.
		{op: FADD, a: fb(1.5), b: fb(2.25), want: fb(3.75)},
		{op: FSUB, a: fb(1.5), b: fb(2.25), want: fb(-0.75)},
		{op: FMUL, a: fb(-1.5), b: fb(4), want: fb(-6)},
		{op: FDIV, a: fb(1), b: fb(4), want: fb(0.25)},
		{op: FDIV, a: fb(1), b: fb(0), want: fb(math.Inf(1))},
		{op: FDIV, a: fb(1), b: fb(negZero), want: fb(math.Inf(-1))},
		{op: FDIV, a: fb(-1), b: fb(0), want: fb(math.Inf(-1))},
		{op: FDIV, a: fb(0), b: fb(0), isNaN: true},
		{op: FMOV, a: 0x7FF0000000000001, want: 0x7FF0000000000001}, // bits move unchanged
		{op: FNEG, a: fb(2), want: fb(-2)},
		{op: FNEG, a: fb(0), want: fb(negZero)},
		{op: FABS, a: fb(-2), want: fb(2)},
		{op: FABS, a: fb(negZero), want: fb(0)},
		{op: FABS, a: fb(math.Inf(-1)), want: fb(math.Inf(1))},

		// FP compares yield an integer 0/1; every compare with NaN is false.
		{op: FLT, a: fb(1), b: fb(2), want: 1},
		{op: FLT, a: fb(2), b: fb(2), want: 0},
		{op: FLE, a: fb(2), b: fb(2), want: 1},
		{op: FEQ, a: fb(2), b: fb(3), want: 0},
		{op: FEQ, a: fb(0), b: fb(negZero), want: 1},
		{op: FLT, a: fb(negZero), b: fb(0), want: 0},
		{op: FLT, a: fb(nan), b: fb(1), want: 0},
		{op: FLT, a: fb(1), b: fb(nan), want: 0},
		{op: FLE, a: fb(nan), b: fb(nan), want: 0},
		{op: FEQ, a: fb(nan), b: fb(nan), want: 0},
		{op: FLE, a: fb(math.Inf(-1)), b: fb(-1e308), want: 1},

		// Conversions. CVTFI truncates toward zero; NaN and every value
		// whose truncation is outside int32 give 0x80000000.
		{op: CVTIF, a: minInt32, want: fb(-2147483648)},
		{op: CVTIF, a: 0xFFFFFFFF, want: fb(-1)},
		{op: CVTIF, a: 0x7FFFFFFF, want: fb(2147483647)},
		{op: CVTFI, a: fb(3.7), want: 3},
		{op: CVTFI, a: fb(-3.7), want: wb(-3)},
		{op: CVTFI, a: fb(-0.5), want: 0},
		{op: CVTFI, a: fb(2147483647.9), want: 0x7FFFFFFF},
		{op: CVTFI, a: fb(-2147483648.9), want: minInt32},
		{op: CVTFI, a: fb(2147483648), want: minInt32},
		{op: CVTFI, a: fb(-2147483649), want: minInt32},
		{op: CVTFI, a: fb(1e10), want: minInt32},
		{op: CVTFI, a: fb(-1e10), want: minInt32},
		{op: CVTFI, a: fb(nan), want: minInt32},
		{op: CVTFI, a: fb(math.Inf(1)), want: minInt32},
		{op: CVTFI, a: fb(math.Inf(-1)), want: minInt32},

		// Conditional-branch predicates: 1 is taken.
		{op: BEQ, a: 5, b: 5, want: 1},
		{op: BEQ, a: 5, b: 6, want: 0},
		{op: BNE, a: 5, b: 5, want: 0},
		{op: BNE, a: 0, b: 0xFFFFFFFF, want: 1},
		{op: BLEZ, a: 0, want: 1},
		{op: BLEZ, a: 0xFFFFFFFF, want: 1}, // -1 <= 0
		{op: BLEZ, a: 1, want: 0},
		{op: BGTZ, a: 1, want: 1},
		{op: BGTZ, a: 0, want: 0},
		{op: BGTZ, a: minInt32, want: 0},
		{op: BLTZ, a: minInt32, want: 1},
		{op: BLTZ, a: 0, want: 0},
		{op: BGEZ, a: 0, want: 1},
		{op: BGEZ, a: 0x7FFFFFFF, want: 1},
		{op: BGEZ, a: 0xFFFFFFFF, want: 0},
	}
	for _, c := range cases {
		got, fault, ok := semEval(c.op, c.a, c.b)
		switch {
		case !ok:
			t.Errorf("%v: no semantics entry", c.op)
		case c.wantErr != "":
			if fault != c.wantErr {
				t.Errorf("%v(%#x, %#x): fault %q, want %q", c.op, c.a, c.b, fault, c.wantErr)
			}
		case fault != "":
			t.Errorf("%v(%#x, %#x): unexpected fault %q", c.op, c.a, c.b, fault)
		case c.isNaN:
			if !math.IsNaN(math.Float64frombits(got)) {
				t.Errorf("%v(%#x, %#x) = %#x, want a NaN", c.op, c.a, c.b, got)
			}
		case got != c.want:
			t.Errorf("%v(%#x, %#x) = %#x, want %#x", c.op, c.a, c.b, got, c.want)
		}
	}

	// Memory: a store op writes v at addr through its table width, a
	// load op reads it back through its own. Every executor moves data
	// through mem.Load and mem.Store with these widths.
	const page = 4096 // mem's page size
	memCases := []struct {
		store, load Op
		addr        uint32
		v, want     uint64
	}{
		{SW, LBU, 0x100, 0xFF, 0xFF},                                 // LBU zero-extends: 0xFF, not -1
		{SB, LW, 0x100, 0x1FF, 0xFF},                                 // SB stores the low byte only
		{SW, LW, page - 2, 0x11223344, 0x11223344},                   // a word across a page boundary
		{SFD, LFD, page - 4, 0x0102030405060708, 0x0102030405060708}, // a double across one
		{SFD, LW, page - 4, 0x0102030405060708, 0x05060708},
		{SFD, LFD, 0x200, 0x7FF0000000000001, 0x7FF0000000000001}, // a signalling NaN keeps its payload
		{SW, LFD, 0x300, 0xFFFFFFFF_FFFFFFFF, 0xFFFFFFFF},         // SW stores the low word
	}
	for _, c := range memCases {
		m := mem.NewMemory()
		m.Store(c.addr, c.store.MemWidth(), c.v)
		if got := m.Load(c.addr, c.load.MemWidth()); got != c.want {
			t.Errorf("%v %#x at %#x, then %v: %#x, want %#x", c.store, c.v, c.addr, c.load, got, c.want)
		}
	}
	if got := Link(41); got != 42 {
		t.Errorf("Link(41) = %d, want 42", got)
	}
}

// TestSemanticsCoverage requires every op to have a table entry, a
// memory width or a link flag, or to be declared an op whose effect is
// none of these.
func TestSemanticsCoverage(t *testing.T) {
	declared := map[Op]string{
		NOP: "control", HALT: "control", J: "control", JR: "control",
		PREF: "prefetch",
		BCQ:  "queue", JCQ: "queue", GETSCQ: "queue", PUTSCQ: "queue",
		OUT: "output", OUTF: "output",
	}
	for op := Op(0); op < numOps; op++ {
		s, ok := op.Semantics()
		memOp := op.IsLoad() || op.IsStore()
		kind, isDeclared := declared[op]
		if memOp {
			if w := op.MemWidth(); w != 1 && w != 4 && w != 8 || (w == 8) != op.IsFP() {
				t.Errorf("%v: width %d; a load or store accesses 1 or 4 bytes, or 8 for FP", op, w)
			}
		} else if w := op.MemWidth(); w != 0 && op != PREF {
			t.Errorf("%v: width %d on an op that is not a load or store", op, w)
		}
		if op.Links() != (op == JAL || op == JALR) {
			t.Errorf("%v: link flag %v; only JAL and JALR link", op, op.Links())
		}
		if op.Links() && !op.WritesRd() {
			t.Errorf("%v links but writes no register", op)
		}
		switch {
		case ok && (memOp || op.Links()):
			t.Errorf("%v has an entry and also a width or a link", op)
		case (ok || memOp || op.Links()) && isDeclared:
			t.Errorf("%v is described by the table but declared %s", op, kind)
		case !ok && !memOp && !op.Links() && !isDeclared:
			t.Errorf("%v has no semantics entry, width or link and is not declared", op)
		case ok:
			if s.Fn == nil {
				t.Errorf("%v: entry without a function", op)
			}
			if (s.Fault != "") != (op == DIV || op == REM) {
				t.Errorf("%v: Fault %q; only DIV and REM fault", op, s.Fault)
			}
			if op.IsCondBranch() && op.WritesRd() {
				t.Errorf("%v: a branch entry must not write a register", op)
			}
		}
	}
	if _, ok := numOps.Semantics(); ok {
		t.Error("out-of-range op has an entry")
	}
}

// The per-class tests below check each op family through its table
// entry together with the entry's operand convention: which register
// file it reads and writes, and whether b is the immediate.

func TestEvalIntALU(t *testing.T) {
	cases := []struct {
		op   Op
		a, b uint64
		want uint64
	}{
		{ADD, 3, 4, 7},
		{ADD, 0xFFFFFFFF, 1, 0}, // wraps
		{SUB, 3, 5, 0xFFFFFFFE},
		{MUL, 0xFFFF, 0xFFFF, 0xFFFE0001},
		{DIV, wb(-7), 2, wb(-3)}, // truncates toward zero
		{REM, wb(-7), 2, wb(-1)},
		{AND, 0b1100, 0b1010, 0b1000},
		{OR, 0b1100, 0b1010, 0b1110},
		{XOR, 0b1100, 0b1010, 0b0110},
		{NOR, 0, 0, 0xFFFFFFFF},
		{SLL, 1, 35, 8}, // shift amount masked to 5 bits
		{SRL, minInt32, 31, 1},
		{SRA, minInt32, 31, 0xFFFFFFFF},
		{SLT, 0xFFFFFFFF, 0, 1}, // -1 < 0 signed
		{SLTU, 0xFFFFFFFF, 0, 0},
	}
	for _, c := range cases {
		s, _ := c.op.Semantics()
		if s.FPSrc || s.FPDst || c.op.ImmOperand() {
			t.Errorf("%v: not an integer three-register entry (FPSrc %v, FPDst %v, imm %v)",
				c.op, s.FPSrc, s.FPDst, c.op.ImmOperand())
		}
		got, fault, ok := semEval(c.op, c.a, c.b)
		if !ok || fault != "" || got != c.want {
			t.Errorf("%v(%#x, %#x) = %#x, %q, %v; want %#x", c.op, c.a, c.b, got, fault, ok, c.want)
		}
	}
	if _, fault, _ := semEval(DIV, 1, 0); fault == "" {
		t.Error("division by zero accepted")
	}
	if _, fault, _ := semEval(REM, 1, 0); fault == "" {
		t.Error("remainder by zero accepted")
	}
	// Only the low 32 bits of the divisor count.
	if _, fault, _ := semEval(DIV, 1, 1<<32); fault == "" {
		t.Error("divisor with zero low word accepted")
	}
	if !ADDI.ImmOperand() {
		t.Error("ADDI does not take its b operand from the immediate")
	}
}

func TestEvalIntALUImm(t *testing.T) {
	cases := []struct {
		op   Op
		a    uint64
		imm  int32
		want uint64
	}{
		{ADDI, 5, -3, 2},
		{SLTI, 0xFFFFFFFF, 0, 1}, // signed
		{SRAI, minInt32, 4, 0xF8000000},
		{LI, 0, -1, 0xFFFFFFFF},
		{LUI, 0, 0x1234, 0x12340000},
	}
	for _, c := range cases {
		if !c.op.ImmOperand() {
			t.Errorf("%v: b is not the immediate", c.op)
		}
		got, fault, ok := semEval(c.op, c.a, wb(c.imm))
		if !ok || fault != "" || got != c.want {
			t.Errorf("%v(%#x, %d) = %#x, %q, %v; want %#x", c.op, c.a, c.imm, got, fault, ok, c.want)
		}
	}
	if ADD.ImmOperand() {
		t.Error("register op takes an immediate operand")
	}
}

func TestEvalFPAndCompares(t *testing.T) {
	arith := []struct {
		op   Op
		a, b float64
		want float64
	}{
		{FADD, 1.5, 2.25, 3.75},
		{FNEG, 2.0, 0, -2.0},
		{FABS, -2.0, 0, 2.0},
	}
	for _, c := range arith {
		s, _ := c.op.Semantics()
		if !s.FPSrc || !s.FPDst {
			t.Errorf("%v: FPSrc %v, FPDst %v; want both", c.op, s.FPSrc, s.FPDst)
		}
		got, fault, ok := semEval(c.op, fb(c.a), fb(c.b))
		if !ok || fault != "" || fv(got) != c.want {
			t.Errorf("%v(%v, %v) = %v, %q, %v; want %v", c.op, c.a, c.b, fv(got), fault, ok, c.want)
		}
	}
	if s, _ := ADD.Semantics(); s.FPSrc || s.FPDst {
		t.Error("integer op reads or writes the FP register file")
	}
	cmps := []struct {
		op   Op
		a, b float64
		want uint64
	}{
		{FLT, 1, 2, 1},
		{FLE, 2, 2, 1},
		{FEQ, 2, 3, 0},
	}
	for _, c := range cmps {
		s, _ := c.op.Semantics()
		if !s.FPSrc || s.FPDst {
			t.Errorf("%v: FPSrc %v, FPDst %v; a compare reads FP and writes an integer", c.op, s.FPSrc, s.FPDst)
		}
		got, fault, ok := semEval(c.op, fb(c.a), fb(c.b))
		if !ok || fault != "" || got != c.want {
			t.Errorf("%v(%v, %v) = %d, %q, %v; want %d", c.op, c.a, c.b, got, fault, ok, c.want)
		}
	}
	if s, _ := FADD.Semantics(); !s.FPDst {
		t.Error("arithmetic op writes the integer register file")
	}
}

func TestEvalBranch(t *testing.T) {
	cases := []struct {
		op   Op
		a, b uint64
		want uint64
	}{
		{BEQ, 5, 5, 1},
		{BNE, 5, 5, 0},
		{BLEZ, 0, 0, 1},
		{BLEZ, 0xFFFFFFFF, 0, 1}, // -1 <= 0
		{BGTZ, 1, 0, 1},
		{BLTZ, minInt32, 0, 1},
		{BGEZ, 0, 0, 1},
	}
	for _, c := range cases {
		if !c.op.IsCondBranch() {
			t.Errorf("%v is not a conditional branch", c.op)
		}
		got, fault, ok := semEval(c.op, c.a, c.b)
		if !ok || fault != "" || got != c.want {
			t.Errorf("%v(%#x, %#x) = %d, %q, %v; want %d", c.op, c.a, c.b, got, fault, ok, c.want)
		}
	}
	if _, ok := J.Semantics(); ok {
		t.Error("jump has a branch-predicate entry")
	}
}
