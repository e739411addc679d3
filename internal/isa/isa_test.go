package isa

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestRegClassification(t *testing.T) {
	cases := []struct {
		r           Reg
		isInt, isFP bool
		isQueue     bool
		str         string
	}{
		{R0, true, false, false, "$r0"},
		{R5, true, false, false, "$r5"},
		{SP, true, false, false, "$sp"},
		{FP, true, false, false, "$fp"},
		{RA, true, false, false, "$ra"},
		{F0, false, true, false, "$f0"},
		{F(31), false, true, false, "$f31"},
		{RegLDQ, false, false, true, "$LDQ"},
		{RegSDQ, false, false, true, "$SDQ"},
		{RegCQ, false, false, true, "$CQ"},
		{RegSCQ, false, false, true, "$SCQ"},
		{RegNone, false, false, false, "$-"},
	}
	for _, c := range cases {
		if got := c.r.IsInt(); got != c.isInt {
			t.Errorf("%v.IsInt() = %v, want %v", c.r, got, c.isInt)
		}
		if got := c.r.IsFP(); got != c.isFP {
			t.Errorf("%v.IsFP() = %v, want %v", c.r, got, c.isFP)
		}
		if got := c.r.IsQueue(); got != c.isQueue {
			t.Errorf("%v.IsQueue() = %v, want %v", c.r, got, c.isQueue)
		}
		if got := c.r.String(); got != c.str {
			t.Errorf("Reg(%d).String() = %q, want %q", uint8(c.r), got, c.str)
		}
	}
}

func TestRegConstructorsPanic(t *testing.T) {
	for _, bad := range []int{-1, 32, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("R(%d) did not panic", bad)
				}
			}()
			R(bad)
		}()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("F(%d) did not panic", bad)
				}
			}()
			F(bad)
		}()
	}
}

func TestOpMetadataConsistency(t *testing.T) {
	for op := Op(0); op < numOps; op++ {
		if op.Name() == "" {
			t.Fatalf("op %d has no name", op)
		}
		if op.IsLoad() && op.IsStore() {
			t.Errorf("%v cannot be both load and store", op)
		}
		if op.IsCondBranch() && op.IsJump() {
			t.Errorf("%v cannot be both branch and jump", op)
		}
		if op.IsLoad() && !op.WritesRd() {
			t.Errorf("load %v should write a destination", op)
		}
		if op.IsStore() && op.WritesRd() {
			t.Errorf("store %v should not write a destination", op)
		}
	}
}

func TestOpByNameRoundTrip(t *testing.T) {
	for op := Op(0); op < numOps; op++ {
		got, ok := OpByName[op.Name()]
		if !ok {
			t.Fatalf("OpByName missing %q", op.Name())
		}
		if got != op {
			t.Errorf("OpByName[%q] = %v, want %v", op.Name(), got, op)
		}
	}
}

func TestClassLatencies(t *testing.T) {
	if ClassIntALU.Latency() != 1 {
		t.Errorf("int ALU latency = %d, want 1", ClassIntALU.Latency())
	}
	if ClassIntDiv.Latency() != 20 || ClassIntDiv.Pipelined() {
		t.Errorf("int div should be 20 cycles, unpipelined")
	}
	if ClassFPMul.Latency() != 4 || !ClassFPMul.Pipelined() {
		t.Errorf("fp mul should be 4 cycles, pipelined")
	}
	for c := Class(0); c < NumClasses; c++ {
		if c.Latency() < 1 {
			t.Errorf("class %v latency %d < 1", c, c.Latency())
		}
		if c.String() == "class?" {
			t.Errorf("class %d has no name", c)
		}
	}
}

func TestAnnotationFields(t *testing.T) {
	var a Annotation
	a = a.WithStream(StreamAccess)
	a |= AnnTapLDQ | AnnTrigger
	a = a.WithCMASID(7)
	if a.Stream() != StreamAccess {
		t.Errorf("stream = %v, want AS", a.Stream())
	}
	if !a.Has(AnnTapLDQ) || !a.Has(AnnTrigger) || a.Has(AnnPushCQ) {
		t.Errorf("flag extraction wrong: %v", a)
	}
	if a.CMASID() != 7 {
		t.Errorf("CMASID = %d, want 7", a.CMASID())
	}
	a = a.WithStream(StreamCompute)
	if a.Stream() != StreamCompute || !a.Has(AnnTapLDQ) || a.CMASID() != 7 {
		t.Errorf("WithStream clobbered other fields: %v", a)
	}
	s := a.String()
	for _, want := range []string{"CS", "tapLDQ", "trig#7"} {
		if !strings.Contains(s, want) {
			t.Errorf("annotation string %q missing %q", s, want)
		}
	}
}

func TestInstEncodeDecodeRoundTrip(t *testing.T) {
	insts := []Inst{
		{Op: ADD, Rd: R3, Rs: R4, Rt: R5},
		{Op: LW, Rd: R7, Rs: SP, Imm: -16},
		{Op: SFD, Rs: R9, Rt: F(4), Imm: 88},
		{Op: BEQ, Rs: R1, Rt: R0, Imm: 42, Ann: Annotation(StreamAccess) | AnnPushCQ},
		{Op: LFD, Rd: RegLDQ, Rs: R9, Imm: 88, Ann: Annotation(StreamAccess)},
		{Op: BCQ, Imm: 3, Ann: Annotation(StreamCompute)},
		{Op: GETSCQ, Imm: 2, Ann: Annotation(StreamAccess).WithCMASID(2)},
		{Op: HALT},
	}
	for _, in := range insts {
		got, err := Decode(in.Encode())
		if err != nil {
			t.Fatalf("Decode(%v): %v", in, err)
		}
		if got != in {
			t.Errorf("round trip: got %+v, want %+v", got, in)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := Decode(Word{Raw: 0xFF}); err == nil {
		t.Error("Decode accepted invalid opcode")
	}
	bad := Inst{Op: ADD, Rd: R1, Rs: R2, Rt: R3}.Encode()
	bad.Raw |= 0xF0 << 24 // Rt = 0xF0, out of range
	if _, err := Decode(bad); err == nil {
		t.Error("Decode accepted invalid register")
	}
}

func TestInstEncodeDecodeQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func() bool {
		in := Inst{
			Op:  Op(rng.Intn(int(numOps))),
			Rd:  Reg(rng.Intn(int(RegNone) + 1)),
			Rs:  Reg(rng.Intn(int(RegNone) + 1)),
			Rt:  Reg(rng.Intn(int(RegNone) + 1)),
			Imm: int32(rng.Uint32()),
			Ann: Annotation(rng.Uint32()),
		}
		got, err := Decode(in.Encode())
		return err == nil && got == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestInstSourcesAndDest(t *testing.T) {
	cases := []struct {
		in   Inst
		srcs []Reg
		dest Reg
	}{
		{Inst{Op: ADD, Rd: R1, Rs: R2, Rt: R3}, []Reg{R2, R3}, R1},
		{Inst{Op: LI, Rd: R1, Imm: 5}, nil, R1},
		{Inst{Op: SW, Rs: R2, Rt: R3}, []Reg{R2, R3}, RegNone},
		{Inst{Op: BCQ, Imm: 9}, []Reg{RegCQ}, RegNone},
		{Inst{Op: JCQ}, []Reg{RegCQ}, RegNone},
		{Inst{Op: JAL, Imm: 4}, nil, RA},
		{Inst{Op: FMUL, Rd: F(4), Rs: RegLDQ, Rt: RegLDQ}, []Reg{RegLDQ, RegLDQ}, F(4)},
		{Inst{Op: PREF, Rs: R9, Imm: 64}, []Reg{R9}, RegNone},
	}
	for _, c := range cases {
		got := c.in.Sources()
		if len(got) != len(c.srcs) {
			t.Errorf("%v: sources %v, want %v", c.in, got, c.srcs)
			continue
		}
		for i := range got {
			if got[i] != c.srcs[i] {
				t.Errorf("%v: sources %v, want %v", c.in, got, c.srcs)
				break
			}
		}
		if d := c.in.Dest(); d != c.dest {
			t.Errorf("%v: dest %v, want %v", c.in, d, c.dest)
		}
	}
}

func TestDisasmFormats(t *testing.T) {
	cases := []struct {
		in   Inst
		want string
	}{
		{Inst{Op: ADD, Rd: R9, Rs: R25, Rt: R8}, "add $r9, $r25, $r8"},
		{Inst{Op: LFD, Rd: F(16), Rs: R9, Imm: 88}, "l.d $f16, 88($r9)"},
		{Inst{Op: SFD, Rs: R13, Rt: F(4), Imm: 0}, "s.d $f4, 0($r13)"},
		{Inst{Op: LFD, Rd: RegLDQ, Rs: R9, Imm: 88}, "l.d $LDQ, 88($r9)"},
		{Inst{Op: FMUL, Rd: F(4), Rs: RegLDQ, Rt: RegLDQ}, "mul.d $f4, $LDQ, $LDQ"},
		{Inst{Op: BEQ, Rs: R1, Rt: R0, Imm: 12}, "beq $r1, $r0, 12"},
		{Inst{Op: BLEZ, Rs: R1, Imm: 3}, "blez $r1, 3"},
		{Inst{Op: J, Imm: 7}, "j 7"},
		{Inst{Op: JR, Rs: RA}, "jr $ra"},
		{Inst{Op: BCQ, Imm: 2}, "bcq 2"},
		{Inst{Op: JCQ}, "jcq"},
		{Inst{Op: PREF, Rs: R9, Imm: 32}, "pref 32($r9)"},
		{Inst{Op: GETSCQ, Imm: 1}, "getscq 1"},
		{Inst{Op: LI, Rd: R4, Imm: -3}, "li $r4, -3"},
		{Inst{Op: CVTIF, Rd: F(2), Rs: R3}, "cvt.d.w $f2, $r3"},
		{Inst{Op: HALT}, "halt"},
		{Inst{Op: NOP}, "nop"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("disasm: got %q, want %q", got, c.want)
		}
	}
}

func TestDisasmIncludesAnnotation(t *testing.T) {
	in := Inst{Op: LW, Rd: R3, Rs: R4, Ann: Annotation(StreamAccess) | AnnTapLDQ}
	s := in.String()
	if !strings.Contains(s, "[AS tapLDQ]") {
		t.Errorf("disasm %q missing annotation", s)
	}
}

func makeTestProgram() *Program {
	return &Program{
		Name: "t",
		Insts: []Inst{
			{Op: LI, Rd: R1, Imm: 10},
			{Op: ADDI, Rd: R1, Rs: R1, Imm: -1},
			{Op: BGTZ, Rs: R1, Imm: 1},
			{Op: HALT},
		},
		Data:    []byte{1, 2, 3, 4},
		Symbols: map[string]uint32{"tab": DataBase},
		Labels:  map[string]int{"loop": 1},
	}
}

func TestProgramValidate(t *testing.T) {
	p := makeTestProgram()
	if err := p.Validate(); err != nil {
		t.Fatalf("valid program rejected: %v", err)
	}
	bad := p.Clone()
	bad.Insts[2].Imm = 99
	if err := bad.Validate(); err == nil {
		t.Error("out-of-range branch target accepted")
	}
	bad = p.Clone()
	bad.Entry = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative entry accepted")
	}
	empty := &Program{Name: "e"}
	if err := empty.Validate(); err == nil {
		t.Error("empty program accepted")
	}
}

func TestProgramBinaryRoundTrip(t *testing.T) {
	p := makeTestProgram()
	var buf bytes.Buffer
	if err := p.WriteBinary(&buf); err != nil {
		t.Fatalf("WriteBinary: %v", err)
	}
	q, err := ReadBinary(&buf)
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	if q.Name != p.Name || q.Entry != p.Entry || len(q.Insts) != len(p.Insts) {
		t.Fatalf("header mismatch: %+v vs %+v", q, p)
	}
	for i := range p.Insts {
		if q.Insts[i] != p.Insts[i] {
			t.Errorf("inst %d: got %v, want %v", i, q.Insts[i], p.Insts[i])
		}
	}
	if !bytes.Equal(q.Data, p.Data) {
		t.Error("data mismatch")
	}
	if q.Symbols["tab"] != DataBase || q.Labels["loop"] != 1 {
		t.Error("symbol/label mismatch")
	}
}

func TestReadBinaryRejectsCorrupt(t *testing.T) {
	p := makeTestProgram()
	var buf bytes.Buffer
	if err := p.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := ReadBinary(bytes.NewReader(raw[:8])); err == nil {
		t.Error("truncated binary accepted")
	}
	corrupt := append([]byte(nil), raw...)
	corrupt[0] ^= 0xFF
	if _, err := ReadBinary(bytes.NewReader(corrupt)); err == nil {
		t.Error("bad magic accepted")
	}
}

// TestProgramCloneIsDeep requires Clone to copy everything a caller may
// edit (instructions, labels, symbols) and to share the read-only data
// image.
func TestProgramCloneIsDeep(t *testing.T) {
	p := makeTestProgram()
	q := p.Clone()
	q.Insts[0].Imm = 99
	q.Labels["loop"] = 3
	q.Symbols["tab"] = 0
	if p.Insts[0].Imm == 99 || p.Labels["loop"] == 3 || p.Symbols["tab"] == 0 {
		t.Error("Clone shares instructions, labels or symbols with the original")
	}
	if len(q.Data) != len(p.Data) || &q.Data[0] != &p.Data[0] {
		t.Error("Clone copied the data image; it must share it")
	}
}

func TestProgramListing(t *testing.T) {
	p := makeTestProgram()
	l := p.Listing()
	for _, want := range []string{"loop:", "li $r1, 10", "halt", "4 instructions"} {
		if !strings.Contains(l, want) {
			t.Errorf("listing missing %q:\n%s", want, l)
		}
	}
}
