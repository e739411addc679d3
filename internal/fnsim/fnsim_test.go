package fnsim

import (
	"errors"
	"math"
	"strings"
	"testing"

	"hidisc/internal/asm"
	"hidisc/internal/isa"
)

func run(t *testing.T, src string) *Sim {
	t.Helper()
	p, err := asm.Assemble("t", src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	s := New(p)
	if err := s.Run(1_000_000); err != nil {
		t.Fatalf("run: %v", err)
	}
	return s
}

func TestArithmeticLoop(t *testing.T) {
	// Sum 1..10 = 55.
	s := run(t, `
main:   li   $r1, 10
        li   $r2, 0
loop:   add  $r2, $r2, $r1
        addi $r1, $r1, -1
        bgtz $r1, loop
        out  $r2
        halt
`)
	if got := s.Output(); len(got) != 1 || got[0] != "55" {
		t.Errorf("output = %v, want [55]", got)
	}
}

func TestIntALUOps(t *testing.T) {
	s := run(t, `
main:   li   $r1, 7
        li   $r2, 3
        mul  $r3, $r1, $r2    ; 21
        div  $r4, $r3, $r2    ; 7
        rem  $r5, $r1, $r2    ; 1
        sub  $r6, $r2, $r1    ; -4
        and  $r7, $r1, $r2    ; 3
        or   $r8, $r1, $r2    ; 7
        xor  $r9, $r1, $r2    ; 4
        nor  $r10, $r0, $r0   ; 0xFFFFFFFF
        slli $r11, $r1, 2     ; 28
        srai $r12, $r6, 1     ; -2
        srli $r13, $r10, 28   ; 15
        slt  $r14, $r6, $r0   ; 1 (signed)
        sltu $r15, $r6, $r0   ; 0 (unsigned: -4 is huge)
        slti $r16, $r1, 8     ; 1
        halt
`)
	want := map[isa.Reg]uint32{
		isa.R3: 21, isa.R4: 7, isa.R5: 1, isa.R6: 0xFFFFFFFC,
		isa.R7: 3, isa.R8: 7, isa.R9: 4, isa.R10: 0xFFFFFFFF,
		isa.R11: 28, isa.R12: 0xFFFFFFFE, isa.R13: 15,
		isa.R14: 1, isa.R15: 0, isa.R16: 1,
	}
	for r, v := range want {
		if got := s.IntReg(r); got != v {
			t.Errorf("%v = %#x, want %#x", r, got, v)
		}
	}
}

func TestMemoryOps(t *testing.T) {
	s := run(t, `
        .data
tab:    .word 10, 20, 30
dst:    .space 12
bytes:  .byte 0xAB
        .text
main:   la   $r2, tab
        lw   $r3, 4($r2)      ; 20
        la   $r4, dst
        sw   $r3, 0($r4)
        sb   $r3, 4($r4)      ; low byte 20
        lbu  $r5, bytes($r0)  ; 0xAB
        halt
`)
	if got := s.IntReg(isa.R3); got != 20 {
		t.Errorf("lw = %d", got)
	}
	if got := s.Mem.Load(isa.DataBase+12, 4); got != 20 {
		t.Errorf("sw = %d", got)
	}
	if got := s.Mem.Load(isa.DataBase+16, 1); got != 20 {
		t.Errorf("sb = %d", got)
	}
	if got := s.IntReg(isa.R5); got != 0xAB {
		t.Errorf("lbu = %#x", got)
	}
}

func TestFPOps(t *testing.T) {
	s := run(t, `
        .data
vals:   .double 1.5, 2.5
res:    .space 8
        .text
main:   la    $r2, vals
        l.d   $f1, 0($r2)
        l.d   $f2, 8($r2)
        add.d $f3, $f1, $f2   ; 4.0
        mul.d $f4, $f1, $f2   ; 3.75
        sub.d $f5, $f1, $f2   ; -1.0
        div.d $f6, $f2, $f1   ; 1.666...
        neg.d $f7, $f5        ; 1.0
        abs.d $f8, $f5        ; 1.0
        c.lt.d $r3, $f1, $f2  ; 1
        c.le.d $r4, $f2, $f1  ; 0
        c.eq.d $r5, $f7, $f8  ; 1
        li    $r6, -3
        cvt.d.w $f9, $r6      ; -3.0
        cvt.w.d $r7, $f4      ; 3
        la    $r8, res
        s.d   $f3, 0($r8)
        out.d $f3
        halt
`)
	if got := s.FPReg(isa.F(3)); got != 4.0 {
		t.Errorf("add.d = %v", got)
	}
	if got := s.FPReg(isa.F(4)); got != 3.75 {
		t.Errorf("mul.d = %v", got)
	}
	if s.IntReg(isa.R3) != 1 || s.IntReg(isa.R4) != 0 || s.IntReg(isa.R5) != 1 {
		t.Error("fp compares wrong")
	}
	if got := s.FPReg(isa.F(9)); got != -3.0 {
		t.Errorf("cvt.d.w = %v", got)
	}
	if got := s.IntReg(isa.R7); got != 3 {
		t.Errorf("cvt.w.d = %d", got)
	}
	if got := math.Float64frombits(s.Mem.Load(isa.DataBase+16, 8)); got != 4.0 {
		t.Errorf("s.d = %v", got)
	}
	if out := s.Output(); out[len(out)-1] != "4" {
		t.Errorf("out.d = %v", out)
	}
}

func TestBranchVariants(t *testing.T) {
	s := run(t, `
main:   li   $r1, -1
        li   $r10, 0
        bltz $r1, a
        halt
a:      addi $r10, $r10, 1
        bgez $r0, b
        halt
b:      addi $r10, $r10, 1
        blez $r0, c
        halt
c:      addi $r10, $r10, 1
        li   $r2, 5
        bne  $r2, $r0, d
        halt
d:      addi $r10, $r10, 1
        beq  $r2, $r2, e
        halt
e:      addi $r10, $r10, 1
        bgtz $r2, f
        halt
f:      addi $r10, $r10, 1
        halt
`)
	if got := s.IntReg(isa.R10); got != 6 {
		t.Errorf("branch chain count = %d, want 6", got)
	}
}

func TestCallReturn(t *testing.T) {
	s := run(t, `
main:   li   $r4, 5
        jal  double
        out  $r2
        halt
double: add  $r2, $r4, $r4
        jr   $ra
`)
	if got := s.Output(); got[0] != "10" {
		t.Errorf("output = %v", got)
	}
}

func TestJALR(t *testing.T) {
	s := run(t, `
main:   la   $r5, target
        jalr $r6, $r5
        halt
target: out  $r6
        halt
`)
	if got := s.Output(); got[0] != "2" {
		t.Errorf("jalr link = %v, want 2", got)
	}
}

// snanBits is a signalling NaN: an FP value moved as a float64 could
// be quieted, so every load and store must keep its bits.
const snanBits = 0x7FF0000000000001

// TestSignallingNaNRoundTrip moves a signalling NaN through l.d, s.d,
// l.d and s.d on the interpreter and on the compiled blocks.
func TestSignallingNaNRoundTrip(t *testing.T) {
	p := mustAssemble(t, "snan", `
        .data
x:      .word 1, 0x7FF00000
        .space 16
        .text
main:   la   $r2, x
        l.d  $f1, 0($r2)
        s.d  $f1, 8($r2)
        l.d  $f2, 8($r2)
        s.d  $f2, 16($r2)
        j    done
done:   halt
`)
	for _, noCompile := range []bool{true, false} {
		s := New(p)
		s.NoCompile = noCompile
		if err := s.Run(100); err != nil {
			t.Fatal(err)
		}
		if !noCompile && (s.code == nil || s.code.blocks[s.code.blockOf[p.Entry]].interp) {
			t.Fatal("the loads and stores did not run compiled")
		}
		for _, off := range []uint32{8, 16} {
			if got := s.Mem.Load(isa.DataBase+off, 8); got != snanBits {
				t.Errorf("noCompile=%v: x+%d = %#x, want %#x", noCompile, off, got, uint64(snanBits))
			}
		}
		if got := s.r[isa.F(2)]; got != snanBits {
			t.Errorf("noCompile=%v: $f2 = %#x, want %#x", noCompile, got, uint64(snanBits))
		}
	}
}

func TestR0IsHardwiredZero(t *testing.T) {
	s := run(t, `
main:   li   $r0, 42
        add  $r0, $r0, $r0
        out  $r0
        halt
`)
	if got := s.Output(); got[0] != "0" {
		t.Errorf("r0 = %v", got)
	}
}

func TestRunawayDetection(t *testing.T) {
	p := mustAssemble(t, "t", "main: j main")
	s := New(p)
	if err := s.Run(1000); err == nil || !strings.Contains(err.Error(), "runaway") {
		t.Errorf("err = %v", err)
	}
}

func TestDivisionByZero(t *testing.T) {
	p := mustAssemble(t, "t", "main: li $r1, 1\n div $r2, $r1, $r0\n halt")
	s := New(p)
	if err := s.Run(100); err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Errorf("err = %v", err)
	}
}

func TestQueueOpsRejected(t *testing.T) {
	for _, src := range []string{
		"main: bcq main",
		"main: jcq",
		"main: getscq 0",
		"main: putscq 0",
		"main: add $r1, $LDQ, $r0",
		"main: l.d $LDQ, 0($r2)",
	} {
		p := mustAssemble(t, "t", src+"\nhalt")
		s := New(p)
		if err := s.Run(10); err == nil {
			t.Errorf("source %q: queue op accepted in sequential execution", src)
		}
	}
}

func TestObserverSeesMemoryEvents(t *testing.T) {
	p := mustAssemble(t, "t", `
        .data
x:      .word 7
        .text
main:   lw   $r1, x($r0)
        sw   $r1, x+4($r0)
        pref x($r0)
        beq  $r0, $r0, done
        nop
done:   halt
`)
	s := New(p)
	var loads, stores, prefs, branches int
	var takenCount int
	s.Observer = func(ev Event) {
		switch {
		case ev.IsLoad:
			loads++
			if ev.Addr != isa.DataBase {
				t.Errorf("load addr = %#x", ev.Addr)
			}
		case ev.Inst.Op == isa.PREF:
			prefs++
		case ev.IsMem:
			stores++
		case ev.Inst.Op.IsControl():
			branches++
			if ev.Taken {
				takenCount++
			}
		}
	}
	if err := s.Run(100); err != nil {
		t.Fatal(err)
	}
	if loads != 1 || stores != 1 || prefs != 1 || branches != 1 || takenCount != 1 {
		t.Errorf("events: loads=%d stores=%d prefs=%d branches=%d taken=%d",
			loads, stores, prefs, branches, takenCount)
	}
}

func TestStackPointerInitialised(t *testing.T) {
	s := run(t, `
main:   sw   $r0, -4($sp)
        halt
`)
	if got := s.IntReg(isa.SP); got != isa.StackTop {
		t.Errorf("sp = %#x, want %#x", got, isa.StackTop)
	}
}

func TestRunProgramResult(t *testing.T) {
	p := mustAssemble(t, "t", `
        .data
x:      .space 4
        .text
main:   li  $r1, 9
        sw  $r1, x($r0)
        out $r1
        halt
`)
	r1, err := RunProgram(p, 1000)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunProgram(p, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if r1.MemHash != r2.MemHash {
		t.Error("non-deterministic memory hash")
	}
	if r1.Insts != 4 {
		t.Errorf("insts = %d, want 4", r1.Insts)
	}
	if len(r1.Output) != 1 || r1.Output[0] != "9" {
		t.Errorf("output = %v", r1.Output)
	}
}

func TestWordCountMatchesExecutedPath(t *testing.T) {
	s := run(t, `
main:   li   $r1, 3
loop:   addi $r1, $r1, -1
        bgtz $r1, loop
        halt
`)
	// 1 li + 3*(addi+bgtz) + halt = 8.
	if got := s.InstCount(); got != 8 {
		t.Errorf("inst count = %d, want 8", got)
	}
}

// fakeEnv implements QueueEnv over plain slices for unit tests.
type fakeEnv struct {
	q      map[isa.Reg][]uint64
	space  int
	pushed []uint64
	scq    int
}

func (f *fakeEnv) PopAvail(q isa.Reg) int { return len(f.q[q]) }
func (f *fakeEnv) Pop(q isa.Reg) uint64 {
	v := f.q[q][0]
	f.q[q] = f.q[q][1:]
	return v
}
func (f *fakeEnv) PushSpace(isa.Reg) int { return f.space }
func (f *fakeEnv) Push(_ isa.Reg, v uint64) {
	f.pushed = append(f.pushed, v)
	f.space--
}
func (f *fakeEnv) GetSCQ(int) bool { f.scq--; return f.scq >= 0 }
func (f *fakeEnv) PutSCQ(int) bool { return true }

func TestQueueEnvPopIntoRegister(t *testing.T) {
	p := mustAssemble(t, "t", `
main:   add $r1, $LDQ, $r0
        out $r1
        halt
`)
	s := New(p)
	s.Queues = &fakeEnv{q: map[isa.Reg][]uint64{isa.RegLDQ: {77}}, space: 8}
	if err := s.Run(10); err != nil {
		t.Fatal(err)
	}
	if s.Output()[0] != "77" {
		t.Errorf("output %v", s.Output())
	}
}

func TestQueueEnvBlockedOnEmptyPop(t *testing.T) {
	p := mustAssemble(t, "t", "main: add $r1, $LDQ, $r0\nhalt")
	s := New(p)
	s.Queues = &fakeEnv{q: map[isa.Reg][]uint64{}, space: 8}
	err := s.Step()
	if !errors.Is(err, ErrBlocked) {
		t.Errorf("err = %v, want ErrBlocked", err)
	}
	if s.InstCount() != 0 || s.PC() != 0 {
		t.Error("blocked step mutated state")
	}
}

func TestQueueEnvBlockedOnFullPush(t *testing.T) {
	p := mustAssemble(t, "t", "main: lw $LDQ, 0($r2)\nhalt")
	s := New(p)
	s.Queues = &fakeEnv{q: map[isa.Reg][]uint64{}, space: 0}
	if err := s.Step(); !errors.Is(err, ErrBlocked) {
		t.Errorf("err = %v, want ErrBlocked", err)
	}
}

func TestQueueEnvFPRoundTrip(t *testing.T) {
	p := mustAssemble(t, "t", `
main:   mov.d $f1, $LDQ
        add.d $f2, $f1, $f1
        mov.d $SDQ, $f2
        halt
`)
	env := &fakeEnv{q: map[isa.Reg][]uint64{isa.RegLDQ: {math.Float64bits(1.5)}}, space: 8}
	s := New(p)
	s.Queues = env
	if err := s.Run(10); err != nil {
		t.Fatal(err)
	}
	if len(env.pushed) != 1 || math.Float64frombits(env.pushed[0]) != 3.0 {
		t.Errorf("pushed %v", env.pushed)
	}
}

func TestQueueEnvTapAndBranchPush(t *testing.T) {
	// A tapped producer both writes its register and pushes; a PushCQ
	// branch pushes its outcome.
	prog := &isa.Program{
		Name: "t",
		Insts: []isa.Inst{
			{Op: isa.LI, Rd: isa.R1, Imm: 9, Ann: isa.AnnTapLDQ},
			{Op: isa.BGTZ, Rs: isa.R1, Imm: 2, Ann: isa.AnnPushCQ},
			{Op: isa.HALT},
		},
	}
	env := &fakeEnv{q: map[isa.Reg][]uint64{}, space: 8}
	s := New(prog)
	s.Queues = env
	if err := s.Run(10); err != nil {
		t.Fatal(err)
	}
	if s.IntReg(isa.R1) != 9 {
		t.Error("tap did not write the register")
	}
	if len(env.pushed) != 2 || env.pushed[0] != 9 || env.pushed[1] != 1 {
		t.Errorf("pushes %v, want [9 1]", env.pushed)
	}
}

func TestGetSCQBlocked(t *testing.T) {
	prog := &isa.Program{Name: "t", Insts: []isa.Inst{
		{Op: isa.GETSCQ, Imm: 0},
		{Op: isa.HALT},
	}}
	s := New(prog)
	s.Queues = &fakeEnv{q: map[isa.Reg][]uint64{}, space: 8, scq: 1}
	if err := s.Step(); err != nil {
		t.Fatalf("first credit: %v", err)
	}
	s2 := New(prog)
	s2.Queues = &fakeEnv{q: map[isa.Reg][]uint64{}, space: 8, scq: 0}
	if err := s2.Step(); !errors.Is(err, ErrBlocked) {
		t.Errorf("err = %v, want ErrBlocked", err)
	}
}

func TestJCQMapTranslation(t *testing.T) {
	prog := &isa.Program{Name: "t", Insts: []isa.Inst{
		{Op: isa.JCQ},
		{Op: isa.HALT},
		{Op: isa.OUT, Rs: isa.R0},
		{Op: isa.HALT},
	}}
	s := New(prog)
	s.Queues = &fakeEnv{q: map[isa.Reg][]uint64{isa.RegCQ: {5}}, space: 8}
	s.JCQMap = []int{0, 0, 0, 0, 0, 2} // token 5 -> index 2
	if err := s.Run(10); err != nil {
		t.Fatal(err)
	}
	if len(s.Output()) != 1 {
		t.Errorf("JCQ translation failed: output %v", s.Output())
	}
}

func TestJCQTokenOutOfRange(t *testing.T) {
	prog := &isa.Program{Name: "t", Insts: []isa.Inst{
		{Op: isa.JCQ},
		{Op: isa.HALT},
	}}
	s := New(prog)
	s.Queues = &fakeEnv{q: map[isa.Reg][]uint64{isa.RegCQ: {99}}, space: 8}
	s.JCQMap = []int{0}
	if err := s.Step(); err == nil || errors.Is(err, ErrBlocked) {
		t.Errorf("err = %v, want range error", err)
	}
}

// mustAssemble assembles fixed test source, failing the test on error.
func mustAssemble(tb testing.TB, name, src string) *isa.Program {
	tb.Helper()
	p, err := asm.Assemble(name, src)
	if err != nil {
		tb.Fatalf("assemble %s: %v", name, err)
	}
	return p
}
