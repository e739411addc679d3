package slicer

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"hidisc/internal/asm"
	"hidisc/internal/cpu"
	"hidisc/internal/fnsim"
	"hidisc/internal/isa"
	"hidisc/internal/mem"
	"hidisc/internal/profile"
	"hidisc/internal/simfault"
)

// convolutionSrc is the paper's running example (Figure 3): the inner
// loop of a discrete convolution, with array initialisation so the
// result is non-trivial.
const convolutionSrc = `
        .data
x:      .space 512            ; 64 doubles
h:      .space 512
y:      .space 8
        .text
main:   li   $r1, 64
        la   $r2, x
        la   $r3, h
        li   $r4, 0
init:   addi $r5, $r4, 1
        cvt.d.w $f1, $r5
        s.d  $f1, 0($r2)
        addi $r6, $r4, 3
        cvt.d.w $f2, $r6
        s.d  $f2, 0($r3)
        addi $r2, $r2, 8
        addi $r3, $r3, 8
        addi $r4, $r4, 1
        bne  $r4, $r1, init
        la   $r2, x
        la   $r3, h
        li   $r4, 0
        sub.d $f10, $f10, $f10
loop:   l.d  $f1, 0($r2)
        l.d  $f2, 0($r3)
        mul.d $f3, $f1, $f2
        add.d $f10, $f10, $f3
        addi $r2, $r2, 8
        addi $r3, $r3, 8
        addi $r4, $r4, 1
        bne  $r4, $r1, loop
        la   $r5, y
        s.d  $f10, 0($r5)
        out.d $f10
        halt
`

func separate(t *testing.T, src string, opts Options) *Bundle {
	t.Helper()
	p, err := asm.Assemble("t", src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	b, err := Separate(p, opts)
	if err != nil {
		t.Fatalf("Separate: %v", err)
	}
	return b
}

// checkEquivalence separates src and asserts that the functional
// co-simulation of the streams matches sequential execution exactly.
func checkEquivalence(t *testing.T, name, src string) *Bundle {
	t.Helper()
	p, err := asm.Assemble(name, src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	want, err := fnsim.RunProgram(p, 50_000_000)
	if err != nil {
		t.Fatalf("sequential run: %v", err)
	}
	b, err := Separate(p, Options{})
	if err != nil {
		t.Fatalf("Separate: %v", err)
	}
	got, err := Cosim(b, 100_000_000)
	if err != nil {
		t.Fatalf("cosim: %v\n%s", err, b.Report())
	}
	if got.MemHash != want.MemHash {
		t.Errorf("%s: memory mismatch after separation", name)
	}
	if len(got.Output) != len(want.Output) {
		t.Fatalf("%s: output length %d vs %d (%v vs %v)", name, len(got.Output), len(want.Output), got.Output, want.Output)
	}
	for i := range want.Output {
		if got.Output[i] != want.Output[i] {
			t.Errorf("%s: output[%d] = %q, want %q", name, i, got.Output[i], want.Output[i])
		}
	}
	if !got.Drained {
		t.Errorf("%s: queues not drained at completion", name)
	}
	return b
}

func TestCSContainsNoMemoryOps(t *testing.T) {
	b := separate(t, convolutionSrc, Options{})
	for i, in := range b.CS.Insts {
		if in.Op.IsMem() {
			t.Errorf("CS inst %d is a memory op: %v", i, in)
		}
	}
}

func TestASContainsAllMemoryAndControl(t *testing.T) {
	b := separate(t, convolutionSrc, Options{})
	for i, in := range b.Seq.Insts {
		if in.Op.IsMem() || (in.Op.IsControl() && in.Op != isa.HALT) {
			if in.Ann.Stream() != isa.StreamAccess {
				t.Errorf("seq inst %d (%v) not in AS", i, in)
			}
		}
	}
}

func TestFPComputeStaysInCS(t *testing.T) {
	b := separate(t, convolutionSrc, Options{})
	for i, in := range b.Seq.Insts {
		switch in.Op {
		case isa.FMUL, isa.FADD, isa.FSUB:
			if in.Ann.Stream() != isa.StreamCompute {
				t.Errorf("seq inst %d (%v) classified %v, want CS", i, in, in.Ann.Stream())
			}
		}
	}
}

func TestPurePushLoads(t *testing.T) {
	// The convolution's two l.d results are consumed only by the CS
	// multiply, so they become the paper's "l.d $LDQ" transport form.
	b := separate(t, convolutionSrc, Options{})
	pure := 0
	for _, in := range b.AS.Insts {
		if in.Op == isa.LFD && in.Dest() == isa.RegLDQ {
			pure++
		}
	}
	if pure != 2 {
		t.Errorf("pure-push loads = %d, want 2\n%s", pure, b.AS.Listing())
	}
}

func TestStoreDataFlowsThroughSDQ(t *testing.T) {
	b := separate(t, convolutionSrc, Options{})
	// The cvt.d.w producers and the add.d accumulator feed stores, so
	// they carry the SDQ tap; the AS receives matching pops.
	taps := 0
	for _, in := range b.CS.Insts {
		if in.Ann.Has(isa.AnnTapSDQ) {
			taps++
		}
	}
	if taps < 3 {
		t.Errorf("SDQ taps = %d, want >= 3\n%s", taps, b.CS.Listing())
	}
	pops := 0
	for _, in := range b.AS.Insts {
		for _, s := range in.Sources() {
			if s == isa.RegSDQ {
				pops++
			}
		}
	}
	if pops != taps {
		t.Errorf("SDQ pops (%d) != taps (%d)", pops, taps)
	}
}

func TestBranchMirroring(t *testing.T) {
	b := separate(t, convolutionSrc, Options{})
	var asBranches, csBCQ int
	for _, in := range b.AS.Insts {
		if in.Op.IsCondBranch() {
			asBranches++
			if !in.Ann.Has(isa.AnnPushCQ) {
				t.Errorf("AS branch without PushCQ: %v", in)
			}
		}
	}
	for _, in := range b.CS.Insts {
		if in.Op == isa.BCQ {
			csBCQ++
		}
	}
	if asBranches == 0 || asBranches != csBCQ {
		t.Errorf("AS branches %d, CS bcq %d", asBranches, csBCQ)
	}
}

func TestStreamEntryPoints(t *testing.T) {
	b := separate(t, convolutionSrc, Options{})
	if b.CS.Entry != b.CSPos[0] || b.AS.Entry != b.ASPos[0] {
		t.Errorf("entries: CS %d, AS %d", b.CS.Entry, b.AS.Entry)
	}
}

func TestEquivalenceConvolution(t *testing.T) {
	b := checkEquivalence(t, "convolution", convolutionSrc)
	st := b.Stats()
	if st.Access == 0 || st.Compute == 0 {
		t.Errorf("degenerate separation: %+v", st)
	}
}

func TestEquivalenceBranchy(t *testing.T) {
	checkEquivalence(t, "branchy", `
        .data
buf:    .space 400
        .text
main:   li   $r1, 100
        li   $r2, 0          ; even sum
        li   $r3, 0          ; odd sum
        la   $r7, buf
loop:   andi $r4, $r1, 1
        beq  $r4, $r0, even
        add  $r3, $r3, $r1
        j    next
even:   add  $r2, $r2, $r1
next:   sw   $r3, 0($r7)
        addi $r7, $r7, 4
        addi $r1, $r1, -1
        bgtz $r1, loop
        out  $r2
        out  $r3
        halt
`)
}

func TestEquivalencePointerChase(t *testing.T) {
	checkEquivalence(t, "chase", `
        .data
nodes:  .space 800           ; 100 nodes of {next, value}
        .text
main:   la   $r2, nodes      ; build list: node i -> node i+1
        li   $r1, 99
        li   $r5, 5
build:  addi $r3, $r2, 8
        sw   $r3, 0($r2)
        sw   $r5, 4($r2)
        addi $r5, $r5, 3
        mov  $r2, $r3
        addi $r1, $r1, -1
        bgtz $r1, build
        sw   $r0, 0($r2)     ; terminate
        sw   $r5, 4($r2)
        ; chase and sum values
        la   $r2, nodes
        li   $r6, 0
chase:  lw   $r4, 4($r2)
        add  $r6, $r6, $r4
        lw   $r2, 0($r2)
        bne  $r2, $r0, chase
        out  $r6
        halt
`)
}

func TestEquivalenceCallReturn(t *testing.T) {
	checkEquivalence(t, "call", `
main:   li   $r4, 10
        jal  square
        out  $r2
        li   $r4, 7
        jal  square
        out  $r2
        halt
square: mul  $r2, $r4, $r4
        addi $r2, $r2, 1
        jr   $ra
`)
}

func TestEquivalenceNestedLoops(t *testing.T) {
	checkEquivalence(t, "nested", `
        .data
m:      .space 1024
        .text
main:   li   $r1, 16
        li   $r9, 0
outer:  li   $r2, 16
        la   $r3, m
inner:  lw   $r4, 0($r3)
        addi $r4, $r4, 1
        sw   $r4, 0($r3)
        addi $r3, $r3, 4
        addi $r2, $r2, -1
        bgtz $r2, inner
        addi $r9, $r9, 1
        addi $r1, $r1, -1
        bgtz $r1, outer
        out  $r9
        halt
`)
}

func TestEquivalenceComputedAddress(t *testing.T) {
	// Address depends on a computed (histogram-style) value: the whole
	// chain gets sliced into the AS.
	checkEquivalence(t, "hist", `
        .data
pix:    .space 256
hist:   .space 64
        .text
main:   la   $r2, pix
        li   $r1, 64
        li   $r5, 17
fill:   sw   $r5, 0($r2)
        mul  $r5, $r5, $r5
        addi $r5, $r5, 13
        andi $r5, $r5, 255
        addi $r2, $r2, 4
        addi $r1, $r1, -1
        bgtz $r1, fill
        la   $r2, pix
        la   $r6, hist
        li   $r1, 64
scan:   lw   $r3, 0($r2)
        srli $r4, $r3, 4
        andi $r4, $r4, 15
        slli $r4, $r4, 2
        add  $r4, $r6, $r4
        lw   $r7, 0($r4)
        addi $r7, $r7, 1
        sw   $r7, 0($r4)
        addi $r2, $r2, 4
        addi $r1, $r1, -1
        bgtz $r1, scan
        halt
`)
}

// --- CMAS construction ---

const chaseKernelSrc = `
        .data
nodes:  .space 131072        ; 4096 nodes of 32 bytes
        .text
main:   la   $r2, nodes      ; node i -> node (5i+13) mod n, payload
        li   $r1, 4096
        li   $r5, 1
        li   $r8, 0
build:  slli $r6, $r8, 2
        add  $r6, $r6, $r8   ; 5*i
        addi $r6, $r6, 13
        andi $r3, $r6, 4095  ; full-period affine successor
        slli $r4, $r3, 5
        la   $r7, nodes
        add  $r4, $r7, $r4
        sw   $r4, 0($r2)
        sw   $r5, 4($r2)
        addi $r5, $r5, 1
        addi $r8, $r8, 1
        addi $r2, $r2, 32
        addi $r1, $r1, -1
        bgtz $r1, build
        ; chase
        la   $r2, nodes
        li   $r6, 0
        li   $r1, 8192
chase:  lw   $r4, 4($r2)
        add  $r6, $r6, $r4
        lw   $r2, 0($r2)
        addi $r1, $r1, -1
        bgtz $r1, chase
        out  $r6
        halt
`

func smallHier() mem.HierConfig {
	return mem.HierConfig{
		L1D:        mem.CacheConfig{Name: "dl1", Sets: 16, Ways: 2, BlockSize: 32, Latency: 1},
		L2:         mem.CacheConfig{Name: "ul2", Sets: 128, Ways: 4, BlockSize: 64, Latency: 12},
		MemLatency: 120,
	}
}

func separateWithProfile(t *testing.T, src string) *Bundle {
	t.Helper()
	p, err := asm.Assemble("k", src)
	if err != nil {
		t.Fatal(err)
	}
	prof, err := profile.CacheProfile(p, smallHier(), 50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Separate(p, Options{Profile: prof, MinMissRatio: 0.2, MinMisses: 64})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestCMASConstruction(t *testing.T) {
	b := separateWithProfile(t, chaseKernelSrc)
	if len(b.CMAS) == 0 {
		t.Fatalf("no CMAS built\n%s", b.Report())
	}
	var hasChaseLoad, hasPutSCQ, hasHalt, hasStore bool
	for _, c := range b.CMAS {
		for _, in := range c.Insts {
			switch {
			case in.Op == isa.LW && in.Imm == 0:
				hasChaseLoad = true // pointer load: value needed, stays a load
			case in.Op == isa.PUTSCQ:
				hasPutSCQ = true
			case in.Op == isa.HALT:
				hasHalt = true
			case in.Op.IsStore():
				hasStore = true
			}
		}
	}
	if !hasChaseLoad {
		t.Errorf("CMAS missing pointer-chase load:\n%s", b.Report())
	}
	if !hasPutSCQ {
		t.Error("CMAS missing PUTSCQ credit")
	}
	if !hasHalt {
		t.Error("CMAS missing terminating HALT")
	}
	if hasStore {
		t.Error("CMAS contains a store (must be side-effect free)")
	}
	// The payload load (lw $r4, 4($r2)) feeds only the CS sum; in the
	// CMAS its value is unused, so it becomes a PREF... unless it was
	// not delinquent. Either way no CMAS load may write a register the
	// slice does not read.
}

func TestCMASTriggerAnnotationsInAS(t *testing.T) {
	b := separateWithProfile(t, chaseKernelSrc)
	var asTriggers, seqTriggers int
	for _, in := range b.AS.Insts {
		if in.Ann.Has(isa.AnnTrigger) {
			asTriggers++
			if !in.Ann.Has(isa.AnnConsumeSCQ) {
				t.Error("AS trigger without ConsumeSCQ")
			}
			if !in.Op.IsCondBranch() && in.Op != isa.J {
				t.Errorf("trigger annotation on non-branch %v", in)
			}
		}
	}
	for _, in := range b.Seq.Insts {
		if in.Ann.Has(isa.AnnTrigger) {
			seqTriggers++
			if !in.Ann.Has(isa.AnnConsumeSCQ) {
				t.Error("Seq trigger without ConsumeSCQ")
			}
		}
	}
	if asTriggers < len(b.CMAS) {
		t.Errorf("AS triggers %d < CMAS count %d", asTriggers, len(b.CMAS))
	}
	if seqTriggers < len(b.CMAS) {
		t.Errorf("Seq triggers %d < CMAS count %d", seqTriggers, len(b.CMAS))
	}
}

func TestBlockingHandshakeEmitsGETSCQ(t *testing.T) {
	p := mustAssemble(t, "k", chaseKernelSrc)
	prof, err := profile.CacheProfile(p, smallHier(), 50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Separate(p, Options{Profile: prof, MinMissRatio: 0.2, MinMisses: 64, BlockingHandshake: true})
	if err != nil {
		t.Fatal(err)
	}
	getscq := 0
	for _, in := range b.AS.Insts {
		if in.Op == isa.GETSCQ {
			getscq++
			if !in.Ann.Has(isa.AnnTrigger) {
				t.Error("GETSCQ without trigger annotation")
			}
		}
	}
	if getscq != len(b.CMAS) {
		t.Errorf("GETSCQ count %d != CMAS count %d", getscq, len(b.CMAS))
	}
}

func TestCMASBranchTargetsInRange(t *testing.T) {
	b := separateWithProfile(t, chaseKernelSrc)
	for _, c := range b.CMAS {
		for i, in := range c.Insts {
			if in.Op.IsDirectControl() {
				if t2 := in.Target(); t2 < 0 || t2 >= len(c.Insts) {
					t.Errorf("CMAS %d inst %d target %d out of range", c.ID, i, t2)
				}
			}
		}
	}
}

func TestCMASKeepsEquivalence(t *testing.T) {
	// CMAS and GETSCQ/trigger insertion must not change functional
	// results.
	p := mustAssemble(t, "k", chaseKernelSrc)
	want, err := fnsim.RunProgram(p, 50_000_000)
	if err != nil {
		t.Fatal(err)
	}
	b := separateWithProfile(t, chaseKernelSrc)
	got, err := Cosim(b, 100_000_000)
	if err != nil {
		t.Fatalf("cosim: %v", err)
	}
	if got.MemHash != want.MemHash || len(got.Output) != len(want.Output) || got.Output[0] != want.Output[0] {
		t.Error("CMAS insertion changed functional result")
	}
}

func TestNoCMASWithoutProfile(t *testing.T) {
	b := separate(t, chaseKernelSrc, Options{})
	if len(b.CMAS) != 0 {
		t.Error("CMAS built without a profile")
	}
}

func TestJCQTableMonotone(t *testing.T) {
	b := separate(t, `
main:   jal  f
        out  $r2
        halt
f:      li   $r2, 3
        jr   $ra
`, Options{})
	tbl := b.JCQTable()
	if len(tbl) != len(b.AS.Insts)+1 {
		t.Fatalf("table length %d", len(tbl))
	}
	for i := 1; i < len(tbl); i++ {
		if tbl[i] < tbl[i-1] {
			t.Errorf("JCQ table not monotone at %d: %v", i, tbl)
		}
	}
	// The AS return point (after jal) must map to the CS position of
	// the original return instruction (the out mirror position).
	jalAS := -1
	for i, in := range b.AS.Insts {
		if in.Op == isa.JAL {
			jalAS = i
		}
	}
	if jalAS < 0 {
		t.Fatal("no JAL in AS")
	}
	if want := b.CSPos[1]; tbl[jalAS+1] != want {
		t.Errorf("return translation = %d, want %d", tbl[jalAS+1], want)
	}
}

func TestReportAndStats(t *testing.T) {
	b := separateWithProfile(t, chaseKernelSrc)
	r := b.Report()
	for _, want := range []string{"access stream", "computation stream", "CMAS #0", "putscq"} {
		if !strings.Contains(r, want) {
			t.Errorf("report missing %q", want)
		}
	}
	st := b.Stats()
	if st.Total != len(b.Seq.Insts) || st.Access+st.Compute != st.Total {
		t.Errorf("stats inconsistent: %+v", st)
	}
	if st.CQBranches == 0 || st.CMASCount != len(b.CMAS) {
		t.Errorf("stats: %+v", st)
	}
}

func TestSeparateRejectsInvalidProgram(t *testing.T) {
	if _, err := Separate(&isa.Program{Name: "bad"}, Options{}); err == nil {
		t.Error("invalid program accepted")
	}
}

// --- structural invariants ---

// TestStreamControlIsomorphism checks the invariant queue pairing
// rests on: the two streams carry the same conditional-branch
// structure, mapped through the position tables.
func TestStreamControlIsomorphism(t *testing.T) {
	for _, src := range []string{convolutionSrc, chaseKernelSrc} {
		b := separate(t, src, Options{})
		var asCond, csBCQ []int // stream indices
		for i, in := range b.AS.Insts {
			if in.Op.IsCondBranch() && in.Ann.Has(isa.AnnPushCQ) {
				asCond = append(asCond, i)
			}
		}
		for i, in := range b.CS.Insts {
			if in.Op == isa.BCQ {
				csBCQ = append(csBCQ, i)
			}
		}
		if len(asCond) != len(csBCQ) {
			t.Fatalf("branch counts differ: AS %d, CS %d", len(asCond), len(csBCQ))
		}
		for k := range asCond {
			origA := b.OrigOfAS[asCond[k]]
			origC := b.OrigOfCS[csBCQ[k]]
			if origA != origC {
				t.Errorf("branch %d: AS mirrors orig %d, CS mirrors orig %d", k, origA, origC)
			}
			// Targets must correspond through the position tables.
			ta := b.AS.Insts[asCond[k]].Target()
			tc := b.CS.Insts[csBCQ[k]].Target()
			origTarget := b.Seq.Insts[origA].Target()
			if ta != b.ASPos[origTarget] || tc != b.CSPos[origTarget] {
				t.Errorf("branch %d targets unmapped: AS %d (want %d), CS %d (want %d)",
					k, ta, b.ASPos[origTarget], tc, b.CSPos[origTarget])
			}
		}
	}
}

// TestStaticPushPopBalance: LDQ producers in the AS equal LDQ pops in
// the CS at corresponding original positions, and symmetrically for
// the SDQ.
func TestStaticPushPopBalance(t *testing.T) {
	b := separate(t, convolutionSrc, Options{})
	ldqProducers := map[int]bool{} // original index
	for i, in := range b.AS.Insts {
		if in.Ann.Has(isa.AnnTapLDQ) || in.Dest() == isa.RegLDQ {
			ldqProducers[b.OrigOfAS[i]] = true
		}
	}
	ldqPops := 0
	for i, in := range b.CS.Insts {
		for _, s := range in.Sources() {
			if s == isa.RegLDQ {
				ldqPops++
				// The pop must sit at the producer's corresponding
				// position: its OrigOf is -1 (inserted) and the nearest
				// preceding real original index is the producer's slot.
				_ = i
			}
		}
	}
	if len(ldqProducers) != ldqPops {
		t.Errorf("LDQ producers %d != pops %d", len(ldqProducers), ldqPops)
	}

	sdqProducers := 0
	for _, in := range b.CS.Insts {
		if in.Ann.Has(isa.AnnTapSDQ) {
			sdqProducers++
		}
	}
	sdqPops := 0
	for _, in := range b.AS.Insts {
		for _, s := range in.Sources() {
			if s == isa.RegSDQ {
				sdqPops++
			}
		}
	}
	if sdqProducers != sdqPops {
		t.Errorf("SDQ producers %d != pops %d", sdqProducers, sdqPops)
	}
}

func TestStreamsCarryNoForeignOps(t *testing.T) {
	b := separateWithProfile(t, chaseKernelSrc)
	for _, in := range b.CS.Insts {
		if in.Op.IsMem() {
			t.Errorf("memory op in CS: %v", in)
		}
		if in.Ann.Has(isa.AnnPushCQ) || in.Ann.Has(isa.AnnTapLDQ) {
			t.Errorf("AS annotation in CS: %v", in)
		}
		if in.Op == isa.GETSCQ || in.Op == isa.PUTSCQ {
			t.Errorf("slip-control op in CS: %v", in)
		}
	}
	for _, in := range b.AS.Insts {
		if in.Op == isa.BCQ || in.Op == isa.JCQ {
			t.Errorf("CS mirror op in AS: %v", in)
		}
		if in.Ann.Has(isa.AnnTapSDQ) {
			t.Errorf("CS annotation in AS: %v", in)
		}
	}
	for _, c := range b.CMAS {
		for _, in := range c.Insts {
			if in.Op == isa.OUT || in.Op == isa.OUTF || in.Op.IsStore() {
				t.Errorf("side effect in CMAS: %v", in)
			}
		}
	}
}

func TestPositionTablesMonotone(t *testing.T) {
	b := separate(t, convolutionSrc, Options{})
	for i := 1; i < len(b.CSPos); i++ {
		if b.CSPos[i] < b.CSPos[i-1] || b.ASPos[i] < b.ASPos[i-1] {
			t.Fatalf("position tables not monotone at %d", i)
		}
	}
	if len(b.OrigOfCS) != len(b.CS.Insts) || len(b.OrigOfAS) != len(b.AS.Insts) {
		t.Error("OrigOf length mismatch")
	}
}

func TestPrefetchDistanceAppliedToStridedSeeds(t *testing.T) {
	// A strided streaming kernel: the CMAS prefetch must carry the
	// configured distance in its immediate.
	src := `
        .data
buf:    .space 262144
        .text
main:   la   $r2, buf
        li   $r1, 32768
loop:   lw   $r3, 0($r2)
        add  $r4, $r4, $r3
        addi $r2, $r2, 8
        addi $r1, $r1, -1
        bgtz $r1, loop
        out  $r4
        halt
`
	p := mustAssemble(t, "stream", src)
	prof, err := profile.CacheProfile(p, mem.DefaultHierConfig(), 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Separate(p, Options{Profile: prof, PrefetchDistance: 192})
	if err != nil {
		t.Fatal(err)
	}
	if len(b.CMAS) == 0 {
		t.Fatal("no CMAS for streaming kernel")
	}
	found := false
	for _, in := range b.CMAS[0].Insts {
		if in.Op == isa.PREF && in.Imm == 192 {
			found = true
		}
	}
	if !found {
		t.Errorf("no PREF with +192 distance:\n%s", b.Report())
	}
}

// TestSliceCapBoundsCMPContexts pins the slice cap: nine delinquent
// strided loops separate into exactly maxCMAS slices, the loop with the
// fewest misses is the one left out, and a CMP built from the slices
// holds all of them live at once (one context per CMAS id).
func TestSliceCapBoundsCMPContexts(t *testing.T) {
	// Trip counts in program order; every access touches a new line, so
	// a loop's misses grow with its trip count. The smallest is in the
	// middle so the test cannot pass by keeping the first eight loops.
	trips := []int{700, 500, 900, 300, 1000, 600, 800, 400, 1100}
	const dropped = 3
	var sb strings.Builder
	sb.WriteString("        .data\n")
	for i, n := range trips {
		fmt.Fprintf(&sb, "buf%d:   .space %d\n", i, n*64)
	}
	sb.WriteString("        .text\nmain:   li   $r4, 0\n")
	for i, n := range trips {
		fmt.Fprintf(&sb, `        la   $r2, buf%d
        li   $r1, %d
l%d:     lw   $r3, 0($r2)
        add  $r4, $r4, $r3
        addi $r2, $r2, 64
        addi $r1, $r1, -1
        bgtz $r1, l%d
`, i, n, i, i)
	}
	sb.WriteString("        out  $r4\n        halt\n")
	p := mustAssemble(t, "nineloops", sb.String())
	prof, err := profile.CacheProfile(p, mem.DefaultHierConfig(), 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Separate(p, Options{Profile: prof})
	if err != nil {
		t.Fatal(err)
	}
	if len(b.CMAS) != maxCMAS {
		t.Fatalf("%d CMAS, want %d:\n%s", len(b.CMAS), maxCMAS, b.Report())
	}
	kept := map[int]bool{}
	for _, c := range b.CMAS {
		kept[c.LoopHeader] = true
	}
	for i := range trips {
		h := p.Labels[fmt.Sprintf("l%d", i)]
		if kept[h] == (i == dropped) {
			t.Errorf("loop l%d (%d misses) kept=%v", i, trips[i], kept[h])
		}
	}

	progs := make([][]isa.Inst, len(b.CMAS))
	for i, c := range b.CMAS {
		progs[i] = c.Insts
	}
	h, err := mem.NewHierarchy(mem.DefaultHierConfig())
	if err != nil {
		t.Fatal(err)
	}
	e := cpu.NewCMP(cpu.CMPConfig{}, progs, mem.NewMemory(), h, nil)
	var r [isa.NumIntRegs + isa.NumFPRegs]uint64
	for id := range progs {
		e.Fork(id, &r)
	}
	if st := e.Stats(); st.Forks != maxCMAS || st.ForksIgnored != 0 || e.ActiveContexts() != maxCMAS {
		t.Errorf("after one trigger per CMAS: forks %d, ignored %d, live %d; want %d, 0, %d",
			st.Forks, st.ForksIgnored, e.ActiveContexts(), maxCMAS, maxCMAS)
	}
}

func TestStoreSeedBecomesPrefetch(t *testing.T) {
	// A store-only streaming kernel: the write-allocate misses seed a
	// CMAS of prefetches.
	src := `
        .data
buf:    .space 262144
        .text
main:   la   $r2, buf
        li   $r1, 32768
loop:   sw   $r1, 0($r2)
        addi $r2, $r2, 8
        addi $r1, $r1, -1
        bgtz $r1, loop
        halt
`
	p := mustAssemble(t, "storestream", src)
	prof, err := profile.CacheProfile(p, mem.DefaultHierConfig(), 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Separate(p, Options{Profile: prof})
	if err != nil {
		t.Fatal(err)
	}
	if len(b.CMAS) == 0 {
		t.Fatal("store misses produced no CMAS")
	}
	prefs := 0
	for _, in := range b.CMAS[0].Insts {
		if in.Op == isa.PREF {
			prefs++
		}
		if in.Op.IsStore() {
			t.Errorf("store survived in CMAS: %v", in)
		}
	}
	if prefs == 0 {
		t.Error("no prefetch for the store stream")
	}
}

// --- control-queue thinning ---

const asOnlyLoopSrc = `
        .data
buf:    .space 65536
        .text
main:   la   $r2, buf         ; pure access-stream fill loop
        li   $r1, 4096
fill:   sw   $r1, 0($r2)
        addi $r2, $r2, 4
        addi $r1, $r1, -1
        bgtz $r1, fill
        ; a computation the CS does care about
        la   $r2, buf
        lw   $r3, 64($r2)
        addi $r4, $r3, 1
        out  $r4
        halt
`

func TestControlThinningDropsASOnlyLoop(t *testing.T) {
	b := separate(t, asOnlyLoopSrc, Options{})
	for _, in := range b.CS.Insts {
		if in.Op == isa.BCQ {
			t.Errorf("CS still mirrors the access-only loop: %v\n%s", in, b.CS.Listing())
		}
	}
	for _, in := range b.AS.Insts {
		if in.Ann.Has(isa.AnnPushCQ) {
			t.Errorf("AS still pushes outcome tokens: %v", in)
		}
	}
	// Thinning must not change semantics.
	p := mustAssemble(t, "t", asOnlyLoopSrc)
	ref, err := fnsim.RunProgram(p, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Cosim(b, 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if got.MemHash != ref.MemHash || got.Output[0] != ref.Output[0] {
		t.Error("thinned separation diverged")
	}
}

func TestKeepAllControlRetainsMirrors(t *testing.T) {
	b := separate(t, asOnlyLoopSrc, Options{KeepAllControl: true})
	bcq := 0
	for _, in := range b.CS.Insts {
		if in.Op == isa.BCQ {
			bcq++
		}
	}
	if bcq == 0 {
		t.Error("KeepAllControl still thinned the loop")
	}
}

func TestThinningKeepsCSRelevantBranches(t *testing.T) {
	// The convolution loop computes in the CS every iteration: its
	// branch must stay mirrored.
	b := separate(t, convolutionSrc, Options{})
	bcq := 0
	for _, in := range b.CS.Insts {
		if in.Op == isa.BCQ {
			bcq++
		}
	}
	if bcq == 0 {
		t.Errorf("CS-relevant loop was thinned:\n%s", b.CS.Listing())
	}
}

func TestThinningReducesCPWork(t *testing.T) {
	thin := separate(t, asOnlyLoopSrc, Options{})
	full := separate(t, asOnlyLoopSrc, Options{KeepAllControl: true})
	if len(thin.CS.Insts) >= len(full.CS.Insts) {
		t.Errorf("thinned CS (%d insts) not smaller than full CS (%d)",
			len(thin.CS.Insts), len(full.CS.Insts))
	}
}

func TestLoopWithCallSkipsCMASGracefully(t *testing.T) {
	src := `
        .data
buf:    .space 262144
        .text
main:   la   $r2, buf
        li   $r1, 16384
loop:   lw   $r3, 0($r2)
        jal  f
        addi $r2, $r2, 16
        addi $r1, $r1, -1
        bgtz $r1, loop
        out  $r4
        halt
f:      add  $r4, $r4, $r3
        jr   $ra
`
	p := mustAssemble(t, "call-loop", src)
	prof, err := profile.CacheProfile(p, mem.DefaultHierConfig(), 10_000_000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Separate(p, Options{Profile: prof})
	if err != nil {
		t.Fatalf("loop with call must separate without error: %v", err)
	}
	if len(b.CMAS) != 0 {
		t.Errorf("CMAS built for a loop containing a call")
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

func TestCosimDeadlockIsTypedWithBlockedQueue(t *testing.T) {
	// A mis-sliced bundle: the CS pops an LDQ value the AS never
	// pushes. Cosim must return a structured DeadlockFault naming the
	// starved queue — not an opaque string — so callers can branch on
	// which FIFO wedged the pair.
	cs := mustAssemble(t, "cs", `
main:   add $r1, $LDQ, $r0
        halt
`)
	as := mustAssemble(t, "as", `
main:   halt
`)
	b := &Bundle{Name: "starved", Seq: as, CS: cs, AS: as}
	_, err := Cosim(b, 1_000_000)
	if err == nil {
		t.Fatal("mis-sliced bundle co-simulated without error")
	}
	var dl *simfault.DeadlockFault
	if !errors.As(err, &dl) {
		t.Fatalf("got %T (%v), want *simfault.DeadlockFault", err, err)
	}
	ldq, ok := dl.Queue("LDQ")
	if !ok {
		t.Fatalf("fault lost the LDQ state: %+v", dl.Queues)
	}
	if !ldq.Empty() || ldq.Pushes != 0 {
		t.Errorf("LDQ at deadlock = %+v; want empty and never pushed", ldq)
	}
	if dl.Snapshot == nil || len(dl.Snapshot.Cores) != 2 {
		t.Fatalf("snapshot = %+v, want both pseudo-cores", dl.Snapshot)
	}
	for _, c := range dl.Snapshot.Cores {
		if c.Name == "as" && !c.Halted {
			t.Error("snapshot shows the AS still running; it halted before the wedge")
		}
		if c.Name == "cs" && c.Halted {
			t.Error("snapshot shows the CS halted; it is the blocked consumer")
		}
	}
}

func TestCosimStepLimitIsTyped(t *testing.T) {
	// An infinite CS loop must surface as a CycleLimitFault, not hang.
	cs := mustAssemble(t, "cs", `
main:   j main
`)
	as := mustAssemble(t, "as", `
main:   halt
`)
	b := &Bundle{Name: "spin", Seq: as, CS: cs, AS: as}
	_, err := Cosim(b, 1000)
	var cl *simfault.CycleLimitFault
	if !errors.As(err, &cl) {
		t.Fatalf("got %T (%v), want *simfault.CycleLimitFault", err, err)
	}
	if cl.Limit != 1000 || cl.Snapshot == nil {
		t.Errorf("fault = %+v", cl)
	}
}

// TestThinningKeepsCallsMirrored is the reduced form of a generated
// program that diverged: branch thinning took the JAL inside each loop
// along with the loop branch (the callee h2 post-dominates the branch,
// since the CFG links every JR to every return point), but the callee's
// JR still pushed its return target on the control queue, and the
// computation stream popped that target as a branch outcome. Only J is
// thinned with a branch now; a call keeps its mirror.
func TestThinningKeepsCallsMirrored(t *testing.T) {
	b := checkEquivalence(t, "thin-call", `
main:   li   $r20, 10
L1:     jal  h2
        addi $r20, $r20, -1
        bgtz $r20, L1
        li   $r20, 2
L2:     jal  h2
        addi $r10, $r10, 25
        addi $r20, $r20, -1
        bgtz $r20, L2
        li   $r20, 9
L3:     jal  h1
        addi $r20, $r20, -1
        bgtz $r20, L3
        out  $r10
        halt
h1:     mul  $r12, $r12, $r13
        jr   $ra
h2:     andi $r8, $r14, 2044
        jr   $ra
`)
	calls := 0 // the CS mirrors a call as a J (the AS keeps the link)
	for _, in := range b.CS.Insts {
		if in.Op == isa.J || in.Op == isa.JAL {
			calls++
		}
	}
	if calls != 3 {
		t.Errorf("CS keeps %d of the 3 calls:\n%s", calls, b.CS.Listing())
	}
}
