package cpu

import (
	"strings"
	"testing"

	"hidisc/internal/asm"
	"hidisc/internal/fnsim"
	"hidisc/internal/isa"
	"hidisc/internal/mem"
	"hidisc/internal/queue"
)

func runCore(t *testing.T, src string, cfg Config) (*Core, int64) {
	t.Helper()
	return runCoreOn(t, src, cfg, mem.DefaultHierConfig())
}

// runCoreOn runs src to HALT on one core backed by the hierarchy hc and
// returns the core and its cycle count.
func runCoreOn(t *testing.T, src string, cfg Config, hc mem.HierConfig) (*Core, int64) {
	t.Helper()
	p, err := asm.Assemble("t", src)
	if err != nil {
		t.Fatal(err)
	}
	m := mem.NewMemory()
	m.LoadSegment(isa.DataBase, p.Data)
	h, err := mem.NewHierarchy(hc)
	if err != nil {
		t.Fatal(err)
	}
	cfg.HasMem = true
	c := New(cfg, p, m, h, QueueSet{})
	var cycle int64
	for !c.Halted() {
		if cycle > 10_000_000 {
			t.Fatalf("core did not halt within %d cycles", cycle)
		}
		if err := c.Cycle(cycle); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		cycle++
	}
	return c, cycle
}

func TestCoreMatchesFunctionalOnALUMix(t *testing.T) {
	src := `
        .data
buf:    .space 64
        .text
main:   li   $r1, 50
        li   $r2, 0
        li   $r3, 1
loop:   mul  $r4, $r1, $r3
        add  $r2, $r2, $r4
        xor  $r3, $r3, $r1
        andi $r3, $r3, 7
        addi $r3, $r3, 1
        addi $r1, $r1, -1
        bgtz $r1, loop
        la   $r5, buf
        sw   $r2, 0($r5)
        out  $r2
        halt
`
	p := mustAssemble(t, "t", src)
	want, err := fnsim.RunProgram(p, 100000)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := runCore(t, src, Config{Name: "ss"})
	if len(c.Output()) != 1 || c.Output()[0] != want.Output[0] {
		t.Errorf("output %v, want %v", c.Output(), want.Output)
	}
	if c.Stats().Committed != want.Insts {
		t.Errorf("committed %d, want %d", c.Stats().Committed, want.Insts)
	}
}

func TestMispredictRecovery(t *testing.T) {
	// A data-dependent unpredictable branch pattern forces mispredicts;
	// results must still be exact.
	src := `
main:   li   $r1, 200
        li   $r2, 0
        li   $r5, 7
loop:   mul  $r5, $r5, $r5
        addi $r5, $r5, 11
        andi $r4, $r5, 1
        beq  $r4, $r0, skip
        addi $r2, $r2, 1
skip:   addi $r1, $r1, -1
        bgtz $r1, loop
        out  $r2
        halt
`
	p := mustAssemble(t, "t", src)
	want, _ := fnsim.RunProgram(p, 100000)
	c, _ := runCore(t, src, Config{Name: "ss"})
	if c.Output()[0] != want.Output[0] {
		t.Errorf("output %v, want %v", c.Output(), want.Output)
	}
	if c.Stats().Mispredicts == 0 {
		t.Error("expected mispredicts on pseudo-random branch")
	}
	if c.Stats().Squashed == 0 {
		t.Error("expected squashed instructions")
	}
}

func TestStoreToLoadForwarding(t *testing.T) {
	// A store immediately followed by a same-address load: the load
	// must forward, producing the stored value well before the store
	// commits to the cache.
	src := `
        .data
x:      .space 8
        .text
main:   li   $r1, 1234
        la   $r2, x
        sw   $r1, 0($r2)
        lw   $r3, 0($r2)
        out  $r3
        halt
`
	c, _ := runCore(t, src, Config{Name: "ss"})
	if c.Output()[0] != "1234" {
		t.Errorf("forwarded value %v", c.Output())
	}
}

// snanBits is a signalling NaN: an FP value moved as a float64 could
// be quieted, so every load and store must keep its bits.
const snanBits = 0x7FF0000000000001

// TestSignallingNaNRoundTrip moves a signalling NaN through the core's
// load, store commit and store-to-load forwarding paths, and through a
// CMP load.
func TestSignallingNaNRoundTrip(t *testing.T) {
	src := `
        .data
x:      .word 1, 0x7FF00000
        .space 16
        .text
main:   la   $r2, x
        l.d  $f1, 0($r2)
        s.d  $f1, 8($r2)
        l.d  $f2, 8($r2)
        s.d  $f2, 16($r2)
        halt
`
	c, _ := runCore(t, src, Config{Name: "ss"})
	// The second l.d forwards: its store's data arrives with the first
	// l.d's fill, before that store can commit. So L1D sees the first
	// l.d and the two store commits only.
	if got := c.hier.Stats().L1D.DemandAccesses; got != 3 {
		t.Errorf("L1D demand accesses = %d, want 3 (the second l.d forwarded)", got)
	}
	for _, off := range []uint32{8, 16} {
		if got := c.mem.Load(isa.DataBase+off, 8); got != snanBits {
			t.Errorf("core: x+%d = %#x, want %#x", off, got, uint64(snanBits))
		}
	}
	if got := c.r[isa.F(2)]; got != snanBits {
		t.Errorf("core: $f2 = %#x, want %#x", got, uint64(snanBits))
	}

	m := mem.NewMemory()
	m.Store(0x1000_0000, 8, snanBits)
	h, err := mem.NewHierarchy(mem.DefaultHierConfig())
	if err != nil {
		t.Fatal(err)
	}
	e := NewCMP(CMPConfig{}, [][]isa.Inst{{
		{Op: isa.LFD, Rd: isa.F(3), Rs: isa.R2},
		{Op: isa.HALT},
	}}, m, h, nil)
	var regs [isa.NumIntRegs + isa.NumFPRegs]uint64
	regs[isa.R2] = 0x1000_0000
	e.Fork(0, &regs)
	for now := int64(0); now < 1000 && e.ActiveContexts() > 0; now++ {
		if err := e.Cycle(now); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.ctxs[0].r[isa.F(3)]; got != snanBits {
		t.Errorf("CMP: $f3 = %#x, want %#x", got, uint64(snanBits))
	}
}

func TestPartialOverlapStoreLoadWaits(t *testing.T) {
	// Byte store followed by word load of the same address must still
	// produce the architecturally correct value (the load waits for the
	// store to commit).
	src := `
        .data
x:      .word 0x11223344
        .text
main:   li   $r1, 0xAA
        la   $r2, x
        sb   $r1, 0($r2)
        lw   $r3, 0($r2)
        out  $r3
        halt
`
	p := mustAssemble(t, "t", src)
	want, _ := fnsim.RunProgram(p, 1000)
	c, _ := runCore(t, src, Config{Name: "ss"})
	if c.Output()[0] != want.Output[0] {
		t.Errorf("output %v, want %v", c.Output(), want.Output)
	}
}

func TestSmallerWindowIsSlower(t *testing.T) {
	src := `
        .data
buf:    .space 65536
        .text
main:   la   $r2, buf
        li   $r1, 2048
loop:   lw   $r3, 0($r2)
        add  $r4, $r4, $r3
        addi $r2, $r2, 32
        addi $r1, $r1, -1
        bgtz $r1, loop
        out  $r4
        halt
`
	_, wide := runCore(t, src, Config{Name: "w64", WindowSize: 64})
	_, narrow := runCore(t, src, Config{Name: "w4", WindowSize: 4, IssueWidth: 2, FetchWidth: 2, CommitWidth: 2})
	if narrow <= wide {
		t.Errorf("narrow core (%d cycles) not slower than wide core (%d)", narrow, wide)
	}
}

func TestDivUnitSerialises(t *testing.T) {
	// Back-to-back independent divisions on one unpipelined divider
	// must serialise: 8 divisions at 20 cycles >> 60 cycles total.
	src := `
main:   li   $r1, 100
        li   $r2, 3
        div  $r3, $r1, $r2
        div  $r4, $r1, $r2
        div  $r5, $r1, $r2
        div  $r6, $r1, $r2
        div  $r7, $r1, $r2
        div  $r8, $r1, $r2
        div  $r9, $r1, $r2
        div  $r10, $r1, $r2
        out  $r10
        halt
`
	_, cycles := runCore(t, src, Config{Name: "ss"})
	if cycles < 8*20 {
		t.Errorf("8 divisions completed in %d cycles; divider pipelined?", cycles)
	}
}

func TestSpeculativeFaultSquashed(t *testing.T) {
	// A division by zero on the wrong path of a mispredicted branch
	// must not kill the simulation.
	src := `
main:   li   $r1, 64
        li   $r2, 0
loop:   addi $r1, $r1, -1
        bgtz $r1, loop
        ; fall-through path reached exactly once; the branch above is
        ; strongly taken so the exit mispredicts and fetches below.
        bne  $r1, $r0, poison
        out  $r2
        halt
poison: div  $r3, $r2, $r0
        halt
`
	c, _ := runCore(t, src, Config{Name: "ss"})
	if c.Output()[0] != "0" {
		t.Errorf("output %v", c.Output())
	}
}

func TestRealFaultSurfaces(t *testing.T) {
	src := `
main:   li  $r1, 5
        div $r2, $r1, $r0
        halt
`
	p := mustAssemble(t, "t", src)
	m := mem.NewMemory()
	h, _ := mem.NewHierarchy(mem.DefaultHierConfig())
	c := New(Config{Name: "ss", HasMem: true}, p, m, h, QueueSet{})
	var err error
	for i := int64(0); i < 1000 && !c.Halted(); i++ {
		if err = c.Cycle(i); err != nil {
			break
		}
	}
	if err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Errorf("err = %v", err)
	}
}

func TestMemOpOnMemlessCoreFails(t *testing.T) {
	p := mustAssemble(t, "t", "main: lw $r1, 0($r2)\nhalt")
	m := mem.NewMemory()
	h, _ := mem.NewHierarchy(mem.DefaultHierConfig())
	c := New(Config{Name: "cp", HasMem: false}, p, m, h, QueueSet{})
	var err error
	for i := int64(0); i < 1000 && !c.Halted(); i++ {
		if err = c.Cycle(i); err != nil {
			break
		}
	}
	if err == nil {
		t.Error("memory op on memory-less core did not fail")
	}
}

// --- queue-connected cores ---

func TestProducerConsumerPair(t *testing.T) {
	// AP pushes 100 loaded values; CP sums them. Verifies claim-based
	// queue consumption end to end at the core level.
	asP := mustAssemble(t, "as", `
        .data
buf:    .space 400
        .text
main:   la   $r2, buf
        li   $r1, 100
        li   $r5, 0
fill:   sw   $r5, 0($r2)
        addi $r5, $r5, 3
        addi $r2, $r2, 4
        addi $r1, $r1, -1
        bgtz $r1, fill
        la   $r2, buf
        li   $r1, 100
send:   lw   $LDQ, 0($r2)
        addi $r2, $r2, 4
        addi $r1, $r1, -1
        bgtz $r1, send
        halt
`)
	csP := mustAssemble(t, "cs", `
main:   li   $r1, 100
        li   $r2, 0
recv:   add  $r3, $LDQ, $r0
        add  $r2, $r2, $r3
        addi $r1, $r1, -1
        bgtz $r1, recv
        out  $r2
        halt
`)
	m := mem.NewMemory()
	h, _ := mem.NewHierarchy(mem.DefaultHierConfig())
	ldq := queue.New("ldq", 32)
	ap := New(Config{Name: "ap", HasMem: true}, asP, m, h, QueueSet{
		Push: map[isa.Reg]*queue.Queue{isa.RegLDQ: ldq},
	})
	cp := New(Config{Name: "cp", WindowSize: 16}, csP, m, h, QueueSet{
		Pop: map[isa.Reg]*queue.Queue{isa.RegLDQ: ldq},
	})
	var cycle int64
	for !(ap.Halted() && cp.Halted()) {
		if cycle > 1_000_000 {
			t.Fatal("pair did not complete")
		}
		if err := ap.Cycle(cycle); err != nil {
			t.Fatal(err)
		}
		if err := cp.Cycle(cycle); err != nil {
			t.Fatal(err)
		}
		cycle++
	}
	// sum of 0,3,...,297 = 3 * 99*100/2 = 14850
	if cp.Output()[0] != "14850" {
		t.Errorf("sum = %v", cp.Output())
	}
	if ldq.Len() != 0 {
		t.Errorf("LDQ not drained: %v", ldq)
	}
}

// --- CMP engine ---

func cmasProgram() []isa.Inst {
	// for 64 iterations: pref 0(r2); r2 += 64; putscq 0
	return []isa.Inst{
		{Op: isa.LI, Rd: isa.R1, Imm: 64},
		{Op: isa.PREF, Rs: isa.R2, Imm: 0},
		{Op: isa.ADDI, Rd: isa.R2, Rs: isa.R2, Imm: 64},
		{Op: isa.ADDI, Rd: isa.R1, Rs: isa.R1, Imm: -1},
		{Op: isa.PUTSCQ, Imm: 0},
		{Op: isa.BGTZ, Rs: isa.R1, Imm: 1},
		{Op: isa.HALT},
	}
}

func newCMPTestEngine(t *testing.T, scqCap int) (*CMPEngine, *queue.Queue, *mem.Hierarchy) {
	t.Helper()
	m := mem.NewMemory()
	h, err := mem.NewHierarchy(mem.DefaultHierConfig())
	if err != nil {
		t.Fatal(err)
	}
	scq := queue.New("scq0", scqCap)
	e := NewCMP(CMPConfig{}, [][]isa.Inst{cmasProgram()}, m, h, []*queue.Queue{scq})
	return e, scq, h
}

func TestCMPPrefetchesAndCloses(t *testing.T) {
	e, _, h := newCMPTestEngine(t, 256)
	var regs [isa.NumIntRegs + isa.NumFPRegs]uint64
	regs[isa.R2] = 0x1000_0000
	e.Fork(0, &regs)
	scq := e.SCQ(0) // forking starts a fresh queue generation
	for now := int64(0); now < 100000 && e.ActiveContexts() > 0; now++ {
		if err := e.Cycle(now); err != nil {
			t.Fatal(err)
		}
	}
	if e.ActiveContexts() != 0 {
		t.Fatal("context did not terminate")
	}
	st := e.Stats()
	if st.Prefetches != 64 {
		t.Errorf("prefetches = %d, want 64", st.Prefetches)
	}
	if st.Completed != 1 {
		t.Errorf("completed = %d", st.Completed)
	}
	if !scq.Closed() {
		t.Error("SCQ not closed at thread completion")
	}
	if scq.Len() != 64 {
		t.Errorf("credits = %d, want 64", scq.Len())
	}
	if h.Stats().PrefetchIssued != 64 {
		t.Errorf("hierarchy prefetches = %d", h.Stats().PrefetchIssued)
	}
}

func TestCMPThrottledBySCQ(t *testing.T) {
	e, _, _ := newCMPTestEngine(t, 4)
	var regs [isa.NumIntRegs + isa.NumFPRegs]uint64
	regs[isa.R2] = 0x1000_0000
	e.Fork(0, &regs)
	scq := e.SCQ(0)
	for now := int64(0); now < 5000; now++ {
		if err := e.Cycle(now); err != nil {
			t.Fatal(err)
		}
	}
	// With no consumer the thread must park at 4 credits.
	if scq.Len() != 4 {
		t.Errorf("credits = %d, want 4 (capacity)", scq.Len())
	}
	if e.ActiveContexts() != 1 {
		t.Error("throttled context terminated")
	}
	if e.Stats().PutStalls == 0 {
		t.Error("no PUTSCQ stalls recorded")
	}
	// Draining credits lets it finish.
	for now := int64(5000); now < 200000 && e.ActiveContexts() > 0; now++ {
		for scq.Avail() > 0 {
			scq.PopCommitted()
		}
		if err := e.Cycle(now); err != nil {
			t.Fatal(err)
		}
	}
	if e.ActiveContexts() != 0 {
		t.Error("context did not finish after credits drained")
	}
}

func TestCMPForkIgnoredWhileRunning(t *testing.T) {
	e, _, _ := newCMPTestEngine(t, 256)
	var regs [isa.NumIntRegs + isa.NumFPRegs]uint64
	e.Fork(0, &regs)
	e.Fork(0, &regs)
	if e.Stats().Forks != 1 || e.Stats().ForksIgnored != 1 {
		t.Errorf("forks %d ignored %d", e.Stats().Forks, e.Stats().ForksIgnored)
	}
}

func TestCMPShutdown(t *testing.T) {
	e, _, _ := newCMPTestEngine(t, 256)
	e.Fork(0, &[isa.NumIntRegs + isa.NumFPRegs]uint64{})
	scq := e.SCQ(0)
	e.Shutdown()
	if e.ActiveContexts() != 0 {
		t.Error("context survived shutdown")
	}
	if !scq.Closed() {
		t.Error("SCQ open after shutdown")
	}
	if e.Stats().Killed != 1 {
		t.Errorf("killed = %d", e.Stats().Killed)
	}
}

func TestCMPStoreRejected(t *testing.T) {
	m := mem.NewMemory()
	h, _ := mem.NewHierarchy(mem.DefaultHierConfig())
	prog := []isa.Inst{{Op: isa.SW, Rs: isa.R2, Rt: isa.R3}, {Op: isa.HALT}}
	e := NewCMP(CMPConfig{}, [][]isa.Inst{prog}, m, h, []*queue.Queue{queue.New("s", 4)})
	e.Fork(0, &[isa.NumIntRegs + isa.NumFPRegs]uint64{})
	var err error
	for now := int64(0); now < 10 && err == nil; now++ {
		err = e.Cycle(now)
	}
	if err == nil {
		t.Error("store in CMAS accepted")
	}
}

func TestCMPRunawayGuard(t *testing.T) {
	m := mem.NewMemory()
	h, _ := mem.NewHierarchy(mem.DefaultHierConfig())
	prog := []isa.Inst{{Op: isa.J, Imm: 0}} // infinite loop
	scq := queue.New("s", 4)
	e := NewCMP(CMPConfig{MaxInstsPerThread: 100}, [][]isa.Inst{prog}, m, h, []*queue.Queue{scq})
	e.Fork(0, &[isa.NumIntRegs + isa.NumFPRegs]uint64{})
	scq = e.SCQ(0)
	for now := int64(0); now < 10000 && e.ActiveContexts() > 0; now++ {
		if err := e.Cycle(now); err != nil {
			t.Fatal(err)
		}
	}
	if e.ActiveContexts() != 0 {
		t.Error("runaway context not killed")
	}
	if !scq.Closed() {
		t.Error("SCQ left open by runaway kill")
	}
}

// --- dynamic prefetch distance ---

func TestCMPDynamicDistanceGrows(t *testing.T) {
	m := mem.NewMemory()
	h, _ := mem.NewHierarchy(mem.DefaultHierConfig())
	// Slice prefetches a fixed line over and over: every prefetch after
	// the first hits, so the controller must push the offset out.
	prog := []isa.Inst{
		{Op: isa.PREF, Rs: isa.R2, Imm: 0},
		{Op: isa.ADDI, Rd: isa.R1, Rs: isa.R1, Imm: -1},
		{Op: isa.BGTZ, Rs: isa.R1, Imm: 0},
		{Op: isa.HALT},
	}
	scq := queue.New("s", 1024)
	e := NewCMP(CMPConfig{DynamicDistance: true, DynamicWindow: 16, DynamicStep: 32, MaxDynamicDistance: 128},
		[][]isa.Inst{prog}, m, h, []*queue.Queue{scq})
	var regs [isa.NumIntRegs + isa.NumFPRegs]uint64
	regs[isa.R1] = 400
	regs[isa.R2] = 0x1000_0000
	e.Fork(0, &regs)
	for now := int64(0); now < 100000 && e.ActiveContexts() > 0; now++ {
		if err := e.Cycle(now); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if st.DistanceGrows == 0 {
		t.Errorf("controller never grew the distance: %+v", st)
	}
	// With offset 32/64/96/128 the engine touches the next lines too.
	if h.Stats().L1D.PrefetchFills < 2 {
		t.Errorf("grown distance fetched no new lines: %+v", h.Stats().L1D)
	}
}

func TestCMPDynamicDistanceIdleWhenFilling(t *testing.T) {
	m := mem.NewMemory()
	h, _ := mem.NewHierarchy(mem.DefaultHierConfig())
	// A large-stride stream always fills new lines: no adaptation needed.
	prog := []isa.Inst{
		{Op: isa.PREF, Rs: isa.R2, Imm: 0},
		{Op: isa.ADDI, Rd: isa.R2, Rs: isa.R2, Imm: 4096},
		{Op: isa.ADDI, Rd: isa.R1, Rs: isa.R1, Imm: -1},
		{Op: isa.BGTZ, Rs: isa.R1, Imm: 0},
		{Op: isa.HALT},
	}
	scq := queue.New("s", 1024)
	e := NewCMP(CMPConfig{DynamicDistance: true, DynamicWindow: 16},
		[][]isa.Inst{prog}, m, h, []*queue.Queue{scq})
	var regs [isa.NumIntRegs + isa.NumFPRegs]uint64
	regs[isa.R1] = 300
	regs[isa.R2] = 0x1000_0000
	e.Fork(0, &regs)
	for now := int64(0); now < 100000 && e.ActiveContexts() > 0; now++ {
		if err := e.Cycle(now); err != nil {
			t.Fatal(err)
		}
	}
	if g := e.Stats().DistanceGrows; g != 0 {
		t.Errorf("controller grew the distance %d times on an always-filling stream", g)
	}
}

func TestTracerReceivesPipelineEvents(t *testing.T) {
	p := mustAssemble(t, "t", `
main:   li   $r1, 3
loop:   addi $r1, $r1, -1
        bgtz $r1, loop
        out  $r1
        halt
`)
	m := mem.NewMemory()
	h, _ := mem.NewHierarchy(mem.DefaultHierConfig())
	tr := &CollectTracer{}
	c := New(Config{Name: "tr", HasMem: true, Tracer: tr}, p, m, h, QueueSet{})
	for i := int64(0); i < 1000 && !c.Halted(); i++ {
		if err := c.Cycle(i); err != nil {
			t.Fatal(err)
		}
	}
	counts := map[Stage]int{}
	for _, ev := range tr.Events {
		counts[ev.Stage]++
	}
	// 3 loop iterations: li + 3*(addi+bgtz) + out + halt = 9 commits.
	if counts[StageCommit] != 9 {
		t.Errorf("commit events = %d, want 9", counts[StageCommit])
	}
	if counts[StageDispatch] < 9 || counts[StageIssue] == 0 || counts[StageComplete] == 0 {
		t.Errorf("event counts: %v", counts)
	}
	// The loop-exit branch mispredicts once.
	if counts[StageSquash] == 0 {
		t.Errorf("no squash event despite loop exit: %v", counts)
	}
}

func TestTextTracerFiltersAndFormats(t *testing.T) {
	var sb strings.Builder
	tr := &TextTracer{W: &sb, ToCycle: 20}
	tr.Event(TraceEvent{Cycle: 5, Core: "cp", Stage: StageCommit, PC: 3, Seq: 7,
		Inst: isa.Inst{Op: isa.ADD, Rd: isa.R1, Rs: isa.R2, Rt: isa.R3}, Note: "x"})
	out := sb.String()
	if !strings.Contains(out, "commit") || !strings.Contains(out, "add $r1, $r2, $r3") || !strings.Contains(out, "; x") {
		t.Errorf("format: %q", out)
	}
	sb.Reset()
	tr.Event(TraceEvent{Cycle: 25, Stage: StageCommit})
	if sb.Len() != 0 {
		t.Error("ToCycle bound did not apply")
	}
}

// TestPredictorKinds runs the core's one predictor, the Table 1 bimodal
// table, on a loop with a data-dependent branch.
func TestPredictorKinds(t *testing.T) {
	src := `
main:   li   $r1, 100
        li   $r5, 7
loop:   mul  $r5, $r5, $r5
        addi $r5, $r5, 11
        andi $r4, $r5, 1
        beq  $r4, $r0, skip
        addi $r2, $r2, 1
skip:   addi $r1, $r1, -1
        bgtz $r1, loop
        out  $r2
        halt
`
	p := mustAssemble(t, "t", src)
	want, _ := fnsim.RunProgram(p, 100000)
	c, _ := runCore(t, src, Config{Name: "bimodal"})
	if c.Output()[0] != want.Output[0] {
		t.Errorf("output %v, want %v", c.Output(), want.Output)
	}
	// The beq follows a data-dependent bit no 2-bit counter can learn.
	if c.Stats().Mispredicts == 0 {
		t.Error("no mispredicts on a data-dependent branch")
	}
}

// TestConfigValidate pins the window bound: every window that fits one
// uint64 of slot bits is accepted (power of two or not), anything wider
// is rejected with an error naming the field, and New panics on it.
func TestConfigValidate(t *testing.T) {
	for _, ws := range []int{4, 16, 48, 64} {
		if err := (Config{Name: "ok", WindowSize: ws}).Validate(); err != nil {
			t.Errorf("WindowSize %d rejected: %v", ws, err)
		}
	}
	bad := []Config{
		{WindowSize: 65}, {WindowSize: 128}, {WindowSize: -1},
		{LSQSize: 1<<15 + 1}, {IFQSize: 1<<15 + 1},
	}
	for _, cfg := range bad {
		err := cfg.Validate()
		if err == nil {
			t.Errorf("%+v accepted", cfg)
			continue
		}
		if cfg.WindowSize != 0 && !strings.Contains(err.Error(), "WindowSize") {
			t.Errorf("WindowSize %d: error %q does not name WindowSize", cfg.WindowSize, err)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("New accepted a 128-entry window")
		}
	}()
	p := mustAssemble(t, "t", "main: halt")
	h, _ := mem.NewHierarchy(mem.DefaultHierConfig())
	New(Config{Name: "x", WindowSize: 128}, p, mem.NewMemory(), h, QueueSet{})
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
