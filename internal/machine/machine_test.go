package machine

import (
	"errors"
	"strings"
	"testing"

	"hidisc/internal/asm"
	"hidisc/internal/fnsim"
	"hidisc/internal/isa"
	"hidisc/internal/mem"
	"hidisc/internal/profile"
	"hidisc/internal/simfault"
	"hidisc/internal/slicer"
)

// kernels exercised across every architecture. Sizes are kept small so
// the full matrix stays fast; the workloads package holds the real
// benchmark-scale kernels.
var kernels = map[string]string{
	"convolution": `
        .data
x:      .space 512
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
`,
	"chase": `
        .data
nodes:  .space 65536         ; 2048 nodes of 32 bytes
        .text
main:   la   $r2, nodes
        li   $r1, 2048
        li   $r5, 1
        li   $r8, 0
build:  slli $r6, $r8, 2
        add  $r6, $r6, $r8
        addi $r6, $r6, 13
        andi $r3, $r6, 2047
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
        la   $r2, nodes
        li   $r6, 0
        li   $r1, 4096
chase:  lw   $r4, 4($r2)
        add  $r6, $r6, $r4
        lw   $r2, 0($r2)
        addi $r1, $r1, -1
        bgtz $r1, chase
        out  $r6
        halt
`,
	"randprobe": `
        .data
table:  .space 262144        ; 64K words, twice the L1
        .text
main:   li   $r5, 777
        li   $r16, 0
        li   $r1, 3000
loop:   li   $r6, 1103515245
        mul  $r5, $r5, $r6
        addi $r5, $r5, 12345
        srli $r7, $r5, 8
        andi $r7, $r7, 65535
        slli $r7, $r7, 2
        la   $r9, table
        add  $r9, $r9, $r7
        lw   $r10, 0($r9)
        add  $r16, $r16, $r10
        addi $r1, $r1, -1
        bgtz $r1, loop
        out  $r16
        halt
`,
	"branchy": `
        .data
buf:    .space 512
        .text
main:   li   $r1, 128
        li   $r2, 0
        li   $r3, 0
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
`,
	"calls": `
main:   li   $r4, 10
        jal  f
        out  $r2
        li   $r4, 3
        jal  f
        out  $r2
        halt
f:      mul  $r2, $r4, $r4
        addi $r2, $r2, 7
        jr   $ra
`,
}

func compileKernel(t *testing.T, name string, withProfile bool) *slicer.Bundle {
	t.Helper()
	p, err := asm.Assemble(name, kernels[name])
	if err != nil {
		t.Fatal(err)
	}
	opts := slicer.Options{}
	if withProfile {
		prof, err := profile.CacheProfile(p, mem.DefaultHierConfig(), 100_000_000)
		if err != nil {
			t.Fatal(err)
		}
		opts.Profile = prof
		opts.MinMisses = 32
	}
	b, err := slicer.Separate(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestAllArchitecturesMatchReference is the central correctness gate:
// every configuration must produce the reference memory image and
// output for every kernel.
func TestAllArchitecturesMatchReference(t *testing.T) {
	for name := range kernels {
		name := name
		t.Run(name, func(t *testing.T) {
			p := mustAssemble(t, name, kernels[name])
			want, err := fnsim.RunProgram(p, 100_000_000)
			if err != nil {
				t.Fatal(err)
			}
			b := compileKernel(t, name, true)
			for _, arch := range Arches {
				res, err := RunArch(b, arch, mem.DefaultHierConfig())
				if err != nil {
					t.Fatalf("%s: %v", arch, err)
				}
				if res.MemHash != want.MemHash {
					t.Errorf("%s: memory image differs from reference", arch)
				}
				if len(res.Output) != len(want.Output) {
					t.Fatalf("%s: output %v, want %v", arch, res.Output, want.Output)
				}
				for i := range want.Output {
					if res.Output[i] != want.Output[i] {
						t.Errorf("%s: output[%d] = %q, want %q", arch, i, res.Output[i], want.Output[i])
					}
				}
				if res.Cycles <= 0 {
					t.Errorf("%s: cycles = %d", arch, res.Cycles)
				}
			}
		})
	}
}

func TestDeterministicCycles(t *testing.T) {
	b := compileKernel(t, "chase", true)
	for _, arch := range Arches {
		r1, err := RunArch(b, arch, mem.DefaultHierConfig())
		if err != nil {
			t.Fatal(err)
		}
		r2, err := RunArch(b, arch, mem.DefaultHierConfig())
		if err != nil {
			t.Fatal(err)
		}
		if r1.Cycles != r2.Cycles {
			t.Errorf("%s: cycles %d then %d (non-deterministic)", arch, r1.Cycles, r2.Cycles)
		}
	}
}

func TestHiDISCPrefetches(t *testing.T) {
	b := compileKernel(t, "randprobe", true)
	if len(b.CMAS) == 0 {
		t.Fatal("randprobe kernel produced no CMAS")
	}
	res, err := RunArch(b, HiDISC, mem.DefaultHierConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.CMP.Forks == 0 {
		t.Error("CMP never forked")
	}
	if res.CMP.Prefetches == 0 {
		t.Error("CMP issued no prefetches")
	}
	if res.Hier.PrefetchIssued == 0 {
		t.Error("hierarchy saw no prefetches")
	}
}

func TestCMPReducesChaseMisses(t *testing.T) {
	// Pseudo-random probe indices are arithmetically predictable, so
	// the CMAS runs ahead and removes the misses. (A purely serial
	// pointer chase is unprefetchable by any run-ahead scheme: the
	// slice's per-hop latency equals the demand stream's.)
	b := compileKernel(t, "randprobe", true)
	base, err := RunArch(b, Superscalar, mem.DefaultHierConfig())
	if err != nil {
		t.Fatal(err)
	}
	hd, err := RunArch(b, HiDISC, mem.DefaultHierConfig())
	if err != nil {
		t.Fatal(err)
	}
	if hd.Hier.L1D.DemandMisses >= base.Hier.L1D.DemandMisses {
		t.Errorf("HiDISC demand misses %d >= baseline %d",
			hd.Hier.L1D.DemandMisses, base.Hier.L1D.DemandMisses)
	}
}

func TestDecoupledQueuesCarryTraffic(t *testing.T) {
	b := compileKernel(t, "convolution", false)
	res, err := RunArch(b, CPAP, mem.DefaultHierConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.LDQ.Pushes == 0 {
		t.Error("no LDQ traffic in decoupled run")
	}
	if res.SDQ.Pushes == 0 {
		t.Error("no SDQ traffic in decoupled run")
	}
	if res.CQ.Pushes == 0 {
		t.Error("no control queue traffic in decoupled run")
	}
	// Net claims (claims minus squash rewinds) pair 1:1 with pushes.
	if res.LDQ.Pushes != res.LDQ.Claims-res.LDQ.Unclaims {
		t.Errorf("LDQ pushes %d != net claims %d", res.LDQ.Pushes, res.LDQ.Claims-res.LDQ.Unclaims)
	}
}

func TestSuperscalarStatsSane(t *testing.T) {
	b := compileKernel(t, "branchy", false)
	res, err := RunArch(b, Superscalar, mem.DefaultHierConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := res.Cores["core"]
	if s.Committed == 0 || s.CommittedBranch == 0 || s.CommittedStores == 0 {
		t.Errorf("stats: %+v", s)
	}
	// Committed must match the functional dynamic instruction count.
	p := mustAssemble(t, "branchy", kernels["branchy"])
	want, err := fnsim.RunProgram(p, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if s.Committed != want.Insts {
		t.Errorf("committed %d, want %d", s.Committed, want.Insts)
	}
	if res.Committed() != s.Committed {
		t.Errorf("Result.Committed() = %d", res.Committed())
	}
}

func TestLatencySweepMonotonicBaseline(t *testing.T) {
	// Longer memory latency must never speed up the superscalar.
	b := compileKernel(t, "chase", true)
	var prev int64
	for _, lat := range []struct{ l2, mem int }{{4, 40}, {8, 80}, {16, 160}} {
		res, err := RunArch(b, Superscalar, mem.DefaultHierConfig().WithLatencies(lat.l2, lat.mem))
		if err != nil {
			t.Fatal(err)
		}
		if res.Cycles < prev {
			t.Errorf("latency %d/%d: cycles %d < previous %d", lat.l2, lat.mem, res.Cycles, prev)
		}
		prev = res.Cycles
	}
}

func TestUnknownArchRejected(t *testing.T) {
	b := compileKernel(t, "calls", false)
	cfg := DefaultConfig("nonsense")
	if _, err := New(b, cfg); err == nil {
		t.Error("unknown architecture accepted")
	}
}

// TestOversizedWindowRejected: a core window beyond cpu.MaxWindowSize
// (here set the way a Configure hook would) fails machine construction
// with an error naming the field, instead of panicking inside cpu.New.
func TestOversizedWindowRejected(t *testing.T) {
	b := compileKernel(t, "calls", false)
	for _, arch := range []Arch{CPAP, HiDISC, Superscalar} {
		cfg := DefaultConfig(arch)
		cfg.CP.WindowSize = 128
		cfg.Wide.WindowSize = 128
		_, err := New(b, cfg)
		if err == nil || !strings.Contains(err.Error(), "WindowSize") {
			t.Errorf("%s: New with a 128-entry window returned %v, want a WindowSize error", arch, err)
		}
	}
}

func TestCPHasNoMemoryTraffic(t *testing.T) {
	// In the decoupled modes every data access goes through the AP: the
	// demand access count must match a superscalar run of the same
	// program's memory operations (modulo prefetches, which are absent
	// in CP+AP).
	b := compileKernel(t, "convolution", false)
	res, err := RunArch(b, CPAP, mem.DefaultHierConfig())
	if err != nil {
		t.Fatal(err)
	}
	ap := res.Cores["ap"]
	cp := res.Cores["cp"]
	if ap.CommittedLoads == 0 || ap.CommittedStores == 0 {
		t.Errorf("AP stats: %+v", ap)
	}
	if cp.CommittedLoads != 0 || cp.CommittedStores != 0 {
		t.Errorf("CP executed memory operations: %+v", cp)
	}
}

func TestWatchdogTripsOnStarvedQueue(t *testing.T) {
	// A hand-built bundle whose CS pops a value the AS never pushes
	// must trip the watchdog rather than hang.
	cs := mustAssemble(t, "cs", `
main:   add $r1, $LDQ, $r0
        halt
`)
	as := mustAssemble(t, "as", `
main:   halt
`)
	b := &slicer.Bundle{
		Name: "starved",
		Seq:  as,
		CS:   cs,
		AS:   as,
	}
	cfg := DefaultConfig(CPAP)
	cfg.WatchdogCycles = 2000
	m, err := New(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Run()
	if err == nil {
		t.Fatal("starved queue did not trip the watchdog")
	}
	var dl *simfault.DeadlockFault
	if !errors.As(err, &dl) {
		t.Fatalf("watchdog returned %T (%v), want *simfault.DeadlockFault", err, err)
	}
	if q, ok := dl.Queue("ldq"); !ok || !q.Empty() || q.Pushes != 0 {
		t.Errorf("ldq state at deadlock = %+v, %v; want present, empty, unpushed", q, ok)
	}
	if dl.Snapshot == nil {
		t.Fatal("DeadlockFault carries no snapshot")
	}
	// The forensics must name the blocked consumer: the CP's head is the
	// LDQ pop, stuck on a queue operand whose value was never pushed.
	var cp *simfault.CoreState
	for i := range dl.Snapshot.Cores {
		if dl.Snapshot.Cores[i].Name == "cp" {
			cp = &dl.Snapshot.Cores[i]
		}
	}
	if cp == nil || cp.Head == nil {
		t.Fatalf("snapshot has no CP head: %+v", dl.Snapshot.Cores)
	}
	if !strings.Contains(cp.Head.Inst, "$LDQ") {
		t.Errorf("CP head inst = %q, want the $LDQ pop", cp.Head.Inst)
	}
	blocked := false
	for _, s := range cp.Head.Sources {
		if s.Queue == "ldq" && !s.QueueReady {
			blocked = true
		}
	}
	if !blocked {
		t.Errorf("CP head sources %+v do not show the unsatisfied ldq claim", cp.Head.Sources)
	}
}

func TestIPCWithinPhysicalBounds(t *testing.T) {
	b := compileKernel(t, "convolution", false)
	p := mustAssemble(t, "convolution", kernels["convolution"])
	ref, err := fnsim.RunProgram(p, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunArch(b, Superscalar, mem.DefaultHierConfig())
	if err != nil {
		t.Fatal(err)
	}
	ipc := float64(ref.Insts) / float64(res.Cycles)
	if ipc <= 0 || ipc > 8 {
		t.Errorf("IPC %.2f outside (0, 8]", ipc)
	}
}

var _ = isa.NOP // keep the import for kernel edits

// TestRegressionCommitReleasePushOrdering pins the double-push bug
// found by differential testing: when the commit stage pushed an
// entry's queue values (because the release list was blocked on queue
// space), the release list later pushed them a second time, corrupting
// the FIFO pairing and deadlocking the consumer. The program below is
// the delta-minimized reproducer.
func TestRegressionCommitReleasePushOrdering(t *testing.T) {
	src := `
        .data
arena:  .space 2048
        .text
main:   li   $r20, 12
L1:     li   $r21, 4
L2:     andi $r10, $r10, 1023
        cvt.d.w $f6, $r10
        mul.d $f6, $f6, $f6
        add.d $f10, $f10, $f6
        sub  $r15, $r11, $r11
        andi $r8, $r15, 2044
        sw   $r11, 0($r8)
        addi $r21, $r21, -1
        bgtz $r21, L2
        addi $r20, $r20, -1
        bgtz $r20, L1
        beq  $r10, $r0, L4
L4:     addi $r13, $r15, 5
        out.d $f10
        halt
`
	p := mustAssemble(t, "regress", src)
	ref, err := fnsim.RunProgram(p, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := slicer.Separate(p, slicer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunArch(b, CPAP, mem.DefaultHierConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.MemHash != ref.MemHash || res.Output[0] != ref.Output[0] {
		t.Error("minimized reproducer diverged again")
	}
}

// TestDynamicDistanceEndToEnd runs NB under HiDISC with the runtime
// prefetch-distance controller and checks that results stay correct
// while the controller actually engages.
func TestDynamicDistanceEndToEnd(t *testing.T) {
	b := compileKernel(t, "randprobe", true)
	cfg := DefaultConfig(HiDISC)
	cfg.CMP.DynamicDistance = true
	m, err := New(b, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	p := mustAssemble(t, "randprobe", kernels["randprobe"])
	ref, err := fnsim.RunProgram(p, 100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.MemHash != ref.MemHash {
		t.Error("dynamic distance changed architectural results")
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
