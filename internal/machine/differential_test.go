package machine

// Differential testing of the whole stack: randomly generated but
// well-formed programs must produce identical architectural results on
// the functional reference, the functional co-simulation of the
// separated streams, and all four timing machines (with and without
// profile-guided CMAS). This is the widest net for stream-separation
// and microarchitecture bugs: queue pairing, speculation recovery,
// store/load ordering, CMAS side effects.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"hidisc/internal/asm"
	"hidisc/internal/fnsim"
	"hidisc/internal/isa"
	"hidisc/internal/mem"
	"hidisc/internal/profile"
	"hidisc/internal/slicer"
)

// progGen emits random structured assembly: straight-line integer and
// FP arithmetic over every computational op, byte, word and double
// loads and stores into a bounded arena (the doubles on 8-byte slots
// that overlap the words and bytes), pointer chases through the arena,
// counted loops (possibly nested), leaf calls through jal and jalr and
// data-dependent diamonds on every conditional branch.
// Programs always terminate and never fault (divisors are forced odd,
// addresses are masked).
type progGen struct {
	rng   *rand.Rand
	sb    strings.Builder
	label int
	depth int
}

func (g *progGen) emit(format string, args ...any) {
	fmt.Fprintf(&g.sb, format+"\n", args...)
}

func (g *progGen) newLabel() string {
	g.label++
	return fmt.Sprintf("L%d", g.label)
}

func (g *progGen) pick(ops ...string) string { return ops[g.rng.Intn(len(ops))] }

// Register pools. r20-r23 hold loop counters (one per nesting level);
// r9 holds the arena base; r8 an arena address; r17 a divisor; r18 a
// jalr target and r19 a return address; r10-r15 are scratch; f1-f6 FP
// scratch and f10 an accumulator.
func (g *progGen) scratch() string   { return fmt.Sprintf("$r%d", 10+g.rng.Intn(6)) }
func (g *progGen) fpScratch() string { return fmt.Sprintf("$f%d", 1+g.rng.Intn(6)) }

const arenaWords = 512

// addr emits code leaving a valid arena address in $r8: a word address
// from register src, or from a random scratch register when src is "".
func (g *progGen) addr(src string) {
	if src == "" {
		src = g.scratch()
	}
	g.emit("        andi $r8, %s, %d", src, (arenaWords-1)*4)
	g.emit("        add  $r8, $r9, $r8")
}

func (g *progGen) stmt() {
	switch g.rng.Intn(17) {
	case 0, 1: // integer ALU, three-register form
		op := g.pick("add", "sub", "xor", "and", "or", "nor", "slt", "sltu", "sll", "srl", "sra")
		g.emit("        %s %s, %s, %s", op, g.scratch(), g.scratch(), g.scratch())
	case 2: // immediate form
		op := g.pick("addi", "andi", "ori", "xori", "slti")
		g.emit("        %s %s, %s, %d", op, g.scratch(), g.scratch(), g.rng.Intn(64)-32)
	case 3: // shift/mul/upper immediate
		switch g.rng.Intn(3) {
		case 0:
			g.emit("        %s %s, %s, %d", g.pick("slli", "srli", "srai"), g.scratch(), g.scratch(), g.rng.Intn(33))
		case 1:
			g.emit("        mul %s, %s, %s", g.scratch(), g.scratch(), g.scratch())
		default:
			g.emit("        lui %s, %d", g.scratch(), g.rng.Intn(1<<16))
		}
	case 4: // load, word or byte
		g.addr("")
		if g.rng.Intn(2) == 0 {
			g.emit("        lw   %s, 0($r8)", g.scratch())
		} else {
			g.emit("        lbu  %s, %d($r8)", g.scratch(), g.rng.Intn(4))
		}
	case 5: // store (value may be compute-stream produced), word or byte
		g.addr("")
		if g.rng.Intn(2) == 0 {
			g.emit("        sw   %s, 0($r8)", g.scratch())
		} else {
			g.emit("        sb   %s, %d($r8)", g.scratch(), g.rng.Intn(4))
		}
	case 6: // FP chain fed from memory
		g.addr("")
		f1, f2 := g.fpScratch(), g.fpScratch()
		g.emit("        lw   $r10, 0($r8)")
		g.emit("        andi $r10, $r10, 1023")
		g.emit("        cvt.d.w %s, $r10", f1)
		g.emit("        %s %s, %s, %s", g.pick("mul.d", "sub.d", "div.d"), f2, f1, g.fpScratch())
		g.emit("        add.d $f10, $f10, %s", f2)
	case 7: // data-dependent diamond on any conditional branch
		then, join := g.newLabel(), g.newLabel()
		g.emit("        andi $r10, %s, 3", g.scratch())
		g.emit("        addi $r10, $r10, -1")
		switch br := g.pick("beq", "bne", "blez", "bltz", "bgez", "bgtz"); br {
		case "beq", "bne":
			g.emit("        %s  $r10, $r0, %s", br, then)
		default:
			g.emit("        %s $r10, %s", br, then)
		}
		g.emit("        addi %s, %s, 3", g.scratch(), g.scratch())
		g.emit("        j    %s", join)
		g.emit("%s:", then)
		g.emit("        addi %s, %s, 5", g.scratch(), g.scratch())
		g.emit("%s:", join)
	case 8: // read-modify-write
		g.addr("")
		g.emit("        lw   $r11, 0($r8)")
		g.emit("        xor  $r11, $r11, %s", g.scratch())
		g.emit("        sw   $r11, 0($r8)")
	case 9: // nested counted loop, or a leaf call
		switch {
		case g.depth < 2 && g.rng.Intn(2) == 0:
			g.loop()
		case g.depth < 2:
			// Leaf call: exercises JAL/JR mirroring and the control
			// queue's JCQ target translation.
			g.emit("        jal  helper%d", 1+g.rng.Intn(2))
		default:
			g.emit("        add  %s, %s, %s", g.scratch(), g.scratch(), g.scratch())
		}
	case 10: // division by an odd (so nonzero) divisor
		g.emit("        ori  $r17, %s, 1", g.scratch())
		g.emit("        %s  %s, %s, $r17", g.pick("div", "rem"), g.scratch(), g.scratch())
	case 11: // FP one-source ops and the FP-to-integer conversion
		if g.rng.Intn(2) == 0 {
			g.emit("        %s %s, %s", g.pick("mov.d", "neg.d", "abs.d"), g.fpScratch(), g.fpScratch())
		} else {
			g.emit("        cvt.w.d %s, %s", g.scratch(), g.fpScratch())
		}
	case 12: // FP compare into an integer register
		g.emit("        %s %s, %s, %s", g.pick("c.lt.d", "c.le.d", "c.eq.d"), g.scratch(), g.fpScratch(), g.fpScratch())
	case 13: // integer to FP
		g.emit("        cvt.d.w %s, %s", g.fpScratch(), g.scratch())
	case 14: // double load or store on an 8-byte slot over the words
		g.emit("        andi $r8, %s, %d", g.scratch(), (arenaWords/2-1)*8)
		g.emit("        add  $r8, $r9, $r8")
		switch g.rng.Intn(4) {
		case 0:
			g.emit("        l.d  %s, 0($r8)", g.fpScratch())
		case 1:
			g.emit("        s.d  %s, 0($r8)", g.fpScratch())
		case 2: // forwards at width 8
			g.emit("        s.d  %s, 0($r8)", g.fpScratch())
			g.emit("        l.d  %s, 0($r8)", g.fpScratch())
		default: // a word or byte inside the double just stored
			g.emit("        s.d  %s, 0($r8)", g.fpScratch())
			g.emit("        %s  %s, %d($r8)", g.pick("lw", "lbu"), g.scratch(), 4*g.rng.Intn(2))
		}
	case 15: // leaf call through jalr, linking in $r19
		g.emit("        jal  get3")
		g.emit("        jalr $r19, $r18")
	case 16: // pointer chase: an arena word, masked to the arena, is the next address
		g.addr("")
		g.emit("        lw   $r8, 0($r8)")
		g.addr("$r8")
		g.emit("        %s  %s, 0($r8)", g.pick("lw", "lbu"), g.scratch())
	}
}

func (g *progGen) loop() {
	counter := fmt.Sprintf("$r%d", 20+g.depth)
	g.depth++
	head := g.newLabel()
	trip := 2 + g.rng.Intn(12)
	body := 2 + g.rng.Intn(5)
	g.emit("        li   %s, %d", counter, trip)
	g.emit("%s:", head)
	for i := 0; i < body; i++ {
		g.stmt()
	}
	g.emit("        addi %s, %s, -1", counter, counter)
	g.emit("        bgtz %s, %s", counter, head)
	g.depth--
}

func generateProgram(seed int64) string {
	g := &progGen{rng: rand.New(rand.NewSource(seed))}
	g.emit("        .data")
	g.emit("arena:  .space %d", arenaWords*4)
	g.emit("        .text")
	g.emit("main:   la   $r9, arena")
	// Seed the scratch registers deterministically.
	for i := 10; i < 16; i++ {
		g.emit("        li   $r%d, %d", i, g.rng.Intn(1<<16))
	}
	g.emit("        sub.d $f10, $f10, $f10")
	n := 2 + g.rng.Intn(4)
	for i := 0; i < n; i++ {
		g.loop()
	}
	// Observable results: scratch registers, FP registers, and the
	// memory image (checked via checksum).
	for i := 10; i < 16; i++ {
		g.emit("        out  $r%d", i)
	}
	for i := 1; i <= 6; i++ {
		g.emit("        out.d $f%d", i)
	}
	g.emit("        out.d $f10")
	g.emit("        halt")
	// Leaf helpers reachable via jal; they mix pure compute with a
	// memory touch so both streams have work across the call.
	g.emit("helper1: mul $r12, $r12, $r13")
	g.emit("        addi $r12, $r12, 17")
	g.emit("        jr   $ra")
	g.emit("helper2: andi $r8, $r14, %d", (arenaWords-1)*4)
	g.emit("        add  $r8, $r9, $r8")
	g.emit("        lw   $r13, 0($r8)")
	g.emit("        xor  $r13, $r13, $r15")
	g.emit("        jr   $ra")
	// get3 leaves helper3's address in $r18 for a jalr. The address is
	// a jal's link, not a la of the label: separation renumbers each
	// stream's instructions, and a link is in the stream's own numbers.
	g.emit("get3:   or   $r19, $ra, $r0")
	g.emit("        jal  get3b")
	g.emit("helper3: andi $r8, $r15, %d", (arenaWords/2-1)*8)
	g.emit("        add  $r8, $r9, $r8")
	g.emit("        l.d  $f6, 0($r8)")
	g.emit("        xor  $r15, $r15, $r13")
	g.emit("        jr   $r19")
	g.emit("get3b:  or   $r18, $ra, $r0")
	g.emit("        jr   $r19")
	return g.sb.String()
}

// differentialTrials seeds TestDifferentialRandomPrograms; the race
// detector's slowdown makes its pass use fewer.
func differentialTrials() int {
	switch {
	case testing.Short():
		return 20
	case raceEnabled:
		return 60
	}
	return 500
}

func TestDifferentialRandomPrograms(t *testing.T) {
	for seed := int64(1); seed <= int64(differentialTrials()); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			checkDifferential(t, generateProgram(seed))
		})
	}
}

// FuzzDifferentialPrograms runs the differential check on the program
// the generator makes from each fuzzed seed. The corpus holds the seeds
// whose programs diverged while branch thinning still dropped calls:
// wrong output (201), a deadlock (387, 448) and a wrong memory image
// (434). Those were the programs of the generator before it emitted
// doubles, jalr and pointer chases; the same seeds now name other
// programs.
func FuzzDifferentialPrograms(f *testing.F) {
	for _, seed := range []int64{1, 201, 387, 434, 448} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkDifferential(t, generateProgram(seed))
	})
}

// checkDifferential requires src to produce the functional reference's
// output and memory image on the co-simulated streams and on all four
// architectures.
func checkDifferential(t *testing.T, src string) {
	t.Helper()
	p, err := asm.Assemble("fuzz", src)
	if err != nil {
		t.Fatalf("assemble: %v\n%s", err, src)
	}
	ref, err := fnsim.RunProgram(p, 5_000_000)
	if err != nil {
		t.Fatalf("reference: %v\n%s", err, src)
	}

	// Functional co-simulation of the separated streams.
	plain, err := slicer.Separate(p, slicer.Options{})
	if err != nil {
		t.Fatalf("separate: %v", err)
	}
	cos, err := slicer.Cosim(plain, 50_000_000)
	if err != nil {
		t.Fatalf("cosim: %v\n%s", err, plain.Report())
	}
	if cos.MemHash != ref.MemHash {
		t.Fatal("cosim memory image mismatch")
	}
	compareOutput(t, "cosim", cos.Output, ref.Output)

	// Profile-guided bundle for the CMP architectures.
	prof, err := profile.CacheProfile(p, mem.DefaultHierConfig(), 5_000_000)
	if err != nil {
		t.Fatal(err)
	}
	cmas, err := slicer.Separate(p, slicer.Options{Profile: prof, MinMisses: 4})
	if err != nil {
		t.Fatal(err)
	}

	for _, arch := range Arches {
		b := plain
		if arch == CPCMP || arch == HiDISC {
			b = cmas
		}
		res, err := RunArch(b, arch, mem.DefaultHierConfig())
		if err != nil {
			t.Fatalf("%s: %v\n%s", arch, err, src)
		}
		if res.MemHash != ref.MemHash {
			t.Errorf("%s: memory image mismatch", arch)
		}
		compareOutput(t, string(arch), res.Output, ref.Output)
	}
}

func compareOutput(t *testing.T, who string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: output %v, want %v", who, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: output[%d] = %q, want %q", who, i, got[i], want[i])
		}
	}
}

// TestDifferentialBlockingHandshake repeats a subset of the seeds with
// the paper-literal blocking GETSCQ handshake.
func TestDifferentialBlockingHandshake(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		src := generateProgram(seed)
		p := mustAssemble(t, fmt.Sprintf("fuzzb%d", seed), src)
		ref, err := fnsim.RunProgram(p, 5_000_000)
		if err != nil {
			t.Fatal(err)
		}
		prof, err := profile.CacheProfile(p, mem.DefaultHierConfig(), 5_000_000)
		if err != nil {
			t.Fatal(err)
		}
		b, err := slicer.Separate(p, slicer.Options{Profile: prof, MinMisses: 4, BlockingHandshake: true})
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig(HiDISC)
		cfg.AP.BlockingSCQ = true
		m, err := New(b, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.MemHash != ref.MemHash {
			t.Errorf("seed %d: memory mismatch under blocking handshake", seed)
		}
	}
}

var _ = isa.NOP
