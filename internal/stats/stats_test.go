package stats

import (
	"strings"
	"testing"
	"time"

	"hidisc/internal/asm"
	"hidisc/internal/fnsim"
	"hidisc/internal/isa"
	"hidisc/internal/machine"
	"hidisc/internal/mem"
	"hidisc/internal/slicer"
)

const kernel = `
        .data
buf:    .space 16384
        .text
main:   la   $r2, buf
        li   $r1, 2048
loop:   lw   $r3, 0($r2)
        add  $r4, $r4, $r3
        sw   $r4, 0($r2)
        addi $r2, $r2, 8
        addi $r1, $r1, -1
        bgtz $r1, loop
        out  $r4
        halt
`

func reportFor(t *testing.T, arch machine.Arch) Report {
	t.Helper()
	p := mustAssemble(t, "k", kernel)
	ref, err := fnsim.RunProgram(p, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := slicer.Separate(p, slicer.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := machine.RunArch(b, arch, mem.DefaultHierConfig())
	if err != nil {
		t.Fatal(err)
	}
	return Report{Result: res, SeqInsts: ref.Insts}
}

func TestDerivedMetrics(t *testing.T) {
	r := reportFor(t, machine.Superscalar)
	if ipc := r.IPC(); ipc <= 0 || ipc > 8 {
		t.Errorf("IPC = %v", ipc)
	}
	// The superscalar runs the sequential binary: no overhead.
	if ov := r.Overhead(); ov != 0 {
		t.Errorf("superscalar overhead = %v, want 0", ov)
	}
	d := reportFor(t, machine.CPAP)
	// The decoupled pair executes mirrors and pops: positive overhead.
	if ov := d.Overhead(); ov <= 0 {
		t.Errorf("decoupled overhead = %v, want > 0", ov)
	}
	if lod := d.LOD("cp"); lod < 0 || lod > 1 {
		t.Errorf("LOD = %v", lod)
	}
	if d.LOD("nonexistent") != 0 {
		t.Error("unknown core LOD should be 0")
	}
}

func TestReportRendering(t *testing.T) {
	r := reportFor(t, machine.CPAP)
	s := r.String()
	for _, want := range []string{
		"simulation report: cp+ap", "cycles", "IPC", "core ap", "core cp",
		"L1D", "L2", "LDQ", "LOD fraction",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
}

func TestCompareRendering(t *testing.T) {
	rs := []Report{reportFor(t, machine.Superscalar), reportFor(t, machine.CPAP)}
	s := Compare(rs)
	if !strings.Contains(s, "superscalar") || !strings.Contains(s, "cp+ap") {
		t.Errorf("compare table:\n%s", s)
	}
	if !strings.Contains(s, "arch") {
		t.Error("missing header")
	}
}

func TestZeroValueSafety(t *testing.T) {
	var r Report
	if r.IPC() != 0 || r.Overhead() != 0 || r.PrefetchCoverage() != 0 || r.LOD("cp") != 0 {
		t.Error("zero-value report produced nonzero metrics")
	}
	_ = r.String() // must not panic
}

func TestThroughput(t *testing.T) {
	tp := Throughput{SimCycles: 2_000_000, SimInsts: 1_000_000, Wall: 2 * time.Second}
	if got := tp.CyclesPerSec(); got != 1e6 {
		t.Errorf("CyclesPerSec = %v, want 1e6", got)
	}
	if got := tp.KIPS(); got != 500 {
		t.Errorf("KIPS = %v, want 500", got)
	}
	if got := tp.MIPS(); got != 0.5 {
		t.Errorf("MIPS = %v, want 0.5", got)
	}
	if (Throughput{SimCycles: 1, SimInsts: 1}).CyclesPerSec() != 0 {
		t.Error("zero wall must not divide by zero")
	}
	if s := tp.String(); s == "" {
		t.Error("empty String")
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
