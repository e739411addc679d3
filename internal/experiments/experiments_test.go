package experiments

import (
	"strings"
	"testing"

	"hidisc/internal/machine"
	"hidisc/internal/mem"
	"hidisc/internal/workloads"
)

func TestTable1RendersParameters(t *testing.T) {
	s := Table1()
	for _, want := range []string{
		"Bimodal", "2048", "256 sets", "1024 sets", "120 cycles", "12 cycles",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, s)
		}
	}
}

func TestRunnerVerifiesAndCaches(t *testing.T) {
	r := NewRunner(workloads.ScaleTest)
	m1, err := r.Run("Field", machine.Superscalar, r.Hier)
	if err != nil {
		t.Fatal(err)
	}
	if m1.Cycles <= 0 || m1.SeqInsts == 0 || m1.IPC <= 0 {
		t.Errorf("measurement: %+v", m1)
	}
	// Second run must come from the cache (same values, instant).
	m2, err := r.Run("Field", machine.Superscalar, r.Hier)
	if err != nil {
		t.Fatal(err)
	}
	if m1.Cycles != m2.Cycles {
		t.Error("cache returned different measurement")
	}
}

// TestRunnerChecksMemoryImage pins invariant 1 on every job: a machine
// whose final memory image differs from the functional reference's
// fails the job, even when its output lines are right.
func TestRunnerChecksMemoryImage(t *testing.T) {
	r := NewRunner(workloads.ScaleTest)
	r.NoMemo = true
	c, err := r.Compile("Field")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run("Field", machine.HiDISC, r.Hier); err != nil {
		t.Fatal(err)
	}
	c.MemHash ^= 1
	if _, err := r.Run("Field", machine.HiDISC, r.Hier); err == nil || !strings.Contains(err.Error(), "memory image") {
		t.Errorf("run against a wrong reference image: err = %v, want a memory-image mismatch", err)
	}
}

func TestRunnerUnknownWorkload(t *testing.T) {
	r := NewRunner(workloads.ScaleTest)
	if _, err := r.Run("nonsense", machine.Superscalar, r.Hier); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestCompiledBundleSelection(t *testing.T) {
	r := NewRunner(workloads.ScaleTest)
	c, err := r.Compile("Field")
	if err != nil {
		t.Fatal(err)
	}
	if c.bundleFor(machine.Superscalar) != c.Plain || c.bundleFor(machine.CPAP) != c.Plain {
		t.Error("baseline architectures must use the plain bundle")
	}
	if c.bundleFor(machine.CPCMP) != c.CMAS || c.bundleFor(machine.HiDISC) != c.CMAS {
		t.Error("CMP architectures must use the CMAS bundle")
	}
	if c.SeqInsts == 0 {
		t.Error("no reference instruction count")
	}
}

func TestFig8AndDerivedTables(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix")
	}
	r := NewRunner(workloads.ScaleTest)
	fig8, err := RunFig8(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloads.Names() {
		row, ok := fig8.Rows[name]
		if !ok {
			t.Fatalf("missing row %q", name)
		}
		if row[machine.Superscalar] != 1.0 {
			t.Errorf("%s: baseline speedup %v != 1", name, row[machine.Superscalar])
		}
		for _, a := range machine.Arches {
			if row[a] <= 0 {
				t.Errorf("%s/%s: speedup %v", name, a, row[a])
			}
		}
	}
	s := fig8.String()
	if !strings.Contains(s, "Figure 8") || !strings.Contains(s, "Pointer") {
		t.Errorf("fig8 render:\n%s", s)
	}

	t2 := RunTable2(fig8)
	if t2.Avg[machine.Superscalar] != 1.0 {
		t.Errorf("table 2 baseline average %v", t2.Avg[machine.Superscalar])
	}
	if !strings.Contains(t2.String(), "decoupling and prefetching") {
		t.Error("table 2 render missing HiDISC row")
	}

	fig9 := RunFig9(fig8)
	for _, name := range workloads.Names() {
		if v := fig9.Rows[name][machine.Superscalar]; v != 1.0 {
			t.Errorf("%s: baseline normalised misses %v != 1", name, v)
		}
	}
	if !strings.Contains(fig9.String(), "Figure 9") {
		t.Error("fig9 render")
	}
	_ = fig9.AverageReduction(machine.HiDISC)
}

func TestFig10Structure(t *testing.T) {
	if testing.Short() {
		t.Skip("latency sweep")
	}
	r := NewRunner(workloads.ScaleTest)
	fig, err := RunFig10(r, "Field")
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range machine.Arches {
		if len(fig.IPC[a]) != len(LatencyPoints) {
			t.Fatalf("%s: %d points", a, len(fig.IPC[a]))
		}
		// Longer latencies can never raise IPC.
		for i := 1; i < len(fig.IPC[a]); i++ {
			if fig.IPC[a][i] > fig.IPC[a][i-1]*1.0001 {
				t.Errorf("%s: IPC rose with latency: %v", a, fig.IPC[a])
			}
		}
		if d := fig.Degradation(a); d < 0 || d > 1 {
			t.Errorf("%s: degradation %v", a, d)
		}
	}
	if !strings.Contains(fig.String(), "Figure 10 (Field)") {
		t.Error("fig10 render")
	}
}

func TestConfigureHookApplies(t *testing.T) {
	r := NewRunner(workloads.ScaleTest)
	called := false
	r.Configure = func(c *machine.Config) {
		called = true
		c.Wide.WindowSize = 4
	}
	slow, err := r.Run("Field", machine.Superscalar, r.Hier)
	if err != nil {
		t.Fatal(err)
	}
	if !called {
		t.Fatal("Configure not invoked")
	}
	r2 := NewRunner(workloads.ScaleTest)
	fast, err := r2.Run("Field", machine.Superscalar, r2.Hier)
	if err != nil {
		t.Fatal(err)
	}
	if slow.Cycles <= fast.Cycles {
		t.Errorf("window-4 core (%d cycles) not slower than default (%d)", slow.Cycles, fast.Cycles)
	}
}

func TestLatencySweepUsesHierOverride(t *testing.T) {
	r := NewRunner(workloads.ScaleTest)
	short, err := r.Run("Field", machine.Superscalar, mem.DefaultHierConfig().WithLatencies(4, 40))
	if err != nil {
		t.Fatal(err)
	}
	long, err := r.Run("Field", machine.Superscalar, mem.DefaultHierConfig().WithLatencies(16, 160))
	if err != nil {
		t.Fatal(err)
	}
	if long.Cycles < short.Cycles {
		t.Errorf("longer latency faster: %d < %d", long.Cycles, short.Cycles)
	}
}

func TestLODTableRenders(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix")
	}
	r := NewRunner(workloads.ScaleTest)
	fig8, err := RunFig8(r)
	if err != nil {
		t.Fatal(err)
	}
	s := LODTable(fig8)
	if !strings.Contains(s, "Loss-of-decoupling") || !strings.Contains(s, "NB") {
		t.Errorf("LOD table:\n%s", s)
	}
}
