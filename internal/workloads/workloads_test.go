package workloads

import (
	"strconv"
	"strings"
	"testing"

	"hidisc/internal/fnsim"
	"hidisc/internal/isa"
	"hidisc/internal/machine"
	"hidisc/internal/mem"
	"hidisc/internal/profile"
	"hidisc/internal/slicer"
)

func TestRegistry(t *testing.T) {
	all := All(ScaleTest)
	names := Names()
	if len(all) != 7 || len(names) != 7 {
		t.Fatalf("expected 7 workloads, got %d/%d", len(all), len(names))
	}
	for i, w := range all {
		if w.Name != names[i] {
			t.Errorf("workload %d: name %q, want %q", i, w.Name, names[i])
		}
		if w.Description == "" || w.Suite == "" {
			t.Errorf("%s: missing metadata", w.Name)
		}
		got, err := ByName(w.Name, ScaleTest)
		if err != nil || got.Name != w.Name {
			t.Errorf("ByName(%q): %v", w.Name, err)
		}
	}
	for _, e := range table {
		if w := e.build(ScaleTest); w.Name != e.name {
			t.Errorf("table entry %q builds workload %q", e.name, w.Name)
		}
	}
	if _, err := ByName("nonsense", ScaleTest); err == nil {
		t.Error("ByName accepted unknown name")
	}
}

// TestReferenceOutputs is the semantic gate for every kernel: the
// functional simulation must print exactly what the Go reference
// implementation computes.
func TestReferenceOutputs(t *testing.T) {
	for _, scale := range []Scale{ScaleTest, ScalePaper} {
		for _, w := range All(scale) {
			w, scale := w, scale
			t.Run(w.Name, func(t *testing.T) {
				if scale == ScalePaper && testing.Short() {
					t.Skip("paper scale skipped in -short")
				}
				p, err := w.Program()
				if err != nil {
					t.Fatalf("assemble: %v", err)
				}
				res, err := fnsim.RunProgram(p, w.MaxInsts)
				if err != nil {
					t.Fatalf("run: %v", err)
				}
				if len(res.Output) != len(w.Expected) {
					t.Fatalf("output %v, want %v", res.Output, w.Expected)
				}
				for i := range w.Expected {
					if res.Output[i] != w.Expected[i] {
						t.Errorf("output[%d] = %q, want %q", i, res.Output[i], w.Expected[i])
					}
				}
			})
		}
	}
}

// TestWorkloadsAcrossArchitectures compiles each test-scale workload
// with a profile and checks result equivalence on all four machines.
func TestWorkloadsAcrossArchitectures(t *testing.T) {
	for _, w := range All(ScaleTest) {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			p := mustProgram(t, w)
			prof, err := profile.CacheProfile(p, mem.DefaultHierConfig(), w.MaxInsts)
			if err != nil {
				t.Fatal(err)
			}
			b, err := slicer.Separate(p, slicer.Options{Profile: prof, MinMisses: 16})
			if err != nil {
				t.Fatal(err)
			}
			for _, arch := range machine.Arches {
				res, err := machine.RunArch(b, arch, mem.DefaultHierConfig())
				if err != nil {
					t.Fatalf("%s: %v", arch, err)
				}
				if len(res.Output) != len(w.Expected) {
					t.Fatalf("%s: output %v, want %v", arch, res.Output, w.Expected)
				}
				for i := range w.Expected {
					if res.Output[i] != w.Expected[i] {
						t.Errorf("%s: output[%d] = %q, want %q", arch, i, res.Output[i], w.Expected[i])
					}
				}
			}
		})
	}
}

// TestCosimEquivalence checks the functional co-simulation of the
// separated streams for every workload (queue pairing invariant).
func TestCosimEquivalence(t *testing.T) {
	for _, w := range All(ScaleTest) {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			p := mustProgram(t, w)
			b, err := slicer.Separate(p, slicer.Options{})
			if err != nil {
				t.Fatal(err)
			}
			res, err := slicer.Cosim(b, 20*w.MaxInsts)
			if err != nil {
				t.Fatalf("cosim: %v", err)
			}
			if len(res.Output) != len(w.Expected) {
				t.Fatalf("output %v, want %v", res.Output, w.Expected)
			}
			for i := range w.Expected {
				if res.Output[i] != w.Expected[i] {
					t.Errorf("output[%d] = %q, want %q", i, res.Output[i], w.Expected[i])
				}
			}
			if !res.Drained {
				t.Error("queues not drained")
			}
		})
	}
}

func TestPaperScaleWorkingSetsExceedL1(t *testing.T) {
	// The paper's premise: data-intensive kernels overwhelm the L1.
	l1 := mem.DefaultHierConfig().L1D.SizeBytes()
	for _, w := range All(ScalePaper) {
		p := mustProgram(t, w)
		if len(p.Data) < l1 {
			t.Errorf("%s: static data %d bytes < L1 %d", w.Name, len(p.Data), l1)
		}
	}
}

func TestScalesDiffer(t *testing.T) {
	for i, small := range All(ScaleTest) {
		big := All(ScalePaper)[i]
		if small.Source == big.Source {
			t.Errorf("%s: test and paper scales produce identical sources", small.Name)
		}
	}
}

// TestParseScale pins the scale names every binary and the wire accept:
// a mistyped name is an error, never a silent fall-back to paper scale.
func TestParseScale(t *testing.T) {
	for _, tc := range []struct {
		name string
		want Scale
		ok   bool
	}{
		{"test", ScaleTest, true},
		{"paper", ScalePaper, true},
		{"", ScaleTest, true}, // the default passed in below
		{"Test", 0, false},
		{"tset", 0, false},
	} {
		got, err := ParseScale(tc.name, ScaleTest)
		if (err == nil) != tc.ok {
			t.Errorf("ParseScale(%q) error = %v, want ok=%v", tc.name, err, tc.ok)
			continue
		}
		if tc.ok && got != tc.want {
			t.Errorf("ParseScale(%q) = %v, want %v", tc.name, got, tc.want)
		}
		if !tc.ok && !strings.Contains(err.Error(), strconv.Quote(tc.name)) {
			t.Errorf("ParseScale(%q) error %q does not name the value", tc.name, err)
		}
	}
	if got, _ := ParseScale("", ScalePaper); got != ScalePaper {
		t.Errorf("ParseScale(\"\", ScalePaper) = %v", got)
	}
	for _, s := range []Scale{ScaleTest, ScalePaper} {
		if got, err := ParseScale(ScaleName(s), ScaleTest); err != nil || got != s {
			t.Errorf("ParseScale(ScaleName(%d)) = %v, %v", s, got, err)
		}
	}
}

func TestExtraStressmarksCompleteTheSuite(t *testing.T) {
	extra := Extra(ScaleTest)
	if len(extra) != 2 || extra[0].Name != "Matrix" || extra[1].Name != "CornerTurn" {
		t.Fatalf("extras: %v", extra)
	}
	// 5 figure stressmarks + 2 extras = the 7-member DIS Stressmark suite.
	stress := 0
	for _, w := range append(All(ScaleTest), extra...) {
		if w.Suite == "Stressmark" {
			stress++
		}
	}
	if stress != 7 {
		t.Errorf("stressmark count = %d, want 7", stress)
	}
}

func TestExtraReferenceOutputs(t *testing.T) {
	for _, scale := range []Scale{ScaleTest, ScalePaper} {
		for _, w := range Extra(scale) {
			w, scale := w, scale
			t.Run(w.Name, func(t *testing.T) {
				if scale == ScalePaper && testing.Short() {
					t.Skip("paper scale skipped in -short")
				}
				p := mustProgram(t, w)
				res, err := fnsim.RunProgram(p, w.MaxInsts)
				if err != nil {
					t.Fatal(err)
				}
				if len(res.Output) != len(w.Expected) || res.Output[0] != w.Expected[0] {
					t.Errorf("output %v, want %v", res.Output, w.Expected)
				}
			})
		}
	}
}

func TestExtraAcrossArchitectures(t *testing.T) {
	for _, w := range Extra(ScaleTest) {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			p := mustProgram(t, w)
			prof, err := profile.CacheProfile(p, mem.DefaultHierConfig(), w.MaxInsts)
			if err != nil {
				t.Fatal(err)
			}
			b, err := slicer.Separate(p, slicer.Options{Profile: prof, MinMisses: 16})
			if err != nil {
				t.Fatal(err)
			}
			for _, arch := range machine.Arches {
				res, err := machine.RunArch(b, arch, mem.DefaultHierConfig())
				if err != nil {
					t.Fatalf("%s: %v", arch, err)
				}
				if res.Output[0] != w.Expected[0] {
					t.Errorf("%s: output %v, want %v", arch, res.Output, w.Expected)
				}
			}
		})
	}
}

// mustProgram assembles a workload, failing the test on error.
func mustProgram(tb testing.TB, w *Workload) *isa.Program {
	tb.Helper()
	p, err := w.Program()
	if err != nil {
		tb.Fatalf("assemble %s: %v", w.Name, err)
	}
	return p
}
