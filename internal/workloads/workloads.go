// Package workloads implements the paper's benchmark programs: the two
// Data-Intensive Systems benchmarks the evaluation reports (Data
// Management and Ray Tracing) and the five DIS Stressmarks (Pointer,
// Update, Field, Neighborhood, Transitive Closure).
//
// The AAEC suites are kernel extractions of data-intensive programs;
// each workload here is the corresponding kernel written in the
// toolchain's assembly (the paper compiles C with gcc to PISA — see
// DESIGN.md for the substitution), with a deterministic synthetic
// input generated in-program from a fixed linear congruential
// generator. Every workload carries a pure-Go reference implementation
// producing the exact OUT lines the kernel must print, which the test
// suite checks against the functional simulator and every machine
// configuration.
package workloads

import (
	"fmt"

	"hidisc/internal/asm"
	"hidisc/internal/isa"
)

// Workload is one benchmark instance.
type Workload struct {
	// Name as it appears in the paper's figures (DM, RayTray, Pointer,
	// Update, Field, NB, TC).
	Name string
	// Suite is "DIS" or "Stressmark".
	Suite string
	// Description of the kernel behaviour.
	Description string
	// Source is the assembly program.
	Source string
	// Expected holds the OUT lines the program must produce.
	Expected []string
	// MaxInsts bounds functional execution (runaway guard).
	MaxInsts uint64
}

// Program assembles the workload.
func (w *Workload) Program() (*isa.Program, error) {
	return asm.Assemble(w.Name, w.Source)
}

// Scale selects workload sizing.
type Scale int

// Available scales.
const (
	// ScaleTest keeps runs small enough for unit tests.
	ScaleTest Scale = iota
	// ScalePaper sizes working sets past the L1 (and partly the L2)
	// like the paper's runs.
	ScalePaper
)

// ParseScale resolves a scale name, as given on the command line or the
// wire; the empty string gives def.
func ParseScale(name string, def Scale) (Scale, error) {
	switch name {
	case "":
		return def, nil
	case "test":
		return ScaleTest, nil
	case "paper":
		return ScalePaper, nil
	}
	return def, fmt.Errorf("unknown scale %q (want \"test\" or \"paper\")", name)
}

// ScaleName is the name ParseScale accepts for a scale.
func ScaleName(s Scale) string {
	if s == ScalePaper {
		return "paper"
	}
	return "test"
}

// entry names one workload and builds it, with its input, source text
// and reference output, at a given scale.
type entry struct {
	name  string
	build func(Scale) *Workload
}

// table lists every workload in presentation order: the seven
// benchmarks of Figure 8 first, then the extras. Each entry builds only
// its own workload, so ByName constructs just the one asked for.
var table = []entry{
	{"DM", DataManagement},
	{"RayTray", RayTrace},
	{"Pointer", Pointer},
	{"Update", Update},
	{"Field", Field},
	{"NB", Neighborhood},
	{"TC", TransitiveClosure},
	{"Matrix", Matrix},
	{"CornerTurn", CornerTurn},
}

// numFigure is how many leading table entries Figure 8 plots.
const numFigure = 7

func build(entries []entry, s Scale) []*Workload {
	ws := make([]*Workload, len(entries))
	for i, e := range entries {
		ws[i] = e.build(s)
	}
	return ws
}

// All returns the seven benchmarks of Figure 8 in presentation order.
func All(s Scale) []*Workload { return build(table[:numFigure], s) }

// Extra returns the stressmarks that complete the seven-member DIS
// suite but do not appear in the paper's figures (which plot five
// stressmarks plus two DIS benchmark kernels).
func Extra(s Scale) []*Workload { return build(table[numFigure:], s) }

// ByName returns the named workload (figure set or extras) at the
// given scale.
func ByName(name string, s Scale) (*Workload, error) {
	for _, e := range table {
		if e.name == name {
			return e.build(s), nil
		}
	}
	return nil, fmt.Errorf("workloads: unknown workload %q", name)
}

// Names lists the benchmark names in figure order.
func Names() []string {
	names := make([]string, numFigure)
	for i := range names {
		names[i] = table[i].name
	}
	return names
}

// lcg steps the shared linear congruential generator used by the
// kernels' input synthesis.
func lcg(u uint32) uint32 { return u*1103515245 + 12345 }

func itoa(v uint32) string { return fmt.Sprintf("%d", int32(v)) }

// fmtSrc formats an assembly template.
func fmtSrc(format string, args ...any) string { return fmt.Sprintf(format, args...) }

func ftoa(v float64) string { return fmt.Sprintf("%g", v) }
