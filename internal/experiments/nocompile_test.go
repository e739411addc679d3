package experiments

import (
	"reflect"
	"testing"

	"hidisc/internal/machine"
	"hidisc/internal/workloads"
)

// TestNoCompileMachineParity is the machine-level differential test
// for the compiled fnsim fast path: a runner whose cache-profile pass,
// which is also its functional reference, runs on the
// basic-block-compiled simulator must produce measurements
// bit-identical to a NoCompile (pure interpreter) runner — same
// cycles, same stats, same machine.Result — for every workload x
// architecture. The paper-scale matrix is skipped in short
// mode and under the race detector (see raceEnabled); the test-scale
// matrix always runs.
func TestNoCompileMachineParity(t *testing.T) {
	scales := []workloads.Scale{workloads.ScaleTest}
	if !testing.Short() && !raceEnabled {
		scales = append(scales, workloads.ScalePaper)
	}
	for _, sc := range scales {
		fast := NewRunner(sc)
		interp := NewRunner(sc)
		interp.NoCompile = true
		label := "test"
		if sc == workloads.ScalePaper {
			label = "paper"
		}
		t.Run(label, func(t *testing.T) {
			for _, name := range workloads.Names() {
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					cf, err := fast.Compile(name)
					if err != nil {
						t.Fatalf("compiled-path compile: %v", err)
					}
					ci, err := interp.Compile(name)
					if err != nil {
						t.Fatalf("interp-path compile: %v", err)
					}
					if cf.SeqInsts != ci.SeqInsts || cf.MemHash != ci.MemHash {
						t.Errorf("reference: compiled %d insts, memory %#x; interp %d, %#x",
							cf.SeqInsts, cf.MemHash, ci.SeqInsts, ci.MemHash)
					}
					for _, arch := range machine.Arches {
						mf, err := fast.Run(name, arch, fast.Hier)
						if err != nil {
							t.Fatalf("%s compiled-path run: %v", arch, err)
						}
						mi, err := interp.Run(name, arch, interp.Hier)
						if err != nil {
							t.Fatalf("%s interp-path run: %v", arch, err)
						}
						if !reflect.DeepEqual(mf, mi) {
							t.Errorf("%s: measurement diverges between compiled and interpreted reference paths:\ncompiled: %+v\ninterp:   %+v", arch, mf, mi)
						}
					}
				})
			}
		})
	}
}
