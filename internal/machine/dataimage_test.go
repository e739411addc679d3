package machine

import (
	"bytes"
	"testing"

	"hidisc/internal/fnsim"
	"hidisc/internal/mem"
	"hidisc/internal/profile"
	"hidisc/internal/slicer"
	"hidisc/internal/workloads"
)

// TestDataImageSharedAndUnchanged pins the data-image contract
// (isa.Program.Data is read-only once built): for every test-scale
// workload, the Seq and AS programs of both bundles share the source
// program's backing array, and compiling the workload, then running it
// on fnsim, the stream co-simulation and all four architectures, leaves
// that array's bytes unchanged.
func TestDataImageSharedAndUnchanged(t *testing.T) {
	ws := append(workloads.All(workloads.ScaleTest), workloads.Extra(workloads.ScaleTest)...)
	for _, w := range ws {
		p, err := w.Program()
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if len(p.Data) == 0 {
			t.Fatalf("%s: empty data image", w.Name)
		}
		orig := bytes.Clone(p.Data)
		hier := mem.DefaultHierConfig()
		prof, err := profile.CacheProfile(p, hier, w.MaxInsts)
		if err != nil {
			t.Fatalf("%s: profile: %v", w.Name, err)
		}
		plain, err := slicer.Separate(p, slicer.Options{})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		cmas, err := slicer.Separate(p, slicer.Options{Profile: prof})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		for _, b := range []*slicer.Bundle{plain, cmas} {
			for _, q := range [][]byte{b.Seq.Data, b.AS.Data} {
				if len(q) != len(p.Data) || &q[0] != &p.Data[0] {
					t.Errorf("%s: a separated stream holds its own copy of the data image", w.Name)
				}
			}
		}

		if _, err := fnsim.RunProgram(p, w.MaxInsts); err != nil {
			t.Fatalf("%s: fnsim: %v", w.Name, err)
		}
		if _, err := slicer.Cosim(plain, 10*w.MaxInsts); err != nil {
			t.Fatalf("%s: cosim: %v", w.Name, err)
		}
		for _, arch := range Arches {
			b := plain
			if arch == CPCMP || arch == HiDISC {
				b = cmas
			}
			if _, err := RunArch(b, arch, hier); err != nil {
				t.Fatalf("%s on %s: %v", w.Name, arch, err)
			}
		}
		if !bytes.Equal(p.Data, orig) {
			t.Errorf("%s: compiling and simulating changed the shared data image", w.Name)
		}
	}
}
