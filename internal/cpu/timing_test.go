package cpu

import (
	"fmt"
	"testing"

	"hidisc/internal/mem"
)

// depChainKernel is a loop of four dependent single-cycle adds: the
// chain through r2 bounds each iteration at four cycles.
const depChainKernel = `
        .text
main:   li   $r1, %d
        li   $r2, 0
loop:   addi $r2, $r2, 1
        addi $r2, $r2, 1
        addi $r2, $r2, 1
        addi $r2, $r2, 1
        addi $r1, $r1, -1
        bgtz $r1, loop
        out  $r2
        halt
`

// chaseKernel is a load-dependent pointer chase: each load's address
// depends on the previous load's value (always zero here) plus a fixed
// stride, so the loop runs at the load-to-use latency plus two adds.
const chaseKernel = `
        .data
buf:    .space %d
        .text
main:   li   $r1, %d
        la   $r2, buf
loop:   lw   $r3, 0($r2)
        add  $r2, $r2, $r3
        addi $r2, $r2, %d
        addi $r1, $r1, -1
        bgtz $r1, loop
        out  $r2
        halt
`

// TestClosedFormTiming pins exact per-iteration slopes of simple loops
// against closed-form latency sums. The slope is the cycle difference
// between n and 2n iterations divided by n, so pipeline fill and drain
// cancel; any change to the issue or writeback timing of a dependence
// chain moves it. Two values of n guard against a slope that only
// happens to hold at one loop length.
func TestClosedFormTiming(t *testing.T) {
	lats := []struct{ l2, mem int }{{12, 120}, {8, 80}}
	for _, lat := range lats {
		hc := mem.DefaultHierConfig().WithLatencies(lat.l2, lat.mem)
		l1 := int64(hc.L1D.Latency)
		cases := []struct {
			name string
			src  func(iters int) string
			want int64
		}{
			{"dep4", func(k int) string { return fmt.Sprintf(depChainKernel, k) }, 4},
			{"chase-l1", func(k int) string { return fmt.Sprintf(chaseKernel, 64, k, 0) }, l1 + 2},
			// Stride 64 is one L2 block, so every load misses both
			// levels on a cold line.
			{"chase-mem", func(k int) string { return fmt.Sprintf(chaseKernel, 64*(k+1), k, 64) },
				l1 + int64(lat.l2) + int64(lat.mem) + 2},
		}
		for _, tc := range cases {
			t.Run(fmt.Sprintf("%s/%d-%d", tc.name, lat.l2, lat.mem), func(t *testing.T) {
				for _, n := range []int{256, 512} {
					_, c1 := runCoreOn(t, tc.src(n), Config{Name: "ss"}, hc)
					_, c2 := runCoreOn(t, tc.src(2*n), Config{Name: "ss"}, hc)
					if got := c2 - c1; got != int64(n)*tc.want {
						t.Errorf("n=%d: %d extra iterations cost %d cycles (%.3f/iter), want %d/iter",
							n, n, got, float64(got)/float64(n), tc.want)
					}
				}
			})
		}
	}
}
