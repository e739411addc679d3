package workloads

// Neighborhood is the DIS Neighborhood Stressmark kernel: for every
// interior pixel of a synthesised image it gathers neighbors at a
// fixed distance, computes a floating point texture measure (sum of
// squared differences) and stores the per-pixel result while
// accumulating a global sum. The per-pixel store of a computed value
// forces a Computation Stream -> Access Stream transfer every
// iteration; the resulting synchronisation pressure is the paper's
// loss-of-decoupling case where CP+AP falls below the superscalar
// baseline.
func Neighborhood(s Scale) *Workload {
	size, dist := 256, 32
	if s == ScaleTest {
		size, dist = 24, 4
	}
	interiorY := size - dist
	interiorX := size - 2
	src := fmtSrc(`
        .data
img:    .space %d             ; size*size bytes
res:    .space %d             ; per-pixel results
        .text
main:   la   $r2, img         ; synthesise the image
        li   $r1, %d
        li   $r5, 777
fill:   li   $r6, 1103515245
        mul  $r5, $r5, $r6
        addi $r5, $r5, 12345
        srli $r4, $r5, 16
        andi $r4, $r4, 255
        sb   $r4, 0($r2)
        addi $r2, $r2, 1
        addi $r1, $r1, -1
        bgtz $r1, fill
        ; neighborhood sweep; the paired pixel sits dist rows up, far
        ; enough that the result stream has evicted its line
        li   $r11, %d         ; y starts at dist
        la   $r14, res
        sub.d $f10, $f10, $f10 ; global sum = 0
yloop:  li   $r12, 1          ; x
xloop:  li   $r6, %d
        mul  $r7, $r11, $r6
        add  $r7, $r7, $r12   ; idx = y*size + x
        la   $r8, img
        add  $r8, $r8, $r7
        lbu  $r3, 0($r8)      ; p
        lbu  $r4, -%d($r8)    ; paired pixel dist rows up
        sub  $r4, $r3, $r4
        cvt.d.w $f1, $r4
        mul.d $f1, $f1, $f1   ; squared difference
        s.d  $f1, 0($r14)     ; per-pixel result (CS -> SDQ -> store)
        add.d $f10, $f10, $f1
        addi $r14, $r14, 8
        addi $r12, $r12, 1
        slti $r7, $r12, %d
        bne  $r7, $r0, xloop
        addi $r11, $r11, 1
        slti $r7, $r11, %d
        bne  $r7, $r0, yloop
        out.d $f10
        halt
`, size*size, interiorY*interiorX*8, size*size, dist, size, dist*size, size-1, size-1)

	// Reference.
	img := make([]byte, size*size)
	u := uint32(777)
	for i := range img {
		u = lcg(u)
		img[i] = byte((u >> 16) & 255)
	}
	var sum float64
	for y := dist; y < size-1; y++ {
		for x := 1; x < size-1; x++ {
			idx := y*size + x
			p := int32(img[idx])
			d1 := float64(p - int32(img[idx-dist*size]))
			sum += float64(d1 * d1) // rounded before the add, as mul.d does: no fusion
		}
	}

	return &Workload{
		Name:        "NB",
		Suite:       "Stressmark",
		Description: "per-pixel neighborhood texture measure with per-iteration computed stores",
		Source:      src,
		Expected:    []string{ftoa(sum)},
		MaxInsts:    uint64(size*size*10+interiorY*interiorX*30) + 1000,
	}
}
