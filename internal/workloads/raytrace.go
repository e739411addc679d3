package workloads

// RayTrace is the kernel of the DIS Ray Tracing benchmark: rays from
// the origin are intersected against every sphere in a scene,
// accumulating the hit count and the nearest-hit metric per ray. The
// per-sphere test is a floating point quadratic discriminant; the
// sphere array is streamed for every ray, mixing regular memory
// traffic with data-dependent branches on computed FP values.
func RayTrace(s Scale) *Workload {
	spheres, rays := 2048, 24
	if s == ScaleTest {
		spheres, rays = 96, 6
	}
	src := fmtSrc(`
        .data
scene:  .space %d             ; spheres: {cx, cy, cz, r} doubles
        .text
main:   la   $r2, scene       ; synthesise the scene
        li   $r1, %d
        li   $r5, 31337
sloop:  li   $r6, 1103515245
        mul  $r5, $r5, $r6
        addi $r5, $r5, 12345
        srli $r4, $r5, 16
        andi $r4, $r4, 255
        addi $r4, $r4, -128
        cvt.d.w $f1, $r4      ; cx in [-128,127]
        s.d  $f1, 0($r2)
        mul  $r5, $r5, $r6
        addi $r5, $r5, 12345
        srli $r4, $r5, 16
        andi $r4, $r4, 255
        addi $r4, $r4, -128
        cvt.d.w $f1, $r4      ; cy
        s.d  $f1, 8($r2)
        mul  $r5, $r5, $r6
        addi $r5, $r5, 12345
        srli $r4, $r5, 16
        andi $r4, $r4, 255
        addi $r4, $r4, 64
        cvt.d.w $f1, $r4      ; cz in [64,319] (in front of the camera)
        s.d  $f1, 16($r2)
        mul  $r5, $r5, $r6
        addi $r5, $r5, 12345
        srli $r4, $r5, 16
        andi $r4, $r4, 31
        addi $r4, $r4, 8
        cvt.d.w $f1, $r4      ; radius in [8,39]
        s.d  $f1, 24($r2)
        addi $r2, $r2, 32
        addi $r1, $r1, -1
        bgtz $r1, sloop
        ; trace
        li   $r20, %d         ; rays remaining
        li   $r5, 24680       ; direction LCG
        li   $r16, 0          ; total hits
        sub.d $f20, $f20, $f20 ; nearest-metric accumulator
ray:    li   $r6, 1103515245
        mul  $r5, $r5, $r6
        addi $r5, $r5, 12345
        srli $r4, $r5, 16
        andi $r4, $r4, 63
        addi $r4, $r4, -32
        cvt.d.w $f1, $r4      ; dx in [-32,31]
        mul  $r5, $r5, $r6
        addi $r5, $r5, 12345
        srli $r4, $r5, 16
        andi $r4, $r4, 63
        addi $r4, $r4, -32
        cvt.d.w $f2, $r4      ; dy
        li   $r4, 64
        cvt.d.w $f3, $r4      ; dz = 64 (forward)
        ; a = d . d
        mul.d $f4, $f1, $f1
        mul.d $f5, $f2, $f2
        add.d $f4, $f4, $f5
        mul.d $f5, $f3, $f3
        add.d $f4, $f4, $f5   ; a
        li   $r21, 0x7FFF
        cvt.d.w $f21, $r21    ; nearest = large
        la   $r2, scene
        li   $r1, %d
sphere: l.d  $f6, 0($r2)      ; cx
        l.d  $f7, 8($r2)      ; cy
        l.d  $f8, 16($r2)     ; cz
        l.d  $f9, 24($r2)     ; r
        ; b = d . c ; c2 = c . c - r^2
        mul.d $f10, $f1, $f6
        mul.d $f11, $f2, $f7
        add.d $f10, $f10, $f11
        mul.d $f11, $f3, $f8
        add.d $f10, $f10, $f11 ; b
        mul.d $f11, $f6, $f6
        mul.d $f12, $f7, $f7
        add.d $f11, $f11, $f12
        mul.d $f12, $f8, $f8
        add.d $f11, $f11, $f12
        mul.d $f12, $f9, $f9
        sub.d $f11, $f11, $f12 ; c2
        ; disc = b*b - a*c2
        mul.d $f12, $f10, $f10
        mul.d $f13, $f4, $f11
        sub.d $f12, $f12, $f13
        sub.d $f14, $f14, $f14 ; zero
        c.lt.d $r7, $f14, $f12 ; disc > 0 ?
        beq  $r7, $r0, nohit
        c.lt.d $r7, $f14, $f10 ; and in front: b > 0
        beq  $r7, $r0, nohit
        addi $r16, $r16, 1
        div.d $f15, $f11, $f10 ; metric ~ c2/b (monotone in distance)
        c.lt.d $r7, $f15, $f21
        beq  $r7, $r0, nohit
        mov.d $f21, $f15       ; new nearest
nohit:  addi $r2, $r2, 32
        addi $r1, $r1, -1
        bgtz $r1, sphere
        add.d $f20, $f20, $f21
        addi $r20, $r20, -1
        bgtz $r20, ray
        out  $r16
        out.d $f20
        halt
`, spheres*32, spheres, rays, spheres)

	// Reference.
	type sph struct{ cx, cy, cz, r float64 }
	scene := make([]sph, spheres)
	u := uint32(31337)
	draw := func(mask uint32, off int32) float64 {
		u = lcg(u)
		return float64(int32((u>>16)&mask) + off)
	}
	for i := range scene {
		scene[i].cx = draw(255, -128)
		scene[i].cy = draw(255, -128)
		scene[i].cz = draw(255, 64)
		scene[i].r = draw(31, 8)
	}
	var hits uint32
	var acc float64
	q := uint32(24680)
	drawDir := func() float64 {
		q = lcg(q)
		return float64(int32((q>>16)&63) - 32)
	}
	for n := 0; n < rays; n++ {
		dx, dy, dz := drawDir(), drawDir(), 64.0
		// Each float64(x*y) rounds a product before it is added, as
		// mul.d does; Go may otherwise fuse the two (arm64 does).
		a := (float64(dx*dx) + float64(dy*dy)) + float64(dz*dz)
		nearest := float64(0x7FFF)
		for _, sp := range scene {
			b := (float64(dx*sp.cx) + float64(dy*sp.cy)) + float64(dz*sp.cz)
			c2 := (float64(sp.cx*sp.cx) + float64(sp.cy*sp.cy)) + float64(sp.cz*sp.cz) - float64(sp.r*sp.r)
			disc := float64(b*b) - float64(a*c2)
			if disc > 0 && b > 0 {
				hits++
				if m := c2 / b; m < nearest {
					nearest = m
				}
			}
		}
		acc += nearest
	}

	return &Workload{
		Name:        "RayTray",
		Suite:       "DIS",
		Description: "ray/sphere intersection sweep with FP discriminant tests",
		Source:      src,
		Expected:    []string{itoa(hits), ftoa(acc)},
		MaxInsts:    uint64(spheres*40+rays*(40+spheres*40)) + 10000,
	}
}
