package workloads

// Matrix is the DIS Matrix Stressmark kernel: repeated sparse
// matrix-vector products in CSR form (the heart of the stressmark's
// conjugate-gradient solver). The gather x[col[j]] is an indirect
// access whose index stream is itself a strided load — the classic
// two-level pattern where the CMAS loads the column indices (value
// needed) and prefetches the gathered elements.
//
// Matrix and CornerTurn complete the seven-member DIS Stressmark
// suite; the paper's figures plot the other five, so these two are
// exercised by the test suite and the tools but not by the Figure 8/9
// harness.
func Matrix(s Scale) *Workload {
	rows, nnzPerRow, iters := 2048, 8, 6
	if s == ScaleTest {
		rows, nnzPerRow, iters = 128, 4, 2
	}
	nnz := rows * nnzPerRow
	src := fmtSrc(`
        .data
colidx: .space %d             ; nnz column indices (words)
vals:   .space %d             ; nnz values (doubles)
x:      .space %d             ; rows doubles
y:      .space %d
        .text
main:   la   $r2, colidx      ; synthesise the sparse structure
        la   $r3, vals
        li   $r1, %d
        li   $r5, 2025
fillnz: li   $r6, 1103515245
        mul  $r5, $r5, $r6
        addi $r5, $r5, 12345
        srli $r4, $r5, 8
        andi $r4, $r4, %d     ; column in [0, rows)
        sw   $r4, 0($r2)
        andi $r7, $r5, 15
        addi $r7, $r7, 1
        cvt.d.w $f1, $r7      ; value in [1,16]
        s.d  $f1, 0($r3)
        addi $r2, $r2, 4
        addi $r3, $r3, 8
        addi $r1, $r1, -1
        bgtz $r1, fillnz
        la   $r2, x           ; x[i] = 1.0
        li   $r1, %d
        li   $r7, 1
        cvt.d.w $f1, $r7
fillx:  s.d  $f1, 0($r2)
        addi $r2, $r2, 8
        addi $r1, $r1, -1
        bgtz $r1, fillx
        ; repeated y = A*x ; x = y * 0.001
        li   $r30, %d         ; iterations
        li   $r7, 1000
        cvt.d.w $f20, $r7
iter:   la   $r10, colidx
        la   $r11, vals
        la   $r13, y
        li   $r20, %d         ; row counter
row:    sub.d $f4, $f4, $f4   ; acc = 0
        li   $r21, %d         ; nnz per row
nzl:    lw   $r4, 0($r10)     ; column index (CMAS chases this)
        slli $r4, $r4, 3
        la   $r12, x
        add  $r4, $r12, $r4
        l.d  $f1, 0($r4)      ; gather x[col]
        l.d  $f2, 0($r11)     ; value
        mul.d $f3, $f1, $f2
        add.d $f4, $f4, $f3
        addi $r10, $r10, 4
        addi $r11, $r11, 8
        addi $r21, $r21, -1
        bgtz $r21, nzl
        s.d  $f4, 0($r13)     ; y[row]
        addi $r13, $r13, 8
        addi $r20, $r20, -1
        bgtz $r20, row
        ; x = y / 1000 (keeps magnitudes bounded)
        la   $r12, x
        la   $r13, y
        li   $r20, %d
scale:  l.d  $f1, 0($r13)
        div.d $f1, $f1, $f20
        s.d  $f1, 0($r12)
        addi $r12, $r12, 8
        addi $r13, $r13, 8
        addi $r20, $r20, -1
        bgtz $r20, scale
        addi $r30, $r30, -1
        bgtz $r30, iter
        ; checksum: sum of y
        la   $r13, y
        li   $r20, %d
        sub.d $f10, $f10, $f10
sum:    l.d  $f1, 0($r13)
        add.d $f10, $f10, $f1
        addi $r13, $r13, 8
        addi $r20, $r20, -1
        bgtz $r20, sum
        out.d $f10
        halt
`, nnz*4, nnz*8, rows*8, rows*8,
		nnz, rows-1, rows, iters, rows, nnzPerRow, rows, rows)

	// Reference.
	col := make([]int, nnz)
	val := make([]float64, nnz)
	u := uint32(2025)
	for i := 0; i < nnz; i++ {
		u = lcg(u)
		col[i] = int((u >> 8) & uint32(rows-1))
		val[i] = float64(u&15 + 1)
	}
	x := make([]float64, rows)
	y := make([]float64, rows)
	for i := range x {
		x[i] = 1.0
	}
	for it := 0; it < iters; it++ {
		k := 0
		for r := 0; r < rows; r++ {
			acc := 0.0
			for j := 0; j < nnzPerRow; j++ {
				// float64 rounds the product before the add, as
				// mul.d does; Go may otherwise fuse the two (arm64 does).
				acc += float64(x[col[k]] * val[k])
				k++
			}
			y[r] = acc
		}
		for i := range x {
			x[i] = y[i] / 1000.0
		}
	}
	var sum float64
	for _, v := range y {
		sum += v
	}

	return &Workload{
		Name:        "Matrix",
		Suite:       "Stressmark",
		Description: "repeated CSR sparse matrix-vector products with indirect gathers",
		Source:      src,
		Expected:    []string{ftoa(sum)},
		MaxInsts:    uint64(nnz*16+rows*8) + uint64(iters)*uint64(nnz*16+rows*14) + 10000,
	}
}

// CornerTurn is the DIS Corner-Turn Stressmark kernel: repeated matrix
// transposes. Reads stream row-major while writes stride a full row —
// the transpose direction's write misses dominate and are strided, so
// the CMAS covers them with distance prefetching.
func CornerTurn(s Scale) *Workload {
	n, passes := 256, 2
	if s == ScaleTest {
		n, passes = 32, 2
	}
	src := fmtSrc(`
        .data
a:      .space %d             ; n*n words
b:      .space %d
        .text
main:   la   $r2, a           ; synthesise A
        li   $r1, %d
        li   $r5, 555
fill:   li   $r6, 1103515245
        mul  $r5, $r5, $r6
        addi $r5, $r5, 12345
        srli $r4, $r5, 12
        sw   $r4, 0($r2)
        addi $r2, $r2, 4
        addi $r1, $r1, -1
        bgtz $r1, fill
        li   $r30, %d         ; passes: B = A^T, then A = B^T
pass:   li   $r20, 0          ; i
iloop:  li   $r21, 0          ; j
        li   $r6, %d
        mul  $r7, $r20, $r6
        slli $r7, $r7, 2
        la   $r8, a
        add  $r8, $r8, $r7    ; &A[i][0]
        slli $r9, $r20, 2
        la   $r10, b
        add  $r9, $r10, $r9   ; &B[0][i]
jloop:  lw   $r4, 0($r8)      ; A[i][j], streaming read
        sw   $r4, 0($r9)      ; B[j][i], strided write (CMAS target)
        addi $r8, $r8, 4
        addi $r9, $r9, %d     ; n*4
        addi $r21, $r21, 1
        slti $r7, $r21, %d
        bne  $r7, $r0, jloop
        addi $r20, $r20, 1
        slti $r7, $r20, %d
        bne  $r7, $r0, iloop
        ; swap roles: copy B back into A (stream copy)
        la   $r8, b
        la   $r9, a
        li   $r1, %d
copy:   lw   $r4, 0($r8)
        sw   $r4, 0($r9)
        addi $r8, $r8, 4
        addi $r9, $r9, 4
        addi $r1, $r1, -1
        bgtz $r1, copy
        addi $r30, $r30, -1
        bgtz $r30, pass
        ; checksum the diagonal and a row
        la   $r8, a
        li   $r20, 0
        li   $r16, 0
diag:   li   $r6, %d
        mul  $r7, $r20, $r6
        add  $r7, $r7, $r20
        slli $r7, $r7, 2
        la   $r9, a
        add  $r7, $r9, $r7
        lw   $r4, 0($r7)
        add  $r16, $r16, $r4
        addi $r20, $r20, 1
        slti $r7, $r20, %d
        bne  $r7, $r0, diag
        out  $r16
        halt
`, n*n*4, n*n*4, n*n, passes, n, n*4, n, n, n*n, n, n)

	// Reference.
	a := make([]uint32, n*n)
	u := uint32(555)
	for i := range a {
		u = lcg(u)
		a[i] = u >> 12
	}
	b := make([]uint32, n*n)
	for p := 0; p < passes; p++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				b[j*n+i] = a[i*n+j]
			}
		}
		copy(a, b)
	}
	var sum uint32
	for i := 0; i < n; i++ {
		sum += a[i*n+i]
	}

	return &Workload{
		Name:        "CornerTurn",
		Suite:       "Stressmark",
		Description: "repeated matrix transposes: streaming reads against strided writes",
		Source:      src,
		Expected:    []string{itoa(sum)},
		MaxInsts:    uint64(n*n*10) + uint64(passes)*uint64(n*n*20) + 10000,
	}
}
