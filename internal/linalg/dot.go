package linalg

import (
	"sync"

	"exaclim/internal/par"
)

// The package's dense products — Gemm in all four transpose cases, both
// forms of Syrk (and through it Potrf's trailing update) and LowerMulMat —
// run one blocked loop over one of two leaves:
//
//   - dot2x8 (amd64 assembly, float64, AVX): two rows of A against a panel
//     of eight rows of B, four lanes per instruction. B is packed into
//     panels first (packPanels, O(nk) against the product's O(mnk)).
//   - dot2x4 (Go, any element type): two rows of A against four rows of B,
//     eight scalar accumulators. Float32, CPUs without AVX, other GOARCHes
//     and products of fewer than panelRows rows run it.
//
// Both leaves read A as it is stored: a row pair's k-block is read in
// place or, where it is strided, gathered into a scratch pair. B is packed
// once per product: into panels for dot2x8 (packPanels), from either
// layout; for dot2x4, which reads B contiguous along the summed index,
// into a transposed copy (packTranspose) when it is stored the other way
// round.
//
// A third leaf serves the one-vector product y = L x of a VAR chain
// (LowerPanels.MulVec, matrix.go):
//
//   - dot1x16 (amd64 assembly, AVX): one vector against a panel of sixteen
//     rows of a lower-triangular L, packed once per run (PackLower) over
//     the columns all sixteen rows have. Where panels are off it is
//     LowerMulVec, four scalar rows at a time.
//
// Every output element owns exactly one accumulator, which takes its
// products in ascending summed index, each rounded before it is added
// (the assembly multiplies and adds; it never fuses the two), so a result
// does not depend on the leaf, the tile shape, the blocking constants or
// the worker count: it is bit-identical to the plain three-loop product.

const (
	// dotKC is the summed-index block. Between blocks the accumulators
	// go back to their target and are reloaded, which rounds nothing.
	dotKC = 256
	// dotNC is the block of B rows one pass of dotRows works through:
	// with a 64-row block of A, dotKC*(64+dotNC) elements stay in L2.
	dotNC = 64
	// panelRows is the fewest rows of A a product needs to run on the
	// panel leaf. Packing B costs O(nk), the product O(mnk), and dot2x4
	// takes A's rows in pairs, so the break-even lies between one row pair
	// and two. Gemm(NoTrans, Transpose) at k = 4096 against 8, 16 and 64
	// rows of B (2-vCPU Xeon, -cpu 1): two rows of A take 21, 43 and
	// 177-193 us on dot2x4 and 24, 48 and 257-266 us packed; three take
	// 42, 83-100 and 388-475 us on dot2x4 and 29, 59-66 and 328-376 us
	// packed.
	panelRows = 3
)

// usePanel selects dot2x8 for float64 products of panelRows rows or more,
// and dot1x16 (a packed factor) for PackLower. It is the CPU's answer
// (panelSupported); tests switch it off to run the dot2x4 and LowerMulVec
// paths on the same inputs.
var usePanel = panelSupported

// panelLeaf reports whether a product whose A has rows rows runs on
// dot2x8: T is float64, the CPU has AVX and rows reaches panelRows.
func panelLeaf[T Float](rows int) bool {
	var zero T
	_, f64 := any(zero).(float64)
	return f64 && usePanel && rows >= panelRows
}

// panelTile runs dot2x8 on a generic caller's operands, which are float64
// wherever panelLeaf let it be reached. It slices a1 and pb to the lengths
// the assembly reads, so a short operand panics here.
func panelTile[T Float](a0, a1, pb []T, acc *[16]T) {
	k := len(a0)
	a1, pb = a1[:k], pb[:8*k]
	dot2x8(any(a0).([]float64), any(a1).([]float64), any(pb).([]float64), any(acc).(*[16]float64))
}

// dot2x4 adds the 2 x 4 tile of dot products to acc:
//
//	acc[4r+s] += sum_p a_r[p] * b_s[p],  r in {0,1}, s in {0..3},
//
// p ascending, one accumulator per element. All six rows have len(a0)
// elements. Eight accumulators and the six operands fit the sixteen
// scalar floating-point registers of amd64; a wider tile keeps its sums in
// memory, a narrower one loads more operands per product. Callers with
// fewer than two rows or four columns pass a valid row again and ignore
// its sums.
func dot2x4[T Float](a0, a1, b0, b1, b2, b3 []T, acc *[8]T) {
	k := len(a0)
	a1, b0, b1, b2, b3 = a1[:k], b0[:k], b1[:k], b2[:k], b3[:k]
	c00, c01, c02, c03 := acc[0], acc[1], acc[2], acc[3]
	c10, c11, c12, c13 := acc[4], acc[5], acc[6], acc[7]
	for p, x0 := range a0 {
		x1 := a1[p]
		y0, y1, y2, y3 := b0[p], b1[p], b2[p], b3[p]
		c00 += x0 * y0
		c01 += x0 * y1
		c02 += x0 * y2
		c03 += x0 * y3
		c10 += x1 * y0
		c11 += x1 * y1
		c12 += x1 * y2
		c13 += x1 * y3
	}
	acc[0], acc[1], acc[2], acc[3] = c00, c01, c02, c03
	acc[4], acc[5], acc[6], acc[7] = c10, c11, c12, c13
}

// product is the body of Gemm and Syrk: it updates the m x n matrix C
// with beta and the product op(A) op(B), in Gemm's conventions for a, lda,
// tA, b, ldb and tB (Syrk passes its A twice, with tB = !tA). lower and
// sumFirst are dotRows'. It picks the leaf from the shape (panelLeaf) and
// packs B for it: into panels for dot2x8, contiguous along k for dot2x4.
// A is read as it is stored. Then it sweeps 64-row blocks of C in
// parallel.
func product[T Float](m, n, k int, alpha T, a []T, lda int, tA Trans, b []T, ldb int, tB Trans, beta T, c []T, ldc int, lower, sumFirst bool) {
	panel := panelLeaf[T](m)
	if panel {
		buf := packPool.Get().(*[]float64)
		defer putPack(buf)
		b = packPanels(any(buf).(*[]T), b, ldb, tB, n, k)
	} else if tB == NoTrans {
		b, ldb = packTranspose(b, ldb, k, n), k
	}
	par.ForBlocks(0, m, blockSize, func(lo, hi int) {
		scaleRows(beta, c, ldc, lo, hi, n, lower)
		dotRows(lo, hi, n, k, alpha, a, lda, tA, b, ldb, c, ldc, lower, sumFirst, panel)
	})
}

// dotRows updates rows [lo, hi) of the m x n matrix C with the product of
// A (m x k, or stored k x m with tA == Transpose) and B (n x k), row-major,
// B contiguous along k:
//
//	C[i][j] += sum_p (alpha*A[i][p]) * B[j][p]
//
// added product by product onto C[i][j] in ascending p. With sumFirst the
// sum is instead formed from zero and added once, C[i][j] += alpha*sum,
// the order of the retired Syrk(NoTrans) loop. With lower only j <= i is
// read or written. With panel, b holds B in packPanels' layout (ldb is
// not read) and the tiles are dot2x8's; otherwise they are dot2x4's. The
// loops are blocked over j and k so a panel of each operand stays cached
// while the tiles sweep it.
func dotRows[T Float](lo, hi, n, k int, alpha T, a []T, lda int, tA Trans, b []T, ldb int, c []T, ldc int, lower, sumFirst, panel bool) {
	if lower {
		n = min(n, hi)
	}
	// w is the tile's width: the B rows one tile takes, and where the
	// second A row's sums start in acc.
	w := 4
	if panel {
		w = 8
	}
	// t is where tiles accumulate: C itself, or a block of partial sums
	// whose element (i, j) sits at sums[(i-lo)*dotNC+j-j0].
	t, ldt := c, ldc
	var sums []T
	if sumFirst {
		sums = make([]T, (hi-lo)*dotNC)
		t, ldt = sums, dotNC
	}
	// The tile multiplies a*b; where the product is (alpha*a)*b, or A is
	// stored the other way round, a row pair's k-block is gathered (and
	// scaled) into here once and reused across its tiles. A's element
	// (i, p) is a[i*ars+p*acs].
	var scaled [2][dotKC]T
	scale := !sumFirst && alpha != 1
	ars, acs := lda, 1
	if tA == Transpose {
		ars, acs = 1, lda
	}
	for j0 := 0; j0 < n; j0 += dotNC {
		j1 := min(j0+dotNC, n)
		toff := 0
		if sumFirst {
			clear(sums)
			toff = lo*dotNC + j0
		}
		for p0 := 0; p0 < k; p0 += dotKC {
			p1 := min(p0+dotKC, k)
			for i := lo; i < hi; i += 2 {
				// Row i keeps columns below lim0, row i+1 below lim1; a
				// last odd row is passed twice and its second sums dropped.
				lim0, lim1, i1 := j1, j1, i+1
				if lower {
					lim0, lim1 = min(j1, i+1), min(j1, i+2)
				}
				if i1 == hi {
					lim1, i1 = 0, i
				}
				jEnd := max(lim0, lim1)
				var a0, a1 []T
				if tA == NoTrans && !scale {
					a0, a1 = a[i*lda+p0:i*lda+p1], a[i1*lda+p0:i1*lda+p1]
				} else {
					a0, a1 = scaled[0][:p1-p0], scaled[1][:p1-p0]
					for p := range a0 {
						v0, v1 := a[i*ars+(p0+p)*acs], a[i1*ars+(p0+p)*acs]
						if scale {
							v0, v1 = alpha*v0, alpha*v1
						}
						a0[p], a1[p] = v0, v1
					}
				}
				for j := j0; j < jEnd; j += w {
					w0 := min(w, max(0, lim0-j))
					w1 := min(w, max(0, lim1-j))
					t0 := t[i*ldt+j-toff:]
					t1 := t[i1*ldt+j-toff:]
					var acc [16]T
					copy(acc[:w], t0[:w0])
					copy(acc[w:], t1[:w1])
					if panel {
						// The panel of rows j..j+7 starts at j*k.
						panelTile(a0, a1, b[j*k+8*p0:j*k+8*p1], &acc)
					} else {
						// Rows past the tile's last column repeat row j.
						b0 := b[j*ldb+p0 : j*ldb+p1]
						b1, b2, b3 := b0, b0, b0
						if j+1 < jEnd {
							b1 = b[(j+1)*ldb+p0 : (j+1)*ldb+p1]
						}
						if j+2 < jEnd {
							b2 = b[(j+2)*ldb+p0 : (j+2)*ldb+p1]
						}
						if j+3 < jEnd {
							b3 = b[(j+3)*ldb+p0 : (j+3)*ldb+p1]
						}
						dot2x4(a0, a1, b0, b1, b2, b3, (*[8]T)(acc[:8]))
					}
					copy(t0[:w0], acc[:w])
					copy(t1[:w1], acc[w:])
				}
			}
		}
		if sumFirst {
			for i := lo; i < hi; i++ {
				je := j1
				if lower {
					je = min(j1, i+1)
				}
				si := sums[(i-lo)*dotNC:]
				for j := j0; j < je; j++ {
					c[i*ldc+j] += alpha * si[j-j0]
				}
			}
		}
	}
}

// packPool keeps the packed operands of the float64 products between
// calls: B's panels, LowerMulMat's right-hand side in either leaf's
// layout, and a one-chain run's factor (PackLower). A generation step or
// run, an mpchol tile update or a served block of steps would otherwise
// allocate one per call.
var packPool = sync.Pool{New: func() any { return new([]float64) }}

// maxPooledPack is the largest buffer (in float64s) putPack returns to
// packPool: a 256-row block of evaluator weights at L = 64. A larger one,
// such as eq. 9's 12 MB covariance pack at L = 32, comes from a product
// run once per training; pooled, it stayed resident for the rest of the
// process, one per concurrent caller.
const maxPooledPack = 1 << 20

// putPack returns buf to packPool unless it outgrew maxPooledPack.
func putPack(buf *[]float64) {
	if cap(*buf) <= maxPooledPack {
		packPool.Put(buf)
	}
}

// packPanels writes the n x k operand B into *dst (grown as needed) as
// panels of eight rows interleaved along k, and returns the packed slice:
// element p of row j lands at (j/8)*8k + 8p + j%8. Row j of B is
// b[j*ldb : j*ldb+k] with tB == Transpose; with NoTrans B is stored k x n
// and row j is column j. The lanes a last panel has no row for hold zeros
// (NoTrans) or repeat its last row (Transpose); no sum of theirs is kept.
// An 8-column NoTrans B with ldb == 8 already is its one panel and is
// returned as it is.
func packPanels[T Float](dst *[]T, b []T, ldb int, tB Trans, n, k int) []T {
	if tB == NoTrans && n == 8 && ldb == 8 {
		return b[:8*k]
	}
	np := (n + 7) / 8
	if cap(*dst) < np*8*k {
		*dst = make([]T, np*8*k)
	}
	out := (*dst)[:np*8*k]
	// Eight panels (64 rows of B) per worker block.
	par.ForBlocks(0, np, 8, func(lo, hi int) {
		for q := lo; q < hi; q++ {
			pq := out[q*8*k : (q+1)*8*k]
			j := 8 * q
			w := min(8, n-j)
			if tB == NoTrans {
				if w < 8 {
					clear(pq)
				}
				for p := 0; p < k; p++ {
					copy(pq[8*p:8*p+w], b[p*ldb+j:p*ldb+j+w])
				}
				continue
			}
			// Eight rows read side by side, the panel written in order.
			var r [8][]T
			for s := range r {
				js := j + min(s, w-1)
				r[s] = b[js*ldb : js*ldb+k]
			}
			r0, r1, r2, r3 := r[0][:k], r[1][:k], r[2][:k], r[3][:k]
			r4, r5, r6, r7 := r[4][:k], r[5][:k], r[6][:k], r[7][:k]
			for p := range r0 {
				d := pq[8*p : 8*p+8 : 8*p+8]
				d[0], d[1], d[2], d[3] = r0[p], r1[p], r2[p], r3[p]
				d[4], d[5], d[6], d[7] = r4[p], r5[p], r6[p], r7[p]
			}
		}
	})
	return out
}

// scaleRows applies C = beta*C to columns [0, n) of rows [lo, hi), or to
// columns [0, i] of row i with lower. beta == 0 stores zeros, so whatever
// C held, NaN included, is overwritten rather than scaled.
func scaleRows[T Float](beta T, c []T, ldc, lo, hi, n int, lower bool) {
	if beta == 1 {
		return
	}
	for i := lo; i < hi; i++ {
		w := n
		if lower {
			w = i + 1
		}
		ci := c[i*ldc : i*ldc+w]
		if beta == 0 {
			clear(ci)
			continue
		}
		for j := range ci {
			ci[j] *= beta
		}
	}
}

// packTranspose returns the rows x cols matrix src (leading dimension ld)
// transposed into a fresh cols x rows slice with leading dimension rows,
// so what was a strided column walk becomes a contiguous row.
func packTranspose[T Float](src []T, ld, rows, cols int) []T {
	dst := make([]T, rows*cols)
	transposeInto(dst, src, ld, rows, cols)
	return dst
}

// transposeInto writes the transpose of the rows x cols matrix src into
// dst (cols x rows, leading dimension rows). Destination rows are split
// over workers, and within a worker source rows are taken in bands so
// that a band of source cache lines is reused across the destination rows
// it feeds.
func transposeInto[T Float](dst, src []T, ld, rows, cols int) {
	par.ForBlocks(0, cols, blockSize, func(lo, hi int) {
		for r0 := 0; r0 < rows; r0 += blockSize {
			r1 := min(r0+blockSize, rows)
			for j := lo; j < hi; j++ {
				d := dst[j*rows : j*rows+rows]
				for r := r0; r < r1; r++ {
					d[r] = src[r*ld+j]
				}
			}
		}
	})
}
