package linalg

import "exaclim/internal/par"

// The package's dense products — Gemm in all four transpose cases, both
// forms of Syrk (and through it Potrf's trailing update) and LowerMulMat —
// are one loop: dot2x4, a 2 x 4 register tile over two operands that are
// both contiguous along the summed index. Whichever operand is stored the
// other way round is packed into a transposed copy first (packTranspose,
// O(mk + nk) against the product's O(mnk)).
//
// Every output element owns exactly one accumulator, which takes its
// products in ascending summed index, so a result does not depend on the
// tile shape, the blocking constants or the worker count: it is
// bit-identical to the plain three-loop product.

const (
	// dotKC is the summed-index block. Between blocks the accumulators
	// go back to their target and are reloaded, which rounds nothing.
	dotKC = 256
	// dotNC is the block of B rows one pass of dotRows works through:
	// with a 64-row block of A, dotKC*(64+dotNC) elements stay in L2.
	dotNC = 64
)

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

// dotRows updates rows [lo, hi) of the m x n matrix C with the product of
// A (m x k) and B (n x k), both row-major and contiguous along k:
//
//	C[i][j] += sum_p (alpha*A[i][p]) * B[j][p]
//
// added product by product onto C[i][j] in ascending p. With sumFirst the
// sum is instead formed from zero and added once, C[i][j] += alpha*sum,
// the order of the retired Syrk(NoTrans) loop. With lower only j <= i is
// read or written. The loops are blocked over j and k so a panel of each
// operand stays cached while the tiles sweep it.
func dotRows[T Float](lo, hi, n, k int, alpha T, a []T, lda int, b []T, ldb int, c []T, ldc int, lower, sumFirst bool) {
	if lower {
		n = min(n, hi)
	}
	// t is where tiles accumulate: C itself, or a block of partial sums
	// whose element (i, j) sits at sums[(i-lo)*dotNC+j-j0].
	t, ldt := c, ldc
	var sums []T
	if sumFirst {
		sums = make([]T, (hi-lo)*dotNC)
		t, ldt = sums, dotNC
	}
	// The tile multiplies a*b; where the product is (alpha*a)*b, a row
	// pair's k-block is scaled into here once and reused across its tiles.
	var scaled [2][dotKC]T
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
				a0 := a[i*lda+p0 : i*lda+p1]
				a1 := a[i1*lda+p0 : i1*lda+p1]
				if !sumFirst && alpha != 1 {
					for p, v := range a0 {
						scaled[0][p] = alpha * v
					}
					for p, v := range a1 {
						scaled[1][p] = alpha * v
					}
					a0, a1 = scaled[0][:p1-p0], scaled[1][:p1-p0]
				}
				for j := j0; j < jEnd; j += 4 {
					w0 := min(4, max(0, lim0-j))
					w1 := min(4, max(0, lim1-j))
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
					t0 := t[i*ldt+j-toff:]
					t1 := t[i1*ldt+j-toff:]
					var acc [8]T
					copy(acc[:4], t0[:w0])
					copy(acc[4:], t1[:w1])
					dot2x4(a0, a1, b0, b1, b2, b3, &acc)
					copy(t0[:w0], acc[:4])
					copy(t1[:w1], acc[4:])
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
