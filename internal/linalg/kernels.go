// Package linalg provides the dense linear-algebra kernels under the
// emulator: BLAS-3 style GEMM/SYRK/TRSM, blocked Cholesky factorization
// (POTRF), and triangular solves, generic over float32 and float64 so the
// same code serves the double- and single-precision tiles of the
// mixed-precision solver. Kernels are cache-blocked and parallelized over
// independent output regions, which keeps parallel execution bitwise
// deterministic.
//
// The slice-based API mirrors BLAS conventions: matrices are row-major
// with an explicit leading dimension (stride between rows).
package linalg

import (
	"errors"
	"fmt"
	"math"

	"exaclim/internal/par"
)

// Float constrains the kernel element types.
type Float interface {
	~float32 | ~float64
}

// Trans selects op(X) = X or X^T.
type Trans bool

const (
	// NoTrans uses the matrix as stored.
	NoTrans Trans = false
	// Transpose uses the transpose of the stored matrix.
	Transpose Trans = true
)

// ErrNotPositiveDefinite is returned by Potrf when a leading minor is not
// positive definite (the paper handles this by adding a diagonal
// perturbation to the empirical covariance, see varm.Jitter).
var ErrNotPositiveDefinite = errors.New("linalg: matrix is not positive definite")

// blockSize is the cache block edge for GEMM-like kernels; 64x64 float64
// panels (32 KiB) fit comfortably in L1/L2 on commodity cores.
const blockSize = 64

// Gemm computes C = alpha*op(A)*op(B) + beta*C for row-major matrices,
// where op(A) is m x k and op(B) is k x n. It parallelizes over row
// blocks of C. Each element is beta*C[i][j] (zero when beta is zero) plus
// the products (alpha*a)*b added one at a time in ascending summed index.
// No product is skipped, so a NaN or Inf in one operand reaches C even
// opposite an exact zero in the other, as IEEE 754 has it.
func Gemm[T Float](tA, tB Trans, m, n, k int, alpha T, a []T, lda int, b []T, ldb int, beta T, c []T, ldc int) {
	if m == 0 || n == 0 {
		return
	}
	checkDims(tA, tB, m, n, k, len(a), lda, len(b), ldb, len(c), ldc)
	product(m, n, k, alpha, a, lda, tA, b, ldb, tB, beta, c, ldc, false, false)
}

func checkDims(tA, tB Trans, m, n, k, la, lda, lb, ldb, lc, ldc int) {
	arows, acols := m, k
	if tA == Transpose {
		arows, acols = k, m
	}
	brows, bcols := k, n
	if tB == Transpose {
		brows, bcols = n, k
	}
	if lda < acols || ldb < bcols || ldc < n {
		panic(fmt.Sprintf("linalg: bad leading dimensions (lda=%d need>=%d, ldb=%d need>=%d, ldc=%d need>=%d)", lda, acols, ldb, bcols, ldc, n))
	}
	if la < (arows-1)*lda+acols || lb < (brows-1)*ldb+bcols || lc < (m-1)*ldc+n {
		panic("linalg: slice too short for declared dimensions")
	}
}

// Syrk computes the lower triangle of C = alpha*A*A^T + beta*C (when
// trans is NoTrans, A is n x k) or C = alpha*A^T*A + beta*C (when trans
// is Transpose, A is k x n). Only the lower triangle of C is referenced
// and updated, matching its use for covariance accumulation (eq. 9) and
// the trailing updates of Potrf and the tile Cholesky. The two forms
// round differently, as they always have: Transpose adds (alpha*a)*a onto
// beta*C product by product, NoTrans forms each sum from zero and adds
// alpha*sum once. Like Gemm, it skips no product: non-finite entries of A
// propagate to C.
func Syrk[T Float](trans Trans, n, k int, alpha T, a []T, lda int, beta T, c []T, ldc int) {
	if n == 0 {
		return
	}
	// The shapes of the Gemm this is, with A in both operand places.
	checkDims(trans, !trans, n, n, k, len(a), lda, len(a), lda, len(c), ldc)
	product(n, n, k, alpha, a, lda, trans, a, lda, !trans, beta, c, ldc, true, trans == NoTrans)
}

// TrsmRightLowerTrans solves X * L^T = alpha * B for X, overwriting B,
// where L is n x n lower triangular and B is m x n. This is the TRSM of
// the tile Cholesky panel update: rows are independent, so the kernel
// parallelizes over them.
func TrsmRightLowerTrans[T Float](m, n int, alpha T, l []T, ldl int, b []T, ldb int) {
	par.ForBlocks(0, m, blockSize, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			bi := b[i*ldb : i*ldb+n]
			if alpha != 1 {
				for j := range bi {
					bi[j] *= alpha
				}
			}
			for j := 0; j < n; j++ {
				lj := l[j*ldl : j*ldl+j]
				v := bi[j]
				for p, lv := range lj {
					v -= bi[p] * lv
				}
				bi[j] = v / l[j*ldl+j]
			}
		}
	})
}

// TrsmLeftLowerNoTrans solves L * X = alpha * B for X, overwriting B,
// where L is m x m lower triangular and B is m x n: forward substitution
// on every column, parallelized over column blocks.
func TrsmLeftLowerNoTrans[T Float](m, n int, alpha T, l []T, ldl int, b []T, ldb int) {
	par.ForBlocks(0, n, blockSize, func(lo, hi int) {
		for i := 0; i < m; i++ {
			bi := b[i*ldb : i*ldb+n]
			if alpha != 1 {
				for j := lo; j < hi; j++ {
					bi[j] *= alpha
				}
			}
			li := l[i*ldl : i*ldl+i]
			for p, lv := range li {
				if lv == 0 {
					continue
				}
				bp := b[p*ldb : p*ldb+n]
				for j := lo; j < hi; j++ {
					bi[j] -= lv * bp[j]
				}
			}
			inv := 1 / l[i*ldl+i]
			for j := lo; j < hi; j++ {
				bi[j] *= inv
			}
		}
	})
}

// TrsmLeftLowerTrans solves L^T * X = alpha * B for X, overwriting B
// (back substitution), used by the Cholesky linear solver.
func TrsmLeftLowerTrans[T Float](m, n int, alpha T, l []T, ldl int, b []T, ldb int) {
	par.ForBlocks(0, n, blockSize, func(lo, hi int) {
		for i := m - 1; i >= 0; i-- {
			bi := b[i*ldb : i*ldb+n]
			if alpha != 1 {
				for j := lo; j < hi; j++ {
					bi[j] *= alpha
				}
			}
			for p := i + 1; p < m; p++ {
				lv := l[p*ldl+i]
				if lv == 0 {
					continue
				}
				bp := b[p*ldb : p*ldb+n]
				for j := lo; j < hi; j++ {
					bi[j] -= lv * bp[j]
				}
			}
			inv := 1 / l[i*ldl+i]
			for j := lo; j < hi; j++ {
				bi[j] *= inv
			}
		}
	})
}

// potrfUnblocked factors the leading n x n block in place (lower
// Cholesky) without blocking; used for panels.
func potrfUnblocked[T Float](n int, a []T, lda int) error {
	for j := 0; j < n; j++ {
		d := a[j*lda+j]
		row := a[j*lda : j*lda+j]
		for _, v := range row {
			d -= v * v
		}
		if d <= 0 || math.IsNaN(float64(d)) {
			return fmt.Errorf("%w (leading minor %d, pivot %g)", ErrNotPositiveDefinite, j+1, float64(d))
		}
		sq := T(math.Sqrt(float64(d)))
		a[j*lda+j] = sq
		inv := 1 / sq
		for i := j + 1; i < n; i++ {
			v := a[i*lda+j]
			ai := a[i*lda : i*lda+j]
			for p, rv := range row {
				v -= ai[p] * rv
			}
			a[i*lda+j] = v * inv
		}
	}
	return nil
}

// Potrf computes the lower Cholesky factor of the symmetric positive
// definite n x n matrix in place (only the lower triangle is referenced;
// the strict upper triangle is left untouched). The blocked right-looking
// algorithm mirrors the tile solver: panel POTRF, TRSM below the panel,
// SYRK/GEMM trailing update.
func Potrf[T Float](n int, a []T, lda int) error {
	const nb = blockSize
	for j := 0; j < n; j += nb {
		jb := nb
		if j+jb > n {
			jb = n - j
		}
		if err := potrfUnblocked(jb, a[j*lda+j:], lda); err != nil {
			return fmt.Errorf("block at %d: %w", j, err)
		}
		if j+jb < n {
			rows := n - j - jb
			// A[j+jb:, j:j+jb] = A[j+jb:, j:j+jb] * L^-T
			TrsmRightLowerTrans(rows, jb, T(1), a[j*lda+j:], lda, a[(j+jb)*lda+j:], lda)
			// Trailing update A22 -= L21 * L21^T (lower only).
			Syrk(NoTrans, rows, jb, T(-1), a[(j+jb)*lda+j:], lda, T(1), a[(j+jb)*lda+j+jb:], lda)
		}
	}
	return nil
}

// CholSolve solves A x = b given the lower Cholesky factor L of A,
// overwriting b with the solution.
func CholSolve[T Float](n int, l []T, ldl int, b []T) {
	TrsmLeftLowerNoTrans(n, 1, T(1), l, ldl, b, 1)
	TrsmLeftLowerTrans(n, 1, T(1), l, ldl, b, 1)
}

// Dot returns the inner product of two vectors.
func Dot[T Float](x, y []T) T {
	var sum T
	for i, v := range x {
		sum += v * y[i]
	}
	return sum
}

// Axpy computes y += alpha*x.
func Axpy[T Float](alpha T, x, y []T) {
	for i, v := range x {
		y[i] += alpha * v
	}
}

// Nrm2 returns the Euclidean norm of x, with scaling to avoid overflow.
func Nrm2[T Float](x []T) T {
	var scale, ssq float64 = 0, 1
	for _, v := range x {
		f := math.Abs(float64(v))
		if f == 0 {
			continue
		}
		if scale < f {
			r := scale / f
			ssq = 1 + ssq*r*r
			scale = f
		} else {
			r := f / scale
			ssq += r * r
		}
	}
	return T(scale * math.Sqrt(ssq))
}

// MatVec computes y = alpha*op(A)x + beta*y for a row-major m x n matrix.
func MatVec[T Float](tA Trans, m, n int, alpha T, a []T, lda int, x []T, beta T, y []T) {
	if tA == NoTrans {
		for i := 0; i < m; i++ {
			sum := Dot(a[i*lda:i*lda+n], x)
			if beta == 0 {
				y[i] = alpha * sum
			} else {
				y[i] = beta*y[i] + alpha*sum
			}
		}
		return
	}
	if beta == 0 {
		for j := 0; j < n; j++ {
			y[j] = 0
		}
	} else if beta != 1 {
		for j := 0; j < n; j++ {
			y[j] *= beta
		}
	}
	for i := 0; i < m; i++ {
		av := alpha * x[i]
		if av == 0 {
			continue
		}
		Axpy(av, a[i*lda:i*lda+n], y)
	}
}
