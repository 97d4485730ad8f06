package linalg

import (
	"fmt"
	"math"
	"math/rand"

	"exaclim/internal/par"
)

// Matrix is a dense row-major float64 matrix. It is the convenience layer
// the statistical modules use; performance-critical code calls the slice
// kernels directly.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, stride Cols
}

// NewMatrix allocates a zero matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: invalid dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Eye returns the n x n identity.
func Eye(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice view.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Copy returns a deep copy.
func (m *Matrix) Copy() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// T returns a newly allocated transpose.
func (m *Matrix) T() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Data[j*m.Rows+i] = m.Data[i*m.Cols+j]
		}
	}
	return out
}

// Mul sets m = a*b and returns m (which must be a.Rows x b.Cols).
func (m *Matrix) Mul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows || m.Rows != a.Rows || m.Cols != b.Cols {
		panic(fmt.Sprintf("linalg: Mul dimension mismatch %dx%d * %dx%d -> %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, m.Rows, m.Cols))
	}
	Gemm(NoTrans, NoTrans, a.Rows, b.Cols, a.Cols, 1.0, a.Data, a.Cols, b.Data, b.Cols, 0.0, m.Data, m.Cols)
	return m
}

// AddScaled computes m += alpha*other elementwise.
func (m *Matrix) AddScaled(alpha float64, other *Matrix) *Matrix {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		panic("linalg: AddScaled dimension mismatch")
	}
	Axpy(alpha, other.Data, m.Data)
	return m
}

// SymmetrizeFromLower copies the lower triangle onto the upper.
func (m *Matrix) SymmetrizeFromLower() {
	n := m.Rows
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			m.Data[j*n+i] = m.Data[i*n+j]
		}
	}
}

// AddDiagonal adds v to every diagonal element.
func (m *Matrix) AddDiagonal(v float64) {
	n := m.Rows
	if m.Cols < n {
		n = m.Cols
	}
	for i := 0; i < n; i++ {
		m.Data[i*m.Cols+i] += v
	}
}

// Cholesky factors the SPD matrix in place into its lower factor,
// zeroing the strict upper triangle so the result is usable as a plain
// lower-triangular matrix.
func (m *Matrix) Cholesky() error {
	if m.Rows != m.Cols {
		panic("linalg: Cholesky requires a square matrix")
	}
	if err := Potrf(m.Rows, m.Data, m.Cols); err != nil {
		return err
	}
	for i := 0; i < m.Rows; i++ {
		for j := i + 1; j < m.Cols; j++ {
			m.Data[i*m.Cols+j] = 0
		}
	}
	return nil
}

// LowerMulVec computes y = L x for the lower-triangular matrix: the
// sampling step xi = V eta of one chain where no panel leaf runs, and the
// bit-identity reference of LowerPanels.MulVec (which a one-chain run
// steps with) and of LowerMulMat's columns. Rows are taken four at a time
// from the bottom up: each row keeps its own accumulator and adds its
// products in ascending-j order (so y is bit-identical to a one-row
// loop), the four independent add chains overlap, and x[j] is loaded once
// per block. A block's sums are stored only after all four are complete
// and rows above it read only x[j] with j below the block, which is what
// makes the aliased call LowerMulVec(x, x) safe.
func (m *Matrix) LowerMulVec(x, y []float64) {
	ld := m.Cols
	i := m.Rows
	for ; i >= 4; i -= 4 {
		// Rows i-4 .. i-1 share columns [0, w); row i-4+r has r more.
		w := i - 3
		r0 := m.Data[(i-4)*ld : (i-4)*ld+w]
		r1 := m.Data[(i-3)*ld : (i-3)*ld+w+1]
		r2 := m.Data[(i-2)*ld : (i-2)*ld+w+2]
		r3 := m.Data[(i-1)*ld : (i-1)*ld+w+3]
		xs := x[:w+3]
		var s0, s1, s2, s3 float64
		for j, v := range r0 {
			xj := xs[j]
			s0 += v * xj
			s1 += r1[j] * xj
			s2 += r2[j] * xj
			s3 += r3[j] * xj
		}
		s1 += r1[w] * xs[w]
		s2 += r2[w] * xs[w]
		s3 += r3[w] * xs[w]
		s2 += r2[w+1] * xs[w+1]
		s3 += r3[w+1] * xs[w+1]
		s3 += r3[w+2] * xs[w+2]
		y[i-1], y[i-2], y[i-3], y[i-4] = s3, s2, s1, s0
	}
	for i--; i >= 0; i-- {
		row := m.Data[i*ld : i*ld+i+1]
		var sum float64
		for j, v := range row {
			sum += v * x[j]
		}
		y[i] = sum
	}
}

// LowerPanels is a lower-triangular factor packed for the one-vector
// product y = L x on the dot1x16 leaf: the VAR step of one chain, which
// repeats that product with one L for a whole run. Panel k holds rows
// [16k, 16k+16) interleaved over the columns all of them have, j in
// [0, 16k], so the leaf reads no structural zero and a zero can never
// meet an Inf of x. Where the CPU has no panel leaf, nothing is packed
// and MulVec runs LowerMulVec.
type LowerPanels struct {
	m   *Matrix
	buf *[]float64 // from packPool; nil when nothing is packed
}

// lowerPanelAt is where panel k starts in a LowerPanels pack: panel q
// takes 16(16q+1) elements.
func lowerPanelAt(k int) int { return 128*k*(k-1) + 16*k }

// PackLower packs the square lower-triangular m for LowerPanels.MulVec.
// Release returns the pack to the pool; m must not change until then.
func (m *Matrix) PackLower() LowerPanels {
	n := m.Rows
	if m.Cols != n {
		panic(fmt.Sprintf("linalg: PackLower needs a square factor, got %dx%d", m.Rows, m.Cols))
	}
	if !usePanel {
		return LowerPanels{m: m}
	}
	np := (n + 15) / 16
	size := lowerPanelAt(np)
	buf := packPool.Get().(*[]float64)
	if cap(*buf) < size {
		*buf = make([]float64, size)
	}
	pb := (*buf)[:size]
	for k := 0; k < np; k++ {
		i0, w := 16*k, 16*k+1
		p := pb[lowerPanelAt(k):lowerPanelAt(k+1)]
		// Sixteen rows read side by side, the panel written in order; the
		// lanes a last panel has no row for repeat its last row, and their
		// sums are dropped.
		var rs [16][]float64
		for r := range rs {
			i := min(i0+r, n-1)
			rs[r] = m.Data[i*n : i*n+w]
		}
		for j := range w {
			d := p[16*j : 16*j+16 : 16*j+16]
			for r := range d {
				d[r] = rs[r][j]
			}
		}
	}
	return LowerPanels{m: m, buf: buf}
}

// Release returns the pack to the pool. p must not be used afterwards.
func (p LowerPanels) Release() {
	if p.buf != nil {
		putPack(p.buf)
	}
}

// MulVec computes y = L x, bit for bit with LowerMulVec: each row sums
// its products from zero in ascending j, the leaf's columns [0, 16k]
// first and then, in scalar code on the unpacked factor, the at most
// fifteen columns (16k, i] a row has past them. Panels run from the
// bottom up and store their sums only once they are complete, and panel
// k reads x only below 16k+16, so the aliased call MulVec(x, x) is safe.
func (p LowerPanels) MulVec(x, y []float64) {
	if p.buf == nil {
		p.m.LowerMulVec(x, y)
		return
	}
	n := p.m.Rows
	x, y = x[:n], y[:n]
	for k := (n+15)/16 - 1; k >= 0; k-- {
		i0, w := 16*k, 16*k+1
		var acc [16]float64
		dot1x16(x[:w], (*p.buf)[lowerPanelAt(k):lowerPanelAt(k+1)], &acc)
		rows := min(16, n-i0)
		for r := 1; r < rows; r++ {
			i := i0 + r
			s := acc[r]
			for j, v := range p.m.Data[i*n+w : i*n+i+1] {
				s += v * x[w+j]
			}
			acc[r] = s
		}
		copy(y[i0:i0+rows], acc[:rows])
	}
}

// LowerMulMat computes Y = L X for the lower-triangular matrix L, where
// X and Y are n x M — the batched sampling step Xi = V H of the ensemble
// engine, one matrix-matrix product per VAR step instead of M LowerMulVec
// calls. Each output element accumulates products in ascending-j order,
// exactly like LowerMulVec, so column c of Y is bitwise identical to
// LowerMulVec applied to column c of X. The product runs on the package's
// leaves: a pair of rows of L against eight members (dot2x8, whose panel
// an eight-member X already is; other member counts are packed into
// zero-padded panels) or four (dot2x4, on X transposed so a member's
// draws are contiguous along j), over the columns both rows have, with the
// lower row's diagonal term added last. Rows are independent, so the
// kernel parallelizes over row blocks deterministically. One VAR chain
// does not come here: varm.SimulateBatch steps it on the factor packed
// once for the run, LowerPanels.MulVec.
func (m *Matrix) LowerMulMat(x, y *Matrix) {
	n := m.Rows
	if m.Cols != n {
		panic(fmt.Sprintf("linalg: LowerMulMat needs a square factor, got %dx%d", m.Rows, m.Cols))
	}
	if x.Rows != n || y.Rows != n || x.Cols != y.Cols {
		panic(fmt.Sprintf("linalg: LowerMulMat dimension mismatch %dx%d * %dx%d -> %dx%d",
			n, n, x.Rows, x.Cols, y.Rows, y.Cols))
	}
	cols := x.Cols
	buf := packPool.Get().(*[]float64)
	defer putPack(buf)
	// xp is X in the leaf's layout: member c's draw j at
	// xp[(c-c%8)*n+8j+c%8] for dot2x8, at xp[c*n+j] for dot2x4.
	var xp []float64
	w := 4
	if panelLeaf[float64](n) {
		xp, w = packPanels(buf, x.Data, cols, NoTrans, cols, n), 8
	} else {
		if cap(*buf) < n*cols {
			*buf = make([]float64, n*cols)
		}
		xp = (*buf)[:n*cols]
		transposeInto(xp, x.Data, cols, n, cols)
	}
	par.ForBlocks(0, n, blockSize, func(lo, hi int) {
		for i := lo; i < hi; i += 2 {
			// Rows i and i+1 share columns [0, i]; a last odd row is
			// passed twice and its second sums dropped.
			i1 := i + 1
			if i1 == hi {
				i1 = i
			}
			l0 := m.Data[i*n : i*n+i+1]
			l1 := m.Data[i1*n : i1*n+i+1]
			for c := 0; c < cols; c += w {
				wc := min(w, cols-c)
				var acc [16]float64
				if w == 8 {
					panelTile(l0, l1, xp[c*n:], &acc)
				} else {
					// Members past the last one repeat it.
					var xr [4][]float64
					for s := range xr {
						xr[s] = xp[(c+min(s, wc-1))*n:]
					}
					dot2x4(l0, l1, xr[0], xr[1], xr[2], xr[3], (*[8]float64)(acc[:8]))
				}
				copy(y.Data[i*cols+c:i*cols+c+wc], acc[:wc])
				if i1 != i {
					d := m.Data[i1*n+i1]
					xi1 := x.Data[i1*cols+c : i1*cols+c+wc]
					for s, v := range xi1 {
						y.Data[i1*cols+c+s] = acc[w+s] + d*v
					}
				}
			}
		}
	})
}

// MulVec computes y = A x.
func (m *Matrix) MulVec(x, y []float64) {
	MatVec(NoTrans, m.Rows, m.Cols, 1.0, m.Data, m.Cols, x, 0.0, y)
}

// FrobNorm returns the Frobenius norm.
func (m *Matrix) FrobNorm() float64 { return float64(Nrm2(m.Data)) }

// MaxAbsDiff returns the max absolute elementwise difference, an error
// metric for factor-accuracy tests.
func MaxAbsDiff(a, b *Matrix) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("linalg: MaxAbsDiff dimension mismatch")
	}
	worst := 0.0
	for i, v := range a.Data {
		if d := math.Abs(v - b.Data[i]); d > worst {
			worst = d
		}
	}
	return worst
}

// RandomSPD returns a well-conditioned random symmetric positive definite
// matrix A = B B^T / n + shift*I, a standard test and benchmark input.
func RandomSPD(rng *rand.Rand, n int, shift float64) *Matrix {
	b := NewMatrix(n, n)
	for i := range b.Data {
		b.Data[i] = rng.NormFloat64()
	}
	a := NewMatrix(n, n)
	Syrk(NoTrans, n, n, 1/float64(n), b.Data, n, 0.0, a.Data, n)
	a.SymmetrizeFromLower()
	a.AddDiagonal(shift)
	return a
}

// ExpCovariance returns the SPD covariance matrix C[i][j] =
// exp(-|i-j|/rho) of an exponentially correlated sequence. Its strong
// diagonal band and rapidly decaying off-diagonal blocks mimic the
// spectral-domain covariance the paper factorizes, which is exactly the
// structure the band-based mixed-precision policies exploit.
func ExpCovariance(n int, rho float64) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Data[i*n+j] = math.Exp(-math.Abs(float64(i-j)) / rho)
		}
	}
	return m
}
