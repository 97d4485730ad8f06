package linalg

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func randSlice(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

// naiveGemm is the O(mnk) oracle.
func naiveGemm(tA, tB Trans, m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			sum := 0.0
			for p := 0; p < k; p++ {
				var av, bv float64
				if tA == NoTrans {
					av = a[i*lda+p]
				} else {
					av = a[p*lda+i]
				}
				if tB == NoTrans {
					bv = b[p*ldb+j]
				} else {
					bv = b[j*ldb+p]
				}
				sum += av * bv
			}
			c[i*ldc+j] = alpha*sum + beta*c[i*ldc+j]
		}
	}
}

func TestGemmAllTransposeCombos(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	dims := [][3]int{{1, 1, 1}, {3, 5, 7}, {17, 13, 19}, {64, 64, 64}, {65, 130, 67}, {100, 1, 50}}
	for _, d := range dims {
		m, n, k := d[0], d[1], d[2]
		for _, tA := range []Trans{NoTrans, Transpose} {
			for _, tB := range []Trans{NoTrans, Transpose} {
				lda := k
				if tA == Transpose {
					lda = m
				}
				ldb := n
				if tB == Transpose {
					ldb = k
				}
				var arows, brows int
				if tA == NoTrans {
					arows = m
				} else {
					arows = k
				}
				if tB == NoTrans {
					brows = k
				} else {
					brows = n
				}
				a := randSlice(rng, arows*lda)
				b := randSlice(rng, brows*ldb)
				c := randSlice(rng, m*n)
				want := append([]float64(nil), c...)
				naiveGemm(tA, tB, m, n, k, 1.3, a, lda, b, ldb, 0.7, want, n)
				Gemm(tA, tB, m, n, k, 1.3, a, lda, b, ldb, 0.7, c, n)
				for i := range c {
					if math.Abs(c[i]-want[i]) > 1e-10*float64(k+1) {
						t.Fatalf("m,n,k=%v tA=%v tB=%v: C[%d]=%g want %g", d, tA, tB, i, c[i], want[i])
					}
				}
			}
		}
	}
}

func TestGemmBetaZeroOverwritesNaN(t *testing.T) {
	// beta=0 must overwrite even NaN garbage in C (BLAS semantics).
	a := []float64{1, 2, 3, 4}
	c := []float64{math.NaN(), math.NaN(), math.NaN(), math.NaN()}
	Gemm(NoTrans, NoTrans, 2, 2, 2, 1.0, a, 2, a, 2, 0.0, c, 2)
	for i, v := range c {
		if math.IsNaN(v) {
			t.Fatalf("C[%d] is NaN after beta=0 GEMM", i)
		}
	}
}

func TestSyrkMatchesGemm(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, dims := range [][2]int{{5, 3}, {33, 17}, {64, 128}, {130, 65}} {
		n, k := dims[0], dims[1]
		a := randSlice(rng, n*k)
		cSyrk := randSlice(rng, n*n)
		cGemm := append([]float64(nil), cSyrk...)
		Syrk(NoTrans, n, k, 0.5, a, k, 2.0, cSyrk, n)
		naiveGemm(NoTrans, Transpose, n, n, k, 0.5, a, k, a, k, 2.0, cGemm, n)
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				if math.Abs(cSyrk[i*n+j]-cGemm[i*n+j]) > 1e-10*float64(k) {
					t.Fatalf("n=%d k=%d: SYRK[%d,%d]=%g want %g", n, k, i, j, cSyrk[i*n+j], cGemm[i*n+j])
				}
			}
			// Strict upper triangle must be untouched.
			for j := i + 1; j < n; j++ {
				if cSyrk[i*n+j] != cGemm[i*n+j] {
					// cGemm upper was modified by naiveGemm; compare against original instead.
					break
				}
			}
		}
	}
}

func TestSyrkTransMatchesGemm(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n, k := 31, 44
	a := randSlice(rng, k*n) // k x n
	cSyrk := make([]float64, n*n)
	cWant := make([]float64, n*n)
	Syrk(Transpose, n, k, 1.0, a, n, 0.0, cSyrk, n)
	naiveGemm(Transpose, NoTrans, n, n, k, 1.0, a, n, a, n, 0.0, cWant, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			if math.Abs(cSyrk[i*n+j]-cWant[i*n+j]) > 1e-10*float64(k) {
				t.Fatalf("SYRK^T[%d,%d]=%g want %g", i, j, cSyrk[i*n+j], cWant[i*n+j])
			}
		}
	}
}

func TestSyrkLeavesUpperTriangleUntouched(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	n, k := 20, 10
	a := randSlice(rng, n*k)
	c := make([]float64, n*n)
	for i := range c {
		c[i] = 999
	}
	Syrk(NoTrans, n, k, 1.0, a, k, 0.0, c, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if c[i*n+j] != 999 {
				t.Fatalf("upper element (%d,%d) was modified", i, j)
			}
		}
	}
}

func lowerFromRandom(rng *rand.Rand, n int) []float64 {
	l := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			l[i*n+j] = rng.NormFloat64() * 0.3
		}
		l[i*n+i] = 1 + rng.Float64() // well away from zero
	}
	return l
}

func TestTrsmRightLowerTrans(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, dims := range [][2]int{{1, 1}, {7, 4}, {65, 33}, {128, 64}} {
		m, n := dims[0], dims[1]
		l := lowerFromRandom(rng, n)
		b := randSlice(rng, m*n)
		orig := append([]float64(nil), b...)
		TrsmRightLowerTrans(m, n, 2.0, l, n, b, n)
		// Check X * L^T = 2B by multiplying back.
		back := make([]float64, m*n)
		naiveGemm(NoTrans, Transpose, m, n, n, 1.0, b, n, l, n, 0.0, back, n)
		for i := range back {
			if math.Abs(back[i]-2*orig[i]) > 1e-9*float64(n) {
				t.Fatalf("m=%d n=%d: reconstruction error at %d: %g vs %g", m, n, i, back[i], 2*orig[i])
			}
		}
	}
}

func TestTrsmLeftLowerNoTransAndTrans(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m, n := 40, 23
	l := lowerFromRandom(rng, m)
	b := randSlice(rng, m*n)
	orig := append([]float64(nil), b...)
	TrsmLeftLowerNoTrans(m, n, 1.0, l, m, b, n)
	back := make([]float64, m*n)
	naiveGemm(NoTrans, NoTrans, m, n, m, 1.0, l, m, b, n, 0.0, back, n)
	for i := range back {
		if math.Abs(back[i]-orig[i]) > 1e-9*float64(m) {
			t.Fatalf("forward solve reconstruction error at %d", i)
		}
	}
	copy(b, orig)
	TrsmLeftLowerTrans(m, n, 1.0, l, m, b, n)
	naiveGemm(Transpose, NoTrans, m, n, m, 1.0, l, m, b, n, 0.0, back, n)
	for i := range back {
		if math.Abs(back[i]-orig[i]) > 1e-9*float64(m) {
			t.Fatalf("backward solve reconstruction error at %d", i)
		}
	}
}

func TestPotrfReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 10, 63, 64, 65, 200, 333} {
		a := RandomSPD(rng, n, 1.0)
		l := a.Copy()
		if err := l.Cholesky(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		// Reconstruct L L^T and compare with A.
		rec := NewMatrix(n, n)
		Gemm(NoTrans, Transpose, n, n, n, 1.0, l.Data, n, l.Data, n, 0.0, rec.Data, n)
		if d := MaxAbsDiff(rec, a); d > 1e-11*float64(n) {
			t.Errorf("n=%d: ||L L^T - A||_max = %g", n, d)
		}
		// Diagonal of L must be positive.
		for i := 0; i < n; i++ {
			if l.At(i, i) <= 0 {
				t.Fatalf("n=%d: nonpositive diagonal at %d", n, i)
			}
		}
	}
}

func TestPotrfFloat32(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := 96
	a64 := RandomSPD(rng, n, 1.0)
	a32 := make([]float32, n*n)
	for i, v := range a64.Data {
		a32[i] = float32(v)
	}
	if err := Potrf(n, a32, n); err != nil {
		t.Fatal(err)
	}
	// Compare against the float64 factor.
	l := a64.Copy()
	if err := l.Cholesky(); err != nil {
		t.Fatal(err)
	}
	worst := 0.0
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			d := math.Abs(float64(a32[i*n+j]) - l.At(i, j))
			if d > worst {
				worst = d
			}
		}
	}
	if worst > 1e-4 {
		t.Errorf("float32 factor deviates by %g from float64", worst)
	}
}

func TestPotrfRejectsIndefinite(t *testing.T) {
	a := NewMatrix(3, 3)
	a.Set(0, 0, 1)
	a.Set(1, 1, -1) // indefinite
	a.Set(2, 2, 1)
	err := a.Cholesky()
	if !errors.Is(err, ErrNotPositiveDefinite) {
		t.Fatalf("expected ErrNotPositiveDefinite, got %v", err)
	}
}

func TestCholSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 120
	a := RandomSPD(rng, n, 2.0)
	l := a.Copy()
	if err := l.Cholesky(); err != nil {
		t.Fatal(err)
	}
	x := randSlice(rng, n)
	b := make([]float64, n)
	a.MulVec(x, b)
	CholSolve(n, l.Data, n, b)
	for i := range x {
		if math.Abs(b[i]-x[i]) > 1e-8 {
			t.Fatalf("solution error at %d: %g vs %g", i, b[i], x[i])
		}
	}
}

func TestVectorHelpers(t *testing.T) {
	x := []float64{3, 4}
	if got := Nrm2(x); math.Abs(got-5) > 1e-14 {
		t.Errorf("Nrm2 = %g, want 5", got)
	}
	// Nrm2 must not overflow for huge components.
	big := []float64{1e300, 1e300}
	if got := Nrm2(big); math.IsInf(got, 1) {
		t.Error("Nrm2 overflowed")
	}
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Errorf("Dot = %g, want 32", got)
	}
	y := []float64{1, 1}
	Axpy(2, []float64{10, 20}, y)
	if y[0] != 21 || y[1] != 41 {
		t.Errorf("Axpy = %v", y)
	}
}

func TestMatVecTranspose(t *testing.T) {
	a := []float64{1, 2, 3, 4, 5, 6} // 2x3
	y := make([]float64, 3)
	MatVec(Transpose, 2, 3, 1.0, a, 3, []float64{1, 1}, 0.0, y)
	want := []float64{5, 7, 9}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("MatVec^T = %v, want %v", y, want)
		}
	}
}

func TestLowerMulVecMatchesMulVec(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	n := 50
	l := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			l.Set(i, j, rng.NormFloat64())
		}
	}
	x := randSlice(rng, n)
	y1 := make([]float64, n)
	y2 := make([]float64, n)
	l.LowerMulVec(x, y1)
	l.MulVec(x, y2)
	for i := range y1 {
		if math.Abs(y1[i]-y2[i]) > 1e-12 {
			t.Fatalf("LowerMulVec mismatch at %d", i)
		}
	}
}

func TestLowerMulVecInPlace(t *testing.T) {
	// LowerMulVec(x, x) overwrites x with L x; the backwards iteration
	// makes that safe. Verify.
	rng := rand.New(rand.NewSource(11))
	n := 30
	l := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			l.Set(i, j, rng.NormFloat64())
		}
	}
	x := randSlice(rng, n)
	want := make([]float64, n)
	l.LowerMulVec(x, want)
	l.LowerMulVec(x, x) // aliased
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-12 {
			t.Fatalf("aliased LowerMulVec wrong at %d", i)
		}
	}
}

// lowerMulVecRef is the one-row LowerMulVec loop the blocked kernel
// replaced, kept verbatim as the bit-identity reference.
func lowerMulVecRef(m *Matrix, x, y []float64) {
	n := m.Rows
	for i := n - 1; i >= 0; i-- {
		row := m.Data[i*m.Cols : i*m.Cols+i+1]
		var sum float64
		for j, v := range row {
			sum += v * x[j]
		}
		y[i] = sum
	}
}

// randLower returns an n x n lower-triangular matrix with a few explicit
// zeros inside the triangle.
func randLower(rng *rand.Rand, n int) *Matrix {
	l := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			l.Set(i, j, rng.NormFloat64())
		}
	}
	for i := 2; i < n; i += 3 {
		l.Set(i, i/2, 0)
	}
	return l
}

// TestLowerMulVecBitIdenticalToOneRowLoop pins the blocked kernel to the
// retired loop bit for bit — every MemberSeed's output hangs on it — at
// sizes around the 4-row block edge, aliased and not.
func TestLowerMulVecBitIdenticalToOneRowLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 255, 256, 257} {
		l := randLower(rng, n)
		x := randSlice(rng, n)
		want := make([]float64, n)
		lowerMulVecRef(l, x, want)
		got := make([]float64, n)
		l.LowerMulVec(x, got)
		aliased := append([]float64(nil), x...)
		l.LowerMulVec(aliased, aliased)
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d: y[%d] = %x, one-row loop gives %x", n, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
			}
			if math.Float64bits(aliased[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d aliased: y[%d] = %x, one-row loop gives %x", n, i, math.Float64bits(aliased[i]), math.Float64bits(want[i]))
			}
		}
	}
}

// TestLowerPanelsMatchLowerMulVec pins the one-chain product on the
// packed factor (LowerPanels.MulVec, the dot1x16 leaf) to LowerMulVec and
// to the retired one-row loop bit for bit, at sizes on both sides of the
// 16-row panel and its edges, aliased and not. Specials go into x and
// into L, its never-read upper triangle included, and one case puts an
// Inf into x at the last column of the first panel: the rows above it
// lack that column and must stay finite, so a leaf that reads a
// structural zero (0*Inf = NaN) fails here, and so does one that fuses a
// product into its sum.
func TestLowerPanelsMatchLowerMulVec(t *testing.T) {
	testLowerPanels(t)
	onDot2x4(t, testLowerPanels)
}

func testLowerPanels(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	var sizes []int
	for n := 1; n <= 17; n++ {
		sizes = append(sizes, n)
	}
	// 1500 packs more than maxPooledPack, which putPack does not pool.
	sizes = append(sizes, 31, 32, 33, 47, 48, 49, 255, 256, 257, 1024, 1500)
	for _, n := range sizes {
		for c, name := range []string{"plain", "specials", "inf-above"} {
			l := randLower(rng, n)
			x := randSlice(rng, n)
			switch c {
			case 1:
				sprinkle(rng, l.Data, n, n, n)
				sprinkle(rng, x, 1, n, n)
			case 2:
				x[min(n, 16)-1] = math.Inf(1)
			}
			want := make([]float64, n)
			lowerMulVecRef(l, x, want)
			vec := make([]float64, n)
			l.LowerMulVec(x, vec)
			p := l.PackLower()
			if packed := p.buf != nil; packed != usePanel {
				t.Fatalf("n=%d: packed = %v with usePanel = %v", n, packed, usePanel)
			}
			got := make([]float64, n)
			for i := range got {
				got[i] = math.NaN() // the kernel must overwrite, not accumulate
			}
			p.MulVec(x, got)
			aliased := append([]float64(nil), x...)
			p.MulVec(aliased, aliased)
			p.Release()
			for _, r := range []struct {
				what      string
				got, want []float64
			}{{"LowerMulVec", vec, want}, {"MulVec", got, want}, {"aliased MulVec", aliased, want}} {
				if i := sameBits(r.got, r.want); i >= 0 {
					t.Fatalf("n=%d %s: %s y[%d] = %x, one-row loop gives %x", n, name, r.what, i,
						math.Float64bits(r.got[i]), math.Float64bits(r.want[i]))
				}
			}
		}
	}
}

// TestLowerMulMatColumnBlocks pins LowerMulMat's 2 x 4 tiles (row pairs
// and a last odd row, full groups of four members, the narrower last
// group, and both together) to column-wise LowerMulVec bit for bit, on
// whichever leaf the host picks and on dot2x4.
func TestLowerMulMatColumnBlocks(t *testing.T) {
	testLowerMulMatColumnBlocks(t)
	onDot2x4(t, testLowerMulMatColumnBlocks)
}

func testLowerMulMatColumnBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{1, 2, 3, 65, 130, 1024} {
		for _, cols := range []int{1, 3, 4, 5, 8, 9} {
			l := randLower(rng, n)
			x := NewMatrix(n, cols)
			for i := range x.Data {
				x.Data[i] = rng.NormFloat64()
			}
			y := NewMatrix(n, cols)
			for i := range y.Data {
				y.Data[i] = math.NaN() // the kernel must overwrite, not accumulate
			}
			l.LowerMulMat(x, y)
			col := make([]float64, n)
			ref := make([]float64, n)
			for c := 0; c < cols; c++ {
				for i := 0; i < n; i++ {
					col[i] = x.At(i, c)
				}
				l.LowerMulVec(col, ref)
				for i := 0; i < n; i++ {
					if math.Float64bits(ref[i]) != math.Float64bits(y.At(i, c)) {
						t.Fatalf("n=%d cols=%d: element (%d,%d) = %x, LowerMulVec gives %x",
							n, cols, i, c, math.Float64bits(y.At(i, c)), math.Float64bits(ref[i]))
					}
				}
			}
		}
	}
}

func TestExpCovarianceIsSPD(t *testing.T) {
	for _, n := range []int{10, 100, 300} {
		c := ExpCovariance(n, 8.0)
		if err := c.Copy().Cholesky(); err != nil {
			t.Errorf("ExpCovariance(%d) not SPD: %v", n, err)
		}
	}
}

func TestMatrixTranspose(t *testing.T) {
	m := NewMatrix(2, 3)
	copy(m.Data, []float64{1, 2, 3, 4, 5, 6})
	mt := m.T()
	if mt.Rows != 3 || mt.Cols != 2 || mt.At(2, 1) != 6 || mt.At(0, 1) != 4 {
		t.Errorf("transpose wrong: %+v", mt)
	}
}

func BenchmarkGemm_256(b *testing.B)   { benchGemm(b, 256) }
func BenchmarkGemm_512(b *testing.B)   { benchGemm(b, 512) }
func BenchmarkPotrf_512(b *testing.B)  { benchPotrf(b, 512) }
func BenchmarkPotrf_1024(b *testing.B) { benchPotrf(b, 1024) }

func benchGemm(b *testing.B, n int) {
	rng := rand.New(rand.NewSource(1))
	a := randSlice(rng, n*n)
	bb := randSlice(rng, n*n)
	c := make([]float64, n*n)
	b.SetBytes(int64(8 * n * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Gemm(NoTrans, NoTrans, n, n, n, 1.0, a, n, bb, n, 0.0, c, n)
	}
	flops := 2 * float64(n) * float64(n) * float64(n)
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFlop/s")
}

func benchPotrf(b *testing.B, n int) {
	rng := rand.New(rand.NewSource(1))
	a := RandomSPD(rng, n, 1.0)
	work := make([]float64, n*n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, a.Data)
		if err := Potrf(n, work, n); err != nil {
			b.Fatal(err)
		}
	}
	flops := float64(n) * float64(n) * float64(n) / 3
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFlop/s")
}

// BenchmarkLinalg_Syrk is eq. (9) at the L = 32 shape: the Transpose call
// varm.EmpiricalCovariance makes on the 1458 stacked residual vectors.
func BenchmarkLinalg_Syrk(b *testing.B) {
	b.Run("cov1024x1458", func(b *testing.B) {
		const n, k = 1024, 1458
		rng := rand.New(rand.NewSource(1))
		a := randSlice(rng, k*n)
		c := make([]float64, n*n)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			Syrk(Transpose, n, k, 1/float64(k), a, n, 0.0, c, n)
		}
		flops := float64(n) * float64(n+1) * float64(k)
		b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFlop/s")
	})
}

// BenchmarkLinalg_GemmNT is one trailing tile update of mpchol,
// C -= A*B^T on 64 x 64 tiles, at both compute precisions.
func BenchmarkLinalg_GemmNT(b *testing.B) {
	b.Run("f32_b64", benchGemmNT[float32])
	b.Run("f64_b64", benchGemmNT[float64])
}

func benchGemmNT[T Float](b *testing.B) {
	const n = 64
	rng := rand.New(rand.NewSource(1))
	a, bb, c := make([]T, n*n), make([]T, n*n), make([]T, n*n)
	for i := range a {
		a[i], bb[i] = T(rng.NormFloat64()), T(rng.NormFloat64())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Gemm(NoTrans, Transpose, n, n, n, T(-1), a, n, bb, n, T(1), c, n)
	}
	flops := 2 * float64(n) * float64(n) * float64(n)
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFlop/s")
}

// The generation step's two products, xi = V eta for one member
// (LowerMulVec, and LowerPanels.MulVec on the packed factor, which is what
// a one-chain run steps with) and for a batch of members at once
// (LowerMulMat), at the L = 16 and L = 32 covariance dimensions. "pack" is
// the once-per-run cost of PackLower and Release. LowerMulMat runs at 1
// member (one tile padded with idle members; a one-chain run steps on
// the packed factor instead), 8 (X is dot2x8's panel as it stands), 9
// (the zero-padded pack; the nine-member campaign of
// TestGenerationDigestAcrossCommits) and 16 (two packed panels), and
// reports the cost per member column, which a batch would have to lower.
func BenchmarkLinalg_LowerMulVec(b *testing.B) {
	run := func(name string, body func(b *testing.B, l *Matrix, x, y []float64)) {
		for _, n := range []int{256, 1024} {
			b.Run(fmt.Sprintf(name, n), func(b *testing.B) {
				rng := rand.New(rand.NewSource(1))
				l := randLower(rng, n)
				x := randSlice(rng, n)
				y := make([]float64, n)
				b.ResetTimer()
				body(b, l, x, y)
			})
		}
	}
	run("n%d", func(b *testing.B, l *Matrix, x, y []float64) {
		for i := 0; i < b.N; i++ {
			l.LowerMulVec(x, y)
		}
	})
	run("packed/n%d", func(b *testing.B, l *Matrix, x, y []float64) {
		p := l.PackLower()
		defer p.Release()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.MulVec(x, y)
		}
	})
	run("pack/n%d", func(b *testing.B, l *Matrix, _, _ []float64) {
		for i := 0; i < b.N; i++ {
			l.PackLower().Release()
		}
	})
}

func BenchmarkLinalg_LowerMulMat(b *testing.B) {
	for _, n := range []int{256, 1024} {
		for _, cols := range []int{1, 8, 9, 16} {
			b.Run(fmt.Sprintf("n%d/cols%d", n, cols), func(b *testing.B) {
				rng := rand.New(rand.NewSource(1))
				l := randLower(rng, n)
				x := &Matrix{Rows: n, Cols: cols, Data: randSlice(rng, n*cols)}
				y := NewMatrix(n, cols)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					l.LowerMulMat(x, y)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N*cols), "us/col")
			})
		}
	}
}
