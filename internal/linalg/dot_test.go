package linalg

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// The loops dot2x4 replaced, kept verbatim as the bit-identity references:
// gemmRef is the retired gemmSerial over all rows, syrkRef the retired
// body of Syrk, syrkTrailingRef Potrf's retired trailing update.

func gemmRef[T Float](tA, tB Trans, m, n, k int, alpha T, a []T, lda int, b []T, ldb int, beta T, c []T, ldc int) {
	for i := 0; i < m; i++ {
		ci := c[i*ldc : i*ldc+n]
		if beta == 0 {
			for j := range ci {
				ci[j] = 0
			}
		} else if beta != 1 {
			for j := range ci {
				ci[j] *= beta
			}
		}
	}
	for kk := 0; kk < k; kk += blockSize {
		kmax := kk + blockSize
		if kmax > k {
			kmax = k
		}
		for i := 0; i < m; i++ {
			ci := c[i*ldc : i*ldc+n]
			for p := kk; p < kmax; p++ {
				var aval T
				if tA == NoTrans {
					aval = a[i*lda+p]
				} else {
					aval = a[p*lda+i]
				}
				if aval == 0 {
					continue
				}
				aval *= alpha
				if tB == NoTrans {
					bp := b[p*ldb : p*ldb+n]
					for j, bv := range bp {
						ci[j] += aval * bv
					}
				} else {
					for j := 0; j < n; j++ {
						ci[j] += aval * b[j*ldb+p]
					}
				}
			}
		}
	}
}

func syrkRef[T Float](trans Trans, n, k int, alpha T, a []T, lda int, beta T, c []T, ldc int) {
	for i := 0; i < n; i++ {
		ci := c[i*ldc : i*ldc+i+1]
		if beta == 0 {
			for j := range ci {
				ci[j] = 0
			}
		} else if beta != 1 {
			for j := range ci {
				ci[j] *= beta
			}
		}
		if trans == NoTrans {
			ai := a[i*lda : i*lda+k]
			for j := 0; j <= i; j++ {
				aj := a[j*lda : j*lda+k]
				var sum T
				for p, av := range ai {
					sum += av * aj[p]
				}
				ci[j] += alpha * sum
			}
		} else {
			for p := 0; p < k; p++ {
				av := alpha * a[p*lda+i]
				if av == 0 {
					continue
				}
				row := a[p*lda : p*lda+i+1]
				for j := 0; j <= i; j++ {
					ci[j] += av * row[j]
				}
			}
		}
	}
}

func syrkTrailingRef[T Float](n, k int, a []T, lda int, c []T, ldc int) {
	for i := 0; i < n; i++ {
		ai := a[i*lda : i*lda+k]
		ci := c[i*ldc : i*ldc+i+1]
		for j := 0; j <= i; j++ {
			aj := a[j*lda : j*lda+k]
			var sum T
			for p, av := range ai {
				sum += av * aj[p]
			}
			ci[j] -= sum
		}
	}
}

// The grid of the bit-identity tests: sizes on both sides of the 2 x 4
// tile, the 64-row block and the 256-wide k-block.
var (
	gridMN = []int{1, 2, 3, 5, 63, 64, 65, 130}
	gridK  = []int{1, 7, 127, 128, 129, 300}
)

// gridScalings returns the (alpha, beta) pairs of the grid: every pairing
// of {1, -1, 0.37} with {0, 1, 0.5}, or one pair per value under -race.
func gridScalings() [][2]float64 {
	alphas, betas := []float64{1, -1, 0.37}, []float64{0, 1, 0.5}
	var out [][2]float64
	for i, alpha := range alphas {
		for j, beta := range betas {
			if !raceEnabled || i == j {
				out = append(out, [2]float64{alpha, beta})
			}
		}
	}
	return out
}

// randMat returns a rows x cols matrix with leading dimension cols+pad.
// The padding holds NaN, so a kernel that reads it shows.
func randMat[T Float](rng *rand.Rand, rows, cols, pad int) ([]T, int) {
	ld := cols + pad
	x := make([]T, rows*ld)
	for i := range x {
		x[i] = T(math.NaN())
	}
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			x[i*ld+j] = T(rng.NormFloat64())
		}
	}
	return x, ld
}

// sameBits reports the first index at which two slices differ as bit
// patterns (NaN payloads aside: NaN equals NaN), or -1.
func sameBits[T Float](got, want []T) int {
	for i := range want {
		g, w := float64(got[i]), float64(want[i])
		if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
			return i
		}
	}
	return -1
}

func testGemmBitIdentical[T Float](t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(21))
	for _, tA := range []Trans{NoTrans, Transpose} {
		for _, tB := range []Trans{NoTrans, Transpose} {
			for _, m := range gridMN {
				for _, n := range gridMN {
					for _, k := range gridK {
						arows, acols := m, k
						if tA == Transpose {
							arows, acols = k, m
						}
						brows, bcols := k, n
						if tB == Transpose {
							brows, bcols = n, k
						}
						a, lda := randMat[T](rng, arows, acols, 3)
						b, ldb := randMat[T](rng, brows, bcols, 1)
						c0, ldc := randMat[T](rng, m, n, 2)
						for _, ab := range gridScalings() {
							alpha, beta := T(ab[0]), T(ab[1])
							want := append([]T(nil), c0...)
							got := append([]T(nil), c0...)
							gemmRef(tA, tB, m, n, k, alpha, a, lda, b, ldb, beta, want, ldc)
							Gemm(tA, tB, m, n, k, alpha, a, lda, b, ldb, beta, got, ldc)
							if i := sameBits(got, want); i >= 0 {
								t.Fatalf("tA=%v tB=%v m=%d n=%d k=%d alpha=%g beta=%g: C[%d][%d] = %v, retired loop gives %v",
									tA, tB, m, n, k, alpha, beta, i/ldc, i%ldc, got[i], want[i])
							}
						}
					}
				}
			}
		}
	}
}

// TestGemmBitIdenticalToRetiredLoop pins Gemm, in all four transpose
// cases and both element types, on whichever leaf the host picks and on
// dot2x4, to the axpy loops it used to run.
func TestGemmBitIdenticalToRetiredLoop(t *testing.T) {
	t.Run("float64", testGemmBitIdentical[float64])
	t.Run("float32", testGemmBitIdentical[float32])
	onDot2x4(t, func(t *testing.T) { t.Run("float64", testGemmBitIdentical[float64]) })
}

func testSyrkBitIdentical[T Float](t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, trans := range []Trans{NoTrans, Transpose} {
		for _, n := range gridMN {
			for _, k := range gridK {
				arows, acols := n, k
				if trans == Transpose {
					arows, acols = k, n
				}
				a, lda := randMat[T](rng, arows, acols, 3)
				// The strict upper triangle and the padding of C hold NaN:
				// equal bits there mean neither was read into a result
				// nor written.
				c0, ldc := randMat[T](rng, n, n, 2)
				for i := 0; i < n; i++ {
					for j := i + 1; j < n; j++ {
						c0[i*ldc+j] = T(math.NaN())
					}
				}
				for _, ab := range gridScalings() {
					alpha, beta := T(ab[0]), T(ab[1])
					want := append([]T(nil), c0...)
					got := append([]T(nil), c0...)
					syrkRef(trans, n, k, alpha, a, lda, beta, want, ldc)
					Syrk(trans, n, k, alpha, a, lda, beta, got, ldc)
					if i := sameBits(got, want); i >= 0 {
						t.Fatalf("trans=%v n=%d k=%d alpha=%g beta=%g: C[%d][%d] = %v, retired loop gives %v",
							trans, n, k, alpha, beta, i/ldc, i%ldc, got[i], want[i])
					}
				}
				if trans == NoTrans {
					// Potrf's trailing update is Syrk(NoTrans, -1, 1).
					want := append([]T(nil), c0...)
					got := append([]T(nil), c0...)
					syrkTrailingRef(n, k, a, lda, want, ldc)
					Syrk(NoTrans, n, k, T(-1), a, lda, T(1), got, ldc)
					if i := sameBits(got, want); i >= 0 {
						t.Fatalf("trailing n=%d k=%d: C[%d][%d] = %v, retired loop gives %v",
							n, k, i/ldc, i%ldc, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestSyrkBitIdenticalToRetiredLoop pins both forms of Syrk, and the
// trailing update Potrf now makes through it, to their retired loops, and
// checks the strict upper triangle of C is neither read nor written, on
// whichever leaf the host picks and on dot2x4.
func TestSyrkBitIdenticalToRetiredLoop(t *testing.T) {
	t.Run("float64", testSyrkBitIdentical[float64])
	t.Run("float32", testSyrkBitIdentical[float32])
	onDot2x4(t, func(t *testing.T) { t.Run("float64", testSyrkBitIdentical[float64]) })
}

func digest(x []float64) string {
	h := sha256.New()
	var buf [8]byte
	for _, v := range x {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestPotrfDigestAcrossCommits pins the blocked factorization (panel
// POTRF, TRSM, trailing SYRK) of one 512 x 512 matrix to the bytes it
// produced before the trailing update moved onto the tile kernel. The
// input comes from Syrk(NoTrans) through RandomSPD, so that is pinned too.
func TestPotrfDigestAcrossCommits(t *testing.T) {
	const want = "f6ec821326c3137be1945bce969318d3356c0262044ab37603f667c7619862e4"
	a := RandomSPD(rand.New(rand.NewSource(512)), 512, 1.0)
	if err := Potrf(512, a.Data, 512); err != nil {
		t.Fatal(err)
	}
	if got := digest(a.Data); got != want {
		t.Fatalf("factor digest %s, want %s: a kernel edit reordered a floating-point sum", got, want)
	}
}

// TestDenseProductsPropagateNonFinite: a NaN in one operand opposite an
// exact zero in the other must reach C (0*NaN is NaN). The retired loops
// skipped products with a zero factor, which hid it from Potrf's pivot
// check. Shapes of 1, 2 and 8 rows reach both leaves, and the fallback
// runs again with the panel leaf off.
func TestDenseProductsPropagateNonFinite(t *testing.T) {
	testPropagateNonFinite(t)
	onDot2x4(t, testPropagateNonFinite)
}

func testPropagateNonFinite(t *testing.T) {
	nan := math.NaN()
	// s x s operands, and LowerMulMat's member count.
	for _, sz := range [][2]int{{2, 1}, {8, 8}} {
		s, cols := sz[0], sz[1]
		zero := make([]float64, s*s)
		bad := make([]float64, s*s)
		for i := range bad {
			bad[i] = 1
		}
		bad[0] = nan
		for _, tA := range []Trans{NoTrans, Transpose} {
			for _, tB := range []Trans{NoTrans, Transpose} {
				c := make([]float64, s*s)
				Gemm(tA, tB, s, s, s, 1.0, zero, s, bad, s, 0.0, c, s)
				if !math.IsNaN(c[0]) {
					t.Errorf("Gemm(%v, %v) %dx%d: C[0][0] = %g, want NaN from 0*NaN", tA, tB, s, s, c[0])
				}
			}
		}
		// A column (Transpose) or row (NoTrans) of A pairing 0 with NaN.
		a := make([]float64, s)
		a[0] = nan
		c := make([]float64, s*s)
		Syrk(Transpose, s, 1, 1.0, a, s, 0.0, c, s)
		if !math.IsNaN(c[s]) {
			t.Errorf("Syrk(Transpose) n=%d: C[1][0] = %g, want NaN from 0*NaN", s, c[s])
		}
		c = make([]float64, s*s)
		Syrk(NoTrans, s, 1, 1.0, a, 1, 0.0, c, s)
		if !math.IsNaN(c[s]) {
			t.Errorf("Syrk(NoTrans) n=%d: C[1][0] = %g, want NaN from 0*NaN", s, c[s])
		}
		l := Eye(s)
		x := NewMatrix(s, cols)
		for i := range x.Data {
			x.Data[i] = 1
		}
		x.Data[0] = nan
		y := NewMatrix(s, cols)
		l.LowerMulMat(x, y)
		if !math.IsNaN(y.At(1, 0)) {
			t.Errorf("LowerMulMat n=%d cols=%d: Y[1][0] = %g, want NaN from 0*NaN", s, cols, y.At(1, 0))
		}
	}
}

// TestSyrkRejectsBadShapes: Syrk validates like Gemm instead of failing
// with an index error inside a worker or overlapping rows of C.
func TestSyrkRejectsBadShapes(t *testing.T) {
	const n, k = 4, 3
	cases := []struct {
		name       string
		trans      Trans
		la, lda    int
		lc, ldc    int
		wantSubstr string
	}{
		{"NoTrans lda below k", NoTrans, n * k, k - 1, n * n, n, "bad leading dimensions"},
		{"Transpose lda below n", Transpose, k * n, n - 1, n * n, n, "bad leading dimensions"},
		{"ldc below n", NoTrans, n * k, k, n * n, n - 1, "bad leading dimensions"},
		{"NoTrans short A", NoTrans, n*k - 1, k, n * n, n, "slice too short"},
		{"Transpose short A", Transpose, k*n - 1, n, n * n, n, "slice too short"},
		{"short C", NoTrans, n * k, k, n*n - 1, n, "slice too short"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.HasPrefix(msg, "linalg: ") || !strings.Contains(msg, tc.wantSubstr) {
					t.Fatalf("panic %q, want a linalg: message containing %q", msg, tc.wantSubstr)
				}
			}()
			Syrk(tc.trans, n, k, 1.0, make([]float64, tc.la), tc.lda, 0.0, make([]float64, tc.lc), tc.ldc)
		})
	}
}

// denseProducts runs one call of each tile-kernel entry point on shared
// inputs and returns the outputs concatenated.
func denseProducts(a, b []float64, l, x *Matrix) []float64 {
	const m, n, k = 130, 70, 300
	var out []float64
	// The same m*k and k*n values read as stored or as transposed.
	for _, ld := range [][2]int{{k, n}, {m, k}} {
		tA, tB := Trans(ld[0] == m), Trans(ld[1] == k)
		c := make([]float64, m*n)
		Gemm(tA, tB, m, n, k, 0.37, a, ld[0], b, ld[1], 0.0, c, n)
		out = append(out, c...)
		c = make([]float64, m*m)
		Syrk(tA, m, k, 0.37, a, ld[0], 0.0, c, m)
		out = append(out, c...)
	}
	y := NewMatrix(l.Rows, x.Cols)
	l.LowerMulMat(x, y)
	return append(out, y.Data...)
}

// TestDenseProductsConcurrentAndAcrossGOMAXPROCS: eight goroutines on
// shared inputs, and runs at GOMAXPROCS 1 and 4, all produce the bits of
// one single-goroutine run.
func TestDenseProductsConcurrentAndAcrossGOMAXPROCS(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	a := randSlice(rng, 130*300)
	b := randSlice(rng, 300*70)
	l := randLower(rng, 130)
	x := &Matrix{Rows: 130, Cols: 9, Data: randSlice(rng, 130*9)}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	want := denseProducts(a, b, l, x)
	runtime.GOMAXPROCS(4)
	if i := sameBits(denseProducts(a, b, l, x), want); i >= 0 {
		t.Fatalf("GOMAXPROCS 4 differs from GOMAXPROCS 1 at output %d", i)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if i := sameBits(denseProducts(a, b, l, x), want); i >= 0 {
				t.Errorf("goroutine %d differs from the single-goroutine run at output %d", g, i)
			}
		}(g)
	}
	wg.Wait()
}
