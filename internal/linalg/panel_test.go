package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// onDot2x4 runs f as the subtest "dot2x4" with the panel leaf switched
// off, so a host with AVX covers the fallback too. The leaf is switched
// back once f and its parallel subtests are done.
func onDot2x4(t *testing.T, f func(t *testing.T)) {
	t.Run("dot2x4", func(t *testing.T) {
		saved := usePanel
		usePanel = false
		t.Cleanup(func() { usePanel = saved })
		f(t)
	})
}

// bothLeaves returns run's output with the panel leaf on and with it off.
func bothLeaves(run func() []float64) (panel, fallback []float64) {
	saved := usePanel
	defer func() { usePanel = saved }()
	usePanel = true
	panel = run()
	usePanel = false
	return panel, run()
}

// panelSizes are the shapes of TestPanelTileMatchesDot2x4: each side of
// the panel's eight columns, the 64-row block and the 256-wide k-block.
var panelSizes = []int{1, 2, 3, 7, 8, 9, 63, 64, 65, 255, 256, 257}

// specials are the values sprinkled into one operand: non-finite, signed
// zero and subnormal.
var specials = []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 5e-324, -2.5e-310, 1e-308}

// sprinkle overwrites about one in 16 of the first cols entries of each
// row of x (leading dimension ld) with a value from specials.
func sprinkle(rng *rand.Rand, x []float64, rows, cols, ld int) {
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.Intn(16) == 0 {
				x[i*ld+j] = specials[rng.Intn(len(specials))]
			}
		}
	}
}

// panelMat returns a rows x cols matrix with leading dimension cols+1
// (NaN padding), sprinkled with specials when special is set.
func panelMat(rng *rand.Rand, rows, cols int, special bool) ([]float64, int) {
	x, ld := randMat[float64](rng, rows, cols, 1)
	if special {
		sprinkle(rng, x, rows, cols, ld)
	}
	return x, ld
}

// TestPanelTileMatchesDot2x4: the panel leaf and dot2x4 give the same
// bits for Gemm in its four transpose cases, both forms of Syrk and
// LowerMulMat, over shapes on both sides of every tile and block edge,
// alpha in {1, -1, 0.37} and beta in {0, 0.5, 1}, with NaN, Inf, -0 and
// subnormals in either operand. Shapes and scalings are paired by
// rotation rather than crossed, so every size meets every transpose case
// without the full cube of products.
func TestPanelTileMatchesDot2x4(t *testing.T) {
	if !panelSupported {
		t.Skip("no AVX: every product runs on dot2x4")
	}
	rng := rand.New(rand.NewSource(33))
	alphas, betas := []float64{1, -1, 0.37}, []float64{0, 0.5, 1}
	ns := len(panelSizes)
	step := 1
	if raceEnabled {
		step = 3
	}
	for c, tr := range [][2]Trans{{NoTrans, NoTrans}, {NoTrans, Transpose}, {Transpose, NoTrans}, {Transpose, Transpose}} {
		tA, tB := tr[0], tr[1]
		for im := 0; im < ns; im++ {
			for in := 0; in < ns; in += step {
				m, n, k := panelSizes[im], panelSizes[in], panelSizes[(im+in+c)%ns]
				alpha, beta := alphas[(im+c)%3], betas[(in+c)%3]
				arows, acols := m, k
				if tA == Transpose {
					arows, acols = k, m
				}
				brows, bcols := k, n
				if tB == Transpose {
					brows, bcols = n, k
				}
				special := im + in + c
				a, lda := panelMat(rng, arows, acols, special%3 == 0)
				b, ldb := panelMat(rng, brows, bcols, special%3 == 1)
				c0, ldc := panelMat(rng, m, n, false)
				got, want := bothLeaves(func() []float64 {
					out := append([]float64(nil), c0...)
					Gemm(tA, tB, m, n, k, alpha, a, lda, b, ldb, beta, out, ldc)
					return out
				})
				if i := sameBits(got, want); i >= 0 {
					t.Fatalf("Gemm tA=%v tB=%v m=%d n=%d k=%d alpha=%g beta=%g: C[%d][%d] = %v on the panel leaf, %v on dot2x4",
						tA, tB, m, n, k, alpha, beta, i/ldc, i%ldc, got[i], want[i])
				}
			}
		}
	}
	for c, trans := range []Trans{NoTrans, Transpose} {
		for in := 0; in < ns; in++ {
			for ik := (in + c) % 4; ik < ns; ik += 4 {
				n, k := panelSizes[in], panelSizes[ik]
				alpha, beta := alphas[(in+ik)%3], betas[(ik+c)%3]
				arows, acols := n, k
				if trans == Transpose {
					arows, acols = k, n
				}
				a, lda := panelMat(rng, arows, acols, (in+ik)%2 == 0)
				c0, ldc := panelMat(rng, n, n, false)
				got, want := bothLeaves(func() []float64 {
					out := append([]float64(nil), c0...)
					Syrk(trans, n, k, alpha, a, lda, beta, out, ldc)
					return out
				})
				if i := sameBits(got, want); i >= 0 {
					t.Fatalf("Syrk trans=%v n=%d k=%d alpha=%g beta=%g: C[%d][%d] = %v on the panel leaf, %v on dot2x4",
						trans, n, k, alpha, beta, i/ldc, i%ldc, got[i], want[i])
				}
			}
		}
	}
	for in, n := range panelSizes {
		for ic := in % 3; ic < ns; ic += 3 {
			cols := panelSizes[ic]
			l := randLower(rng, n)
			x := &Matrix{Rows: n, Cols: cols, Data: randSlice(rng, n*cols)}
			if in%2 == 0 {
				sprinkle(rng, l.Data, n, n, n)
			} else {
				sprinkle(rng, x.Data, n, cols, cols)
			}
			got, want := bothLeaves(func() []float64 {
				y := NewMatrix(n, cols)
				l.LowerMulMat(x, y)
				return y.Data
			})
			if i := sameBits(got, want); i >= 0 {
				t.Fatalf("LowerMulMat n=%d cols=%d: Y[%d][%d] = %v on the panel leaf, %v on dot2x4",
					n, cols, i/cols, i%cols, got[i], want[i])
			}
		}
	}
}
