package mpchol

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"exaclim/internal/linalg"
	"exaclim/internal/tile"
)

// factorError returns ||L L^T - A||_F / ||A||_F.
func factorError(l, a *linalg.Matrix) float64 {
	n := a.Rows
	rec := linalg.NewMatrix(n, n)
	linalg.Gemm(linalg.NoTrans, linalg.Transpose, n, n, n, 1.0, l.Data, n, l.Data, n, 0.0, rec.Data, n)
	diff := 0.0
	for i, v := range rec.Data {
		d := v - a.Data[i]
		diff += d * d
	}
	return math.Sqrt(diff) / a.FrobNorm()
}

// testMatrix builds the spectral-covariance-like SPD input the paper
// factorizes: strong diagonal, exponentially decaying off-diagonal.
func testMatrix(n int) *linalg.Matrix {
	return linalg.ExpCovariance(n, 6.0)
}

func TestDPVariantMatchesDenseFactor(t *testing.T) {
	n, b := 192, 32
	a := testMatrix(n)
	l, res, err := FactorDense(a, b, tile.VariantDP, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dense := a.Copy()
	if err := dense.Cholesky(); err != nil {
		t.Fatal(err)
	}
	if d := linalg.MaxAbsDiff(l, dense); d > 1e-12 {
		t.Errorf("tile DP factor deviates from dense factor by %g", d)
	}
	if res.Conversions != 0 {
		t.Errorf("pure DP factorization performed %d conversions", res.Conversions)
	}
	wantTasks := 0
	nt := n / b
	for k := 0; k < nt; k++ {
		rem := nt - k - 1
		wantTasks += 1 + rem + rem + rem*(rem-1)/2
	}
	if res.Stats.Tasks != wantTasks {
		t.Errorf("task count %d, want %d", res.Stats.Tasks, wantTasks)
	}
}

// TestVariantAccuracyLadder reproduces the qualitative content of paper
// Fig. 4: every variant yields a usable factor, with reconstruction error
// growing as precision drops, and each variant staying within its
// precision's error regime.
func TestVariantAccuracyLadder(t *testing.T) {
	n, b := 192, 32
	a := testMatrix(n)
	tolerance := map[tile.Variant]float64{
		tile.VariantDP:     1e-13,
		tile.VariantDPSP:   1e-5,
		tile.VariantDPSPHP: 2e-2,
		tile.VariantDPHP:   2e-2,
	}
	prev := 0.0
	for _, v := range tile.Variants {
		l, _, err := FactorDense(a, b, v, Options{})
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		e := factorError(l, a)
		if e > tolerance[v] {
			t.Errorf("%v: reconstruction error %g exceeds %g", v, e, tolerance[v])
		}
		if e+1e-16 < prev {
			// Error should not shrink as precision drops (weak monotone).
			t.Logf("note: %v error %g below previous %g (harmless)", v, e, prev)
		}
		prev = e
	}
}

func TestSenderVsReceiverSameNumbers(t *testing.T) {
	// The two conversion policies must produce bitwise identical factors;
	// only the conversion counts differ (paper Fig. 5 is a pure
	// performance effect).
	n, b := 128, 32
	a := testMatrix(n)
	nt := n / b
	s1 := tile.FromDense(a, b, tile.VariantDPHP.Map(nt))
	s2 := tile.FromDense(a, b, tile.VariantDPHP.Map(nt))
	r1, err := Factor(s1, Options{SenderConvert: false})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Factor(s2, Options{SenderConvert: true})
	if err != nil {
		t.Fatal(err)
	}
	d1, d2 := s1.ToDense(), s2.ToDense()
	if d := linalg.MaxAbsDiff(d1, d2); d != 0 {
		t.Errorf("conversion policy changed numerics by %g", d)
	}
	if r2.Conversions >= r1.Conversions {
		t.Errorf("sender-side conversions (%d) should be fewer than receiver-side (%d)",
			r2.Conversions, r1.Conversions)
	}
	if r2.MovedBytes >= r1.MovedBytes {
		t.Errorf("sender-side moved bytes (%d) should be fewer than receiver-side (%d)",
			r2.MovedBytes, r1.MovedBytes)
	}
}

func TestMixedPrecisionReducesMovedBytes(t *testing.T) {
	n, b := 128, 32
	a := testMatrix(n)
	nt := n / b
	var moved [2]int64
	for idx, v := range []tile.Variant{tile.VariantDP, tile.VariantDPHP} {
		s := tile.FromDense(a, b, v.Map(nt))
		res, err := Factor(s, Options{SenderConvert: true})
		if err != nil {
			t.Fatal(err)
		}
		moved[idx] = res.MovedBytes
	}
	if moved[1] >= moved[0] {
		t.Errorf("DP/HP moved %d bytes, DP moved %d; expected reduction", moved[1], moved[0])
	}
	// Most payloads shrink 4x; total should drop by at least 2.5x.
	if ratio := float64(moved[0]) / float64(moved[1]); ratio < 2.5 {
		t.Errorf("communication reduction %.2fx, want >= 2.5x", ratio)
	}
}

func TestDeterminism(t *testing.T) {
	n, b := 128, 32
	a := testMatrix(n)
	nt := n / b
	var prev *linalg.Matrix
	for trial := 0; trial < 3; trial++ {
		s := tile.FromDense(a, b, tile.VariantDPSPHP.Map(nt))
		if _, err := Factor(s, Options{Workers: 2}); err != nil {
			t.Fatal(err)
		}
		d := s.ToDense()
		if prev != nil {
			if diff := linalg.MaxAbsDiff(d, prev); diff != 0 {
				t.Fatalf("trial %d: nondeterministic factor (max diff %g)", trial, diff)
			}
		}
		prev = d
	}
}

func TestIndefiniteMatrixFails(t *testing.T) {
	n, b := 64, 32
	a := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, 1)
	}
	a.Set(40, 40, -5) // indefinite pivot in the second diagonal tile
	s := tile.FromDense(a, b, tile.VariantDP.Map(n/b))
	_, err := Factor(s, Options{})
	if !errors.Is(err, linalg.ErrNotPositiveDefinite) {
		t.Fatalf("expected ErrNotPositiveDefinite, got %v", err)
	}
}

func TestSingleTileMatrix(t *testing.T) {
	a := testMatrix(32)
	l, res, err := FactorDense(a, 32, tile.VariantDPHP, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Tasks != 1 {
		t.Errorf("single-tile factorization ran %d tasks", res.Stats.Tasks)
	}
	if e := factorError(l, a); e > 1e-13 {
		t.Errorf("single-tile error %g (diagonal tile is DP in DP/HP)", e)
	}
}

// TestSolveWithMixedFactor verifies the emulator's actual use: sampling
// with the mixed factor. x = L eta must have covariance close to A, so
// A^-1-weighted residuals of L L^T eta vs A eta stay small.
func TestSolveWithMixedFactor(t *testing.T) {
	n, b := 128, 32
	a := testMatrix(n)
	l, _, err := FactorDense(a, b, tile.VariantDPHP, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	eta := make([]float64, n)
	for i := range eta {
		eta[i] = rng.NormFloat64()
	}
	x := make([]float64, n)
	l.LowerMulVec(eta, x)
	// ||x||^2 should be within a modest factor of E||x||^2 = tr(A).
	trace := 0.0
	for i := 0; i < n; i++ {
		trace += a.At(i, i)
	}
	norm2 := 0.0
	for _, v := range x {
		norm2 += v * v
	}
	if norm2 < trace/10 || norm2 > trace*10 {
		t.Errorf("sample norm^2 %g wildly off trace %g", norm2, trace)
	}
}

func TestKernelCounts(t *testing.T) {
	n, b := 160, 32 // nt = 5
	a := testMatrix(n)
	nt := n / b
	s := tile.FromDense(a, b, tile.VariantDP.Map(nt))
	res, err := Factor(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantPotrf := nt
	wantTrsm := nt * (nt - 1) / 2
	wantSyrk := nt * (nt - 1) / 2
	wantGemm := 0
	for k := 0; k < nt; k++ {
		rem := nt - k - 1
		wantGemm += rem * (rem - 1) / 2
	}
	byK := res.Stats.ByKernel
	if byK["POTRF"].Count != wantPotrf || byK["TRSM"].Count != wantTrsm ||
		byK["SYRK"].Count != wantSyrk || byK["GEMM"].Count != wantGemm {
		t.Errorf("kernel counts POTRF=%d TRSM=%d SYRK=%d GEMM=%d, want %d/%d/%d/%d",
			byK["POTRF"].Count, byK["TRSM"].Count, byK["SYRK"].Count, byK["GEMM"].Count,
			wantPotrf, wantTrsm, wantSyrk, wantGemm)
	}
}

// The two dense products Factor issues, on the loops linalg ran before
// its tile kernel: Gemm(NoTrans, Transpose, alpha = -1, beta = 1) as
// load-add-store with the zero skip, Syrk(NoTrans, -1, 1) as one dot
// product per element.

func gemmNTRef[T linalg.Float](b int, a, c, out []T) {
	for i := 0; i < b; i++ {
		oi := out[i*b : (i+1)*b]
		for p := 0; p < b; p++ {
			av := a[i*b+p]
			if av == 0 {
				continue
			}
			av *= -1
			for j := range oi {
				oi[j] += av * c[j*b+p]
			}
		}
	}
}

func syrkNTRef[T linalg.Float](b int, a, out []T) {
	for i := 0; i < b; i++ {
		ai := a[i*b : (i+1)*b]
		for j := 0; j <= i; j++ {
			aj := a[j*b : (j+1)*b]
			var sum T
			for p, av := range ai {
				sum += av * aj[p]
			}
			out[i*b+j] += -1 * sum
		}
	}
}

// refFactor runs Factor's tasks in program order with the engine's own
// POTRF and TRSM (kernels the tile kernel did not touch) and the SYRK and
// GEMM updates on the reference loops, converting operands as the engine
// does.
func refFactor(s *tile.SymmMatrix) {
	e := &engine{s: s, cache: make(map[cacheKey]*tile.Tile)}
	b := s.B
	for k := 0; k < s.NT; k++ {
		e.potrf(k)
		for i := k + 1; i < s.NT; i++ {
			e.trsm(i, k)
		}
		for i := k + 1; i < s.NT; i++ {
			if out := s.Tiles[i][i]; computeInF64(out.Prec) {
				syrkNTRef(b, e.fetch(i, k, tile.FP64).F64, out.F64)
			} else {
				w := out.ToF32(nil)
				syrkNTRef(b, e.fetch(i, k, out.Prec).ToF32(nil), w)
				out.FromF32(w)
			}
			for j := k + 1; j < i; j++ {
				if out := s.Tiles[i][j]; computeInF64(out.Prec) {
					gemmNTRef(b, e.fetch(i, k, tile.FP64).F64, e.fetch(j, k, tile.FP64).F64, out.F64)
				} else {
					w := out.ToF32(nil)
					gemmNTRef(b, e.fetch(i, k, out.Prec).ToF32(nil), e.fetch(j, k, out.Prec).ToF32(nil), w)
					out.FromF32(w)
				}
			}
		}
	}
}

// TestFactorBitIdenticalToReferenceLoops pins the factor, in all four
// precision variants, to the one the retired product loops give: moving
// Gemm and Syrk onto the tile kernel changed no bit of a trained model.
func TestFactorBitIdenticalToReferenceLoops(t *testing.T) {
	const n, b = 256, 64
	a := testMatrix(n)
	for _, v := range tile.Variants {
		got, _, err := FactorDense(a, b, v, Options{SenderConvert: true})
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		ref := tile.FromDense(a, b, v.Map(n/b))
		refFactor(ref)
		want := ref.ToDense()
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				if g, w := got.At(i, j), want.At(i, j); math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("%v: L[%d][%d] = %x, reference loops give %x", v, i, j, math.Float64bits(g), math.Float64bits(w))
				}
			}
		}
	}
}

func BenchmarkFactorDP_256(b *testing.B)   { benchFactor(b, 256, tile.VariantDP) }
func BenchmarkFactorDPSP_256(b *testing.B) { benchFactor(b, 256, tile.VariantDPSP) }
func BenchmarkFactorDPHP_256(b *testing.B) { benchFactor(b, 256, tile.VariantDPHP) }

// BenchmarkMPChol_Factor is the factorization training runs at L = 32: a
// dense 1024 x 1024 covariance in 64 x 64 tiles, DP band with HP
// elsewhere. (testMatrix decays so fast that its far tiles are exact
// zeros in HP, which is not what an empirical covariance looks like.)
func BenchmarkMPChol_Factor(b *testing.B) {
	b.Run("n1024_b64_DPHP", func(b *testing.B) {
		benchFactorOf(b, linalg.RandomSPD(rand.New(rand.NewSource(1)), 1024, 1.0), tile.VariantDPHP)
	})
}

func benchFactor(b *testing.B, n int, v tile.Variant) { benchFactorOf(b, testMatrix(n), v) }

func benchFactorOf(b *testing.B, a *linalg.Matrix, v tile.Variant) {
	n := a.Rows
	nt := n / 64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := tile.FromDense(a, 64, v.Map(nt))
		b.StartTimer()
		if _, err := Factor(s, Options{SenderConvert: true}); err != nil {
			b.Fatal(err)
		}
	}
	flops := float64(n) * float64(n) * float64(n) / 3
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFlop/s")
}
