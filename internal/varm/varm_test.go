package varm

import (
	"math"
	"math/rand"
	"testing"

	"exaclim/internal/linalg"
)

// generateVAR simulates a known diagonal VAR(P) with innovation
// covariance U = V V^T.
func generateVAR(rng *rand.Rand, phi [][]float64, v *linalg.Matrix, T int) [][]float64 {
	P := len(phi)
	dim := len(phi[0])
	out := make([][]float64, T)
	eta := make([]float64, dim)
	for t := 0; t < T; t++ {
		f := make([]float64, dim)
		for d := range eta {
			eta[d] = rng.NormFloat64()
		}
		v.LowerMulVec(eta, f)
		for p := 0; p < P && t-p-1 >= 0; p++ {
			for d := 0; d < dim; d++ {
				f[d] += phi[p][d] * out[t-p-1][d]
			}
		}
		out[t] = f
	}
	return out
}

func lowerFactor(rng *rand.Rand, dim int) *linalg.Matrix {
	v := linalg.NewMatrix(dim, dim)
	for i := 0; i < dim; i++ {
		for j := 0; j < i; j++ {
			v.Set(i, j, 0.3*rng.NormFloat64())
		}
		v.Set(i, i, 0.5+rng.Float64())
	}
	return v
}

func TestFitRecoversCoefficients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	dim, P, T := 12, 3, 6000
	phi := [][]float64{make([]float64, dim), make([]float64, dim), make([]float64, dim)}
	for d := 0; d < dim; d++ {
		phi[0][d] = 0.5 - 0.02*float64(d)
		phi[1][d] = 0.2
		phi[2][d] = -0.1
	}
	v := lowerFactor(rng, dim)
	series := generateVAR(rng, phi, v, T)
	m, err := Fit([][][]float64{series}, P, 0)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < P; p++ {
		for d := 0; d < dim; d++ {
			if math.Abs(m.Phi[p][d]-phi[p][d]) > 0.08 {
				t.Errorf("phi[%d][%d] = %g, want %g", p, d, m.Phi[p][d], phi[p][d])
			}
		}
	}
}

func TestFitPoolsEnsembles(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	dim, P := 6, 2
	phi := [][]float64{make([]float64, dim), make([]float64, dim)}
	for d := 0; d < dim; d++ {
		phi[0][d] = 0.6
		phi[1][d] = -0.2
	}
	v := lowerFactor(rng, dim)
	var rmse func(R, T int, seed int64) float64
	rmse = func(R, T int, seed int64) float64 {
		rr := rand.New(rand.NewSource(seed))
		ens := make([][][]float64, R)
		for r := range ens {
			ens[r] = generateVAR(rr, phi, v, T)
		}
		m, err := Fit(ens, P, 0)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for p := 0; p < P; p++ {
			for d := 0; d < dim; d++ {
				e := m.Phi[p][d] - phi[p][d]
				sum += e * e
			}
		}
		return math.Sqrt(sum / float64(P*dim))
	}
	var e1, e5 float64
	for s := int64(0); s < 4; s++ {
		e1 += rmse(1, 300, 100+s)
		e5 += rmse(5, 300, 200+s)
	}
	if e5 >= e1 {
		t.Errorf("pooling 5 members did not reduce RMSE: %g vs %g", e5, e1)
	}
}

func TestStabilityGuard(t *testing.T) {
	// An explosive series must come back with a stabilized fit.
	dim, T := 3, 200
	series := make([][]float64, T)
	series[0] = []float64{1, 1, 1}
	for t2 := 1; t2 < T; t2++ {
		f := make([]float64, dim)
		for d := 0; d < dim; d++ {
			f[d] = 1.08 * series[t2-1][d] // unit-root-crossing growth
		}
		series[t2] = f
	}
	m, err := Fit([][][]float64{series}, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < dim; d++ {
		sum := math.Abs(m.Phi[0][d]) + math.Abs(m.Phi[1][d])
		if sum > 0.981 {
			t.Errorf("dimension %d: |phi| sum %g exceeds stability bound", d, sum)
		}
	}
}

func TestSilentDimensions(t *testing.T) {
	// All-zero dimensions (unexcited harmonics) must fit phi = 0, not NaN.
	T, dim := 100, 4
	series := make([][]float64, T)
	rng := rand.New(rand.NewSource(3))
	for t2 := range series {
		series[t2] = []float64{rng.NormFloat64(), 0, rng.NormFloat64(), 0}
	}
	m, err := Fit([][][]float64{series}, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 3; p++ {
		for d := 0; d < dim; d++ {
			if math.IsNaN(m.Phi[p][d]) {
				t.Fatalf("phi[%d][%d] is NaN", p, d)
			}
		}
		if math.Abs(m.Phi[p][1]) > 1e-6 || math.Abs(m.Phi[p][3]) > 1e-6 {
			t.Errorf("silent dimension got nonzero phi: %g, %g", m.Phi[p][1], m.Phi[p][3])
		}
	}
}

func TestResidualsInvertSimulation(t *testing.T) {
	// Residuals of the true model recover the innovations exactly.
	rng := rand.New(rand.NewSource(4))
	dim, P, T := 5, 2, 50
	phi := [][]float64{{0.5, 0.4, 0.3, 0.2, 0.1}, {-0.2, -0.1, 0, 0.1, 0.2}}
	m := &Model{P: P, Dim: dim, Phi: phi}
	innov := make([][]float64, T)
	series := make([][]float64, T)
	for t2 := 0; t2 < T; t2++ {
		xi := make([]float64, dim)
		for d := range xi {
			xi[d] = rng.NormFloat64()
		}
		innov[t2] = xi
		f := append([]float64(nil), xi...)
		for p := 0; p < P && t2-p-1 >= 0; p++ {
			for d := 0; d < dim; d++ {
				f[d] += phi[p][d] * series[t2-p-1][d]
			}
		}
		series[t2] = f
	}
	resid := m.Residuals(series)
	if len(resid) != T-P {
		t.Fatalf("residual length %d, want %d", len(resid), T-P)
	}
	for t2 := range resid {
		for d := 0; d < dim; d++ {
			if math.Abs(resid[t2][d]-innov[t2+P][d]) > 1e-12 {
				t.Fatalf("residual (%d,%d) = %g, want %g", t2, d, resid[t2][d], innov[t2+P][d])
			}
		}
	}
}

func TestEmpiricalCovarianceRecoversU(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dim, n := 8, 20000
	v := lowerFactor(rng, dim)
	want := linalg.NewMatrix(dim, dim)
	linalg.Gemm(linalg.NoTrans, linalg.Transpose, dim, dim, dim, 1.0, v.Data, dim, v.Data, dim, 0.0, want.Data, dim)
	resid := make([][]float64, n)
	eta := make([]float64, dim)
	for i := range resid {
		xi := make([]float64, dim)
		for d := range eta {
			eta[d] = rng.NormFloat64()
		}
		v.LowerMulVec(eta, xi)
		resid[i] = xi
	}
	u, err := EmpiricalCovariance([][][]float64{resid})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < dim; i++ {
		for j := 0; j < dim; j++ {
			se := 3 * math.Sqrt((want.At(i, i)*want.At(j, j)+want.At(i, j)*want.At(i, j))/float64(n))
			if math.Abs(u.At(i, j)-want.At(i, j)) > se+0.02 {
				t.Errorf("U[%d][%d] = %g, want %g (3se %g)", i, j, u.At(i, j), want.At(i, j), se)
			}
		}
	}
	// Must be exactly symmetric.
	for i := 0; i < dim; i++ {
		for j := 0; j < dim; j++ {
			if u.At(i, j) != u.At(j, i) {
				t.Fatal("empirical covariance not symmetric")
			}
		}
	}
}

func TestJitterMakesRankDeficientPD(t *testing.T) {
	// Fewer samples than dimensions: singular U; jitter must fix it.
	rng := rand.New(rand.NewSource(6))
	dim, n := 20, 5
	resid := make([][]float64, n)
	for i := range resid {
		xi := make([]float64, dim)
		for d := range xi {
			xi[d] = rng.NormFloat64()
		}
		resid[i] = xi
	}
	u, err := EmpiricalCovariance([][][]float64{resid})
	if err != nil {
		t.Fatal(err)
	}
	if err := u.Copy().Cholesky(); err == nil {
		t.Log("note: rank-deficient U factorized without jitter (rounding luck)")
	}
	j := Jitter(u, 1e-6)
	if j <= 0 {
		t.Fatal("jitter should be positive")
	}
	if err := u.Copy().Cholesky(); err != nil {
		t.Fatalf("jittered covariance still not PD: %v", err)
	}
}

func TestSimulateStationaryMoments(t *testing.T) {
	// Long simulation of AR(1) with phi = 0.6 and unit innovations:
	// stationary variance must be 1/(1-phi^2).
	dim := 4
	m := &Model{P: 1, Dim: dim, Phi: [][]float64{{0.6, 0.6, 0.6, 0.6}}}
	v := linalg.Eye(dim)
	rng := rand.New(rand.NewSource(7))
	const T = 40000
	var ss [4]float64
	simulateOne(m, v, rng, 200, T, func(t2 int, f []float64) {
		for d := 0; d < dim; d++ {
			ss[d] += f[d] * f[d]
		}
	})
	want := 1 / (1 - 0.36)
	for d := 0; d < dim; d++ {
		got := ss[d] / T
		if math.Abs(got-want) > 0.1 {
			t.Errorf("dimension %d: stationary variance %g, want %g", d, got, want)
		}
	}
}

func TestSimulateEmitsCopiesSafely(t *testing.T) {
	m := &Model{P: 1, Dim: 2, Phi: [][]float64{{0.5, 0.5}}}
	v := linalg.Eye(2)
	rng := rand.New(rand.NewSource(8))
	seen := make([][]float64, 0, 10)
	simulateOne(m, v, rng, 0, 10, func(t2 int, f []float64) {
		seen = append(seen, append([]float64(nil), f...))
	})
	if len(seen) != 10 {
		t.Fatalf("emitted %d states, want 10", len(seen))
	}
	// States must not be all equal (the RNG is running).
	if seen[0][0] == seen[5][0] && seen[0][1] == seen[5][1] {
		t.Error("states do not evolve")
	}
}

func TestFitValidation(t *testing.T) {
	if _, err := Fit(nil, 1, 0); err == nil {
		t.Error("expected error for empty input")
	}
	s := [][][]float64{{{1, 2}, {3, 4}}}
	if _, err := Fit(s, 0, 0); err == nil {
		t.Error("expected error for P=0")
	}
	if _, err := Fit(s, 2, 0); err == nil {
		t.Error("expected error for T <= P")
	}
	ragged := [][][]float64{{{1, 2}, {3}}}
	if _, err := Fit(ragged, 1, 0); err == nil {
		t.Error("expected error for ragged series")
	}
}
