package varm

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSpectralRadiusAR1(t *testing.T) {
	for _, phi := range []float64{0, 0.3, -0.8, 0.99, 1.2} {
		if got := SpectralRadius([]float64{phi}); math.Abs(got-math.Abs(phi)) > 1e-12 {
			t.Errorf("AR(1) phi=%g: radius %g, want %g", phi, got, math.Abs(phi))
		}
	}
}

// TestSpectralRadiusAR2KnownRoots: for f_t = a f_{t-1} + b f_{t-2}, the
// characteristic roots solve z^2 - a z - b = 0.
func TestSpectralRadiusAR2KnownRoots(t *testing.T) {
	cases := []struct{ a, b float64 }{
		{0.5, 0.3},   // real roots
		{1.5, -0.56}, // real roots 0.7, 0.8
		{0.6, -0.58}, // complex pair, modulus sqrt(0.58)
		{1.0, 0.2},   // explosive: root > 1
	}
	for _, c := range cases {
		disc := c.a*c.a + 4*c.b
		var want float64
		if disc >= 0 {
			r1 := (c.a + math.Sqrt(disc)) / 2
			r2 := (c.a - math.Sqrt(disc)) / 2
			want = math.Max(math.Abs(r1), math.Abs(r2))
		} else {
			want = math.Sqrt(-c.b) // |complex pair| = sqrt(-b)
		}
		got := SpectralRadius([]float64{c.a, c.b})
		if math.Abs(got-want) > 0.02 {
			t.Errorf("AR(2) a=%g b=%g: radius %g, want %g", c.a, c.b, got, want)
		}
	}
}

// TestFittedModelsAreStationary: the fitting-time guard must leave every
// dimension with spectral radius below 1, which is what makes SimulateBatch
// safe for arbitrarily long emulations.
func TestFittedModelsAreStationary(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	dim, P, T := 10, 3, 800
	phi := [][]float64{make([]float64, dim), make([]float64, dim), make([]float64, dim)}
	for d := 0; d < dim; d++ {
		phi[0][d] = 0.9 // strong persistence near the boundary
		phi[1][d] = 0.05
		phi[2][d] = 0.02
	}
	v := lowerFactor(rng, dim)
	series := generateVAR(rng, phi, v, T)
	m, err := Fit([][][]float64{series}, P, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r := m.MaxSpectralRadius(); r >= 1 {
		t.Errorf("fitted model spectral radius %g >= 1", r)
	}
}

// TestStabilityGuardBoundsRadius: even a deliberately explosive series
// yields a model with radius < 1 after the guard.
func TestStabilityGuardBoundsRadius(t *testing.T) {
	T := 300
	series := make([][]float64, T)
	series[0] = []float64{1}
	for i := 1; i < T; i++ {
		series[i] = []float64{1.05 * series[i-1][0]}
	}
	m, err := Fit([][][]float64{series}, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r := m.MaxSpectralRadius(); r >= 1 {
		t.Errorf("guarded fit still explosive: radius %g", r)
	}
}

// TestSpectralRadiusStationarityProperty: the companion matrix's
// infinity norm is max(sum|phi|, 1), so sum|phi| < 1 implies the radius
// is below 1 (the guard's sufficient condition), and the radius never
// exceeds that norm.
func TestSpectralRadiusStationarityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := 1 + rng.Intn(4)
		phi := make([]float64, p)
		sum := 0.0
		for i := range phi {
			phi[i] = rng.NormFloat64() * 0.3
			sum += math.Abs(phi[i])
		}
		r := SpectralRadius(phi)
		if sum < 1 && r >= 1 {
			return false
		}
		return r <= math.Max(sum, 1)+0.02
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
