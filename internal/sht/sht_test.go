package sht

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"exaclim/internal/legendre"
	"exaclim/internal/sphere"
)

// randomCoeffs draws coefficients of a real field: z_{l0} real, higher
// orders complex, all O(1).
func randomCoeffs(rng *rand.Rand, L int) Coeffs {
	c := NewCoeffs(L)
	for l := 0; l < L; l++ {
		c.Set(l, 0, complex(rng.NormFloat64(), 0))
		for m := 1; m <= l; m++ {
			c.Set(l, m, complex(rng.NormFloat64(), rng.NormFloat64()))
		}
	}
	return c
}

func maxCoeffDiff(a, b Coeffs) float64 {
	worst := 0.0
	for i := range a.C {
		re := math.Abs(real(a.C[i]) - real(b.C[i]))
		im := math.Abs(imag(a.C[i]) - imag(b.C[i]))
		if re > worst {
			worst = re
		}
		if im > worst {
			worst = im
		}
	}
	return worst
}

// TestRoundTrip is the central correctness test: Analyze(Synthesize(z))
// must be the identity on band-limited coefficient sets. The analysis and
// synthesis paths share no code beyond the FFT, so agreement pins down
// the Wigner-based eq. (7) pipeline and the Legendre-based synthesis at
// the same time.
func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, L := range []int{1, 2, 3, 8, 16, 33, 64} {
		for _, oversample := range []bool{false, true} {
			g := sphere.GridForBandLimit(L)
			if oversample {
				g = sphere.NewGrid(2*L+5, 4*L+3)
			}
			p, err := NewPlan(g, L)
			if err != nil {
				t.Fatalf("L=%d grid=%v: %v", L, g, err)
			}
			want := randomCoeffs(rng, L)
			field := p.Synthesize(want)
			got := p.Analyze(field)
			if d := maxCoeffDiff(got, want); d > 1e-10 {
				t.Errorf("L=%d grid=%v: round trip error %g", L, g, d)
			}
		}
	}
}

// TestAnalyzeSingleHarmonic feeds pure Y_lm fields (built directly from
// the Legendre package, bypassing Synthesize) and checks Analyze returns
// unit vectors.
func TestAnalyzeSingleHarmonic(t *testing.T) {
	const L = 12
	g := sphere.GridForBandLimit(L)
	p, err := NewPlan(g, L)
	if err != nil {
		t.Fatal(err)
	}
	for _, lm := range [][2]int{{0, 0}, {1, 0}, {1, 1}, {3, 2}, {7, 7}, {11, 4}} {
		l, m := lm[0], lm[1]
		f := sphere.NewField(g)
		for i := 0; i < g.NLat; i++ {
			s, c := math.Sincos(g.Colatitude(i))
			tab := legendre.AllAt(L, c, s, nil)
			pt := tab[legendre.Idx(l, m)]
			for j := 0; j < g.NLon; j++ {
				phi := g.Longitude(j)
				if m == 0 {
					f.Set(i, j, pt)
				} else {
					// Real field 2 Re(z Y_lm) with z = 1.
					f.Set(i, j, 2*pt*math.Cos(float64(m)*phi))
				}
			}
		}
		got := p.Analyze(f)
		for ll := 0; ll < L; ll++ {
			for mm := 0; mm <= ll; mm++ {
				want := complex(0, 0)
				if ll == l && mm == m {
					want = 1
				}
				if d := got.At(ll, mm) - want; math.Abs(real(d)) > 1e-10 || math.Abs(imag(d)) > 1e-10 {
					t.Errorf("Y(%d,%d): coefficient (%d,%d) = %v, want %v", l, m, ll, mm, got.At(ll, mm), want)
				}
			}
		}
	}
}

// TestSynthesizeMatchesDirectEvaluation checks the synthesis path against
// a brute-force sum over harmonics at every grid point.
func TestSynthesizeMatchesDirectEvaluation(t *testing.T) {
	const L = 6
	g := sphere.NewGrid(L+3, 2*L+4)
	p, err := NewPlan(g, L)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	c := randomCoeffs(rng, L)
	f := p.Synthesize(c)
	for i := 0; i < g.NLat; i++ {
		s, co := math.Sincos(g.Colatitude(i))
		tab := legendre.AllAt(L, co, s, nil)
		for j := 0; j < g.NLon; j++ {
			phi := g.Longitude(j)
			want := 0.0
			for l := 0; l < L; l++ {
				want += real(c.At(l, 0)) * tab[legendre.Idx(l, 0)]
				for m := 1; m <= l; m++ {
					z := c.At(l, m)
					pt := tab[legendre.Idx(l, m)]
					sm, cm := math.Sincos(float64(m) * phi)
					want += 2 * pt * (real(z)*cm - imag(z)*sm)
				}
			}
			if d := math.Abs(f.At(i, j) - want); d > 1e-10 {
				t.Fatalf("synthesis mismatch at (%d,%d): got %g want %g (diff %g)", i, j, f.At(i, j), want, d)
			}
		}
	}
}

// TestUpsamplingConsistency synthesizes the same coefficients on the
// minimal and on a much finer grid, then analyzes the fine field: the
// coefficients must be unchanged. This is the emulator's tunable-
// resolution property (paper Section I: "tunable spatio-temporal
// resolution").
func TestUpsamplingConsistency(t *testing.T) {
	const L = 16
	rng := rand.New(rand.NewSource(3))
	want := randomCoeffs(rng, L)
	fine := sphere.NewGrid(3*L+2, 6*L+1)
	pFine, err := NewPlan(fine, L)
	if err != nil {
		t.Fatal(err)
	}
	f := pFine.Synthesize(want)
	got := pFine.Analyze(f)
	if d := maxCoeffDiff(got, want); d > 1e-10 {
		t.Errorf("fine-grid round trip error %g", d)
	}
}

func TestParsevalSpatialVsSpectral(t *testing.T) {
	const L = 24
	g := sphere.NewGrid(4*L, 8*L) // oversampled so ring-area quadrature is accurate
	p, err := NewPlan(g, L)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	c := randomCoeffs(rng, L)
	f := p.Synthesize(c)
	// Spatial power: 4pi * area-weighted mean of Z^2.
	w := f.Grid.AreaWeights()
	spatial := 0.0
	for i := 0; i < g.NLat; i++ {
		for _, v := range f.Ring(i) {
			spatial += w[i] * v * v
		}
	}
	spatial *= 4 * math.Pi
	spectral := c.TotalPower()
	if math.Abs(spatial-spectral) > 2e-3*spectral {
		t.Errorf("Parseval: spatial %g vs spectral %g", spatial, spectral)
	}
}

func TestPackRealRoundTripAndIsometry(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, L := range []int{1, 2, 5, 16, 40} {
		c := randomCoeffs(rng, L)
		packed := c.PackReal(nil)
		if len(packed) != PackDim(L) {
			t.Fatalf("L=%d: packed length %d, want %d", L, len(packed), PackDim(L))
		}
		back := UnpackReal(packed)
		if d := maxCoeffDiff(back, c); d > 1e-14 {
			t.Errorf("L=%d: pack round trip error %g", L, d)
		}
		norm2 := 0.0
		for _, v := range packed {
			norm2 += v * v
		}
		if p := c.TotalPower(); math.Abs(norm2-p) > 1e-10*p {
			t.Errorf("L=%d: packed norm^2 %g vs total power %g", L, norm2, p)
		}
	}
}

func TestPackIndexLayout(t *testing.T) {
	const L = 9
	seen := make(map[int][3]int)
	for l := 0; l < L; l++ {
		if got := PackIndex(l, 0, 0); seen[got] != [3]int{} && got != 0 {
			t.Fatalf("duplicate pack index %d", got)
		} else {
			seen[got] = [3]int{l, 0, 0}
		}
		for m := 1; m <= l; m++ {
			for part := 0; part < 2; part++ {
				idx := PackIndex(l, m, part)
				if idx < 0 || idx >= PackDim(L) {
					t.Fatalf("pack index out of range: (%d,%d,%d) -> %d", l, m, part, idx)
				}
				if _, dup := seen[idx]; dup {
					t.Fatalf("duplicate pack index %d for (%d,%d,%d)", idx, l, m, part)
				}
				seen[idx] = [3]int{l, m, part}
				if PackDegree(idx) != l {
					t.Errorf("PackDegree(%d) = %d, want %d", idx, PackDegree(idx), l)
				}
			}
		}
	}
	if len(seen) != PackDim(L) {
		t.Fatalf("pack layout covers %d of %d indices", len(seen), PackDim(L))
	}
}

func TestPackUnpackProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		L := 1 + rng.Intn(24)
		c := randomCoeffs(rng, L)
		return maxCoeffDiff(UnpackReal(c.PackReal(nil)), c) < 1e-13
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPowerSpectrumSingleHarmonic(t *testing.T) {
	c := NewCoeffs(8)
	c.Set(5, 3, complex(2, -1)) // |z|^2 = 5, counts twice (m and -m)
	ps := c.PowerSpectrum()
	for l, v := range ps {
		want := 0.0
		if l == 5 {
			want = 2 * 5.0 / 11.0
		}
		if math.Abs(v-want) > 1e-14 {
			t.Errorf("C_%d = %g, want %g", l, v, want)
		}
	}
}

func TestCoeffsAtNegativeOrder(t *testing.T) {
	c := NewCoeffs(4)
	c.Set(2, 1, complex(3, 4))
	// z_{2,-1} = (-1)^1 conj(z_{2,1}) = -(3-4i) = (-3, 4i).
	got := c.At(2, -1)
	if real(got) != -3 || imag(got) != 4 {
		t.Errorf("At(2,-1) = %v, want (-3+4i)", got)
	}
	c.Set(3, 2, complex(1, -2))
	// z_{3,-2} = conj(z_{3,2}) = (1, 2i).
	got = c.At(3, -2)
	if real(got) != 1 || imag(got) != 2 {
		t.Errorf("At(3,-2) = %v, want (1+2i)", got)
	}
}

func TestNewPlanRejectsSmallGrids(t *testing.T) {
	if _, err := NewPlan(sphere.NewGrid(16, 31), 16); err == nil {
		t.Error("expected error: NLat = L does not support exact analysis")
	}
	if _, err := NewPlan(sphere.NewGrid(17, 30), 16); err == nil {
		t.Error("expected error: NLon < 2L-1")
	}
	if _, err := NewPlan(sphere.NewGrid(17, 31), 0); err == nil {
		t.Error("expected error for L=0")
	}
}

func TestAnalyzePanicsOnWrongGrid(t *testing.T) {
	p, err := NewPlan(sphere.GridForBandLimit(8), 8)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched grid")
		}
	}()
	p.Analyze(sphere.NewField(sphere.NewGrid(32, 64)))
}

// TestNonBandLimitedConvergence: analyzing a smooth function that is not
// band-limited and re-synthesizing must converge as L grows; the paper
// absorbs the truncation residual into the nugget term epsilon (eq. of
// Section III-A1).
func TestNonBandLimitedConvergence(t *testing.T) {
	g := sphere.NewGrid(65, 128)
	eval := func(theta, phi float64) float64 {
		x := math.Sin(theta) * math.Cos(phi)
		z := math.Cos(theta)
		return math.Exp(0.8*x) * math.Cos(2*z)
	}
	f := sphere.NewField(g)
	for i := 0; i < g.NLat; i++ {
		for j := 0; j < g.NLon; j++ {
			f.Set(i, j, eval(g.Colatitude(i), g.Longitude(j)))
		}
	}
	var prev float64 = math.Inf(1)
	for _, L := range []int{4, 8, 16, 32} {
		p, err := NewPlan(g, L)
		if err != nil {
			t.Fatal(err)
		}
		back := p.Synthesize(p.Analyze(f))
		rms := 0.0
		for k := range f.Data {
			d := back.Data[k] - f.Data[k]
			rms += d * d
		}
		rms = math.Sqrt(rms / float64(len(f.Data)))
		if rms >= prev {
			t.Errorf("L=%d: truncation residual %g did not decrease (prev %g)", L, rms, prev)
		}
		prev = rms
	}
	if prev > 1e-8 {
		t.Errorf("L=32 residual %g, want near machine precision for this smooth field", prev)
	}
}

func benchPlan(b *testing.B, L int) *Plan {
	g := sphere.GridForBandLimit(L)
	p, err := NewPlan(g, L)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

func BenchmarkSynthesize_L64(b *testing.B) {
	p := benchPlan(b, 64)
	rng := rand.New(rand.NewSource(1))
	c := randomCoeffs(rng, 64)
	f := sphere.NewField(p.Grid)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.SynthesizeInto(f, c)
	}
}
