package emulator

import (
	"bytes"
	"math"
	"testing"

	"exaclim/internal/era5"
	"exaclim/internal/sphere"
	"exaclim/internal/stats"
	"exaclim/internal/tile"
	"exaclim/internal/trend"
)

// trainSmall trains an emulator on a short synthetic daily dataset. The
// configuration is intentionally tiny so the full pipeline (trend, SHT,
// VAR, covariance, mixed Cholesky) runs in seconds on two cores.
func trainSmall(t *testing.T, variant tile.Variant, years int) (*Model, []sphere.Field) {
	t.Helper()
	gen, err := era5.New(era5.Config{
		Grid: sphere.GridForBandLimit(16), L: 16, Seed: 11,
		StartYear: 1990, StepsPerDay: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	fields := gen.Run(years * era5.DaysPerYear)
	cfg := Config{
		L: 12, P: 2,
		Trend: trend.Options{
			StepsPerYear: era5.DaysPerYear, K: 2,
			RhoGrid: []float64{0.5, 0.85},
		},
		Variant: variant,
	}
	m, err := Train([][]sphere.Field{fields}, gen.AnnualRF(15, years+1), 15, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m, fields
}

func TestTrainProducesSaneModel(t *testing.T) {
	m, _ := trainSmall(t, tile.VariantDP, 3)
	if m.Diag.CovDim != 144 {
		t.Errorf("covariance dimension %d, want 144 (=L^2)", m.Diag.CovDim)
	}
	if m.Diag.TileSize <= 0 || m.Diag.CovDim%m.Diag.TileSize != 0 {
		t.Errorf("bad tile size %d", m.Diag.TileSize)
	}
	if len(m.NuggetVar) != m.Grid.Points() {
		t.Errorf("nugget length %d, want %d", len(m.NuggetVar), m.Grid.Points())
	}
	for pix, v := range m.NuggetVar {
		if v < 0 || math.IsNaN(v) {
			t.Fatalf("nugget variance at %d is %g", pix, v)
		}
	}
	// Standardized residuals have variance ~1; truncation at L=12 of an
	// L=16 process plus measurement noise leaves a visible but modest
	// nugget.
	mean := stats.Mean(m.NuggetVar)
	if mean <= 0 || mean > 0.8 {
		t.Errorf("mean nugget variance %g outside (0, 0.8]", mean)
	}
	// VAR coefficients should show temporal persistence at low degrees.
	if phi := m.VAR.Phi[0][1]; phi < 0.2 {
		t.Errorf("lag-1 coefficient of degree-1 harmonic = %g, want persistence > 0.2", phi)
	}
}

// TestEmulationConsistency is the repository's version of paper Fig. 2:
// the emulation must be statistically consistent with the simulation.
func TestEmulationConsistency(t *testing.T) {
	m, sim := trainSmall(t, tile.VariantDP, 3)
	c, err := m.CheckConsistency(sim, 99)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(c.MeanDiff) > 0.6 {
		t.Errorf("mean difference %g K too large: %v", c.MeanDiff, c)
	}
	if c.StdRatio < 0.85 || c.StdRatio > 1.15 {
		t.Errorf("std ratio %g outside [0.85, 1.15]: %v", c.StdRatio, c)
	}
	if c.KS > 0.12 {
		t.Errorf("KS distance %g too large: %v", c.KS, c)
	}
	if c.SpectrumLogErr > 0.5 {
		t.Errorf("spectrum log error %g too large: %v", c.SpectrumLogErr, c)
	}
}

// TestMixedPrecisionEmulationConsistency reproduces the message of paper
// Fig. 4: DP/SP and DP/HP emulations remain statistically consistent.
func TestMixedPrecisionEmulationConsistency(t *testing.T) {
	for _, v := range []tile.Variant{tile.VariantDPSP, tile.VariantDPHP} {
		m, sim := trainSmall(t, v, 2)
		c, err := m.CheckConsistency(sim, 42)
		if err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if c.StdRatio < 0.8 || c.StdRatio > 1.25 || c.KS > 0.15 {
			t.Errorf("%v: emulation inconsistent: %v", v, c)
		}
		if m.Diag.FactorBytes >= m.Diag.FactorBytesDP {
			t.Errorf("%v: factor bytes %d not below DP %d", v, m.Diag.FactorBytes, m.Diag.FactorBytesDP)
		}
	}
}

func TestEmulationSeasonalCycle(t *testing.T) {
	m, sim := trainSmall(t, tile.VariantDP, 3)
	emu, err := m.Emulate(7, 0, len(sim))
	if err != nil {
		t.Fatal(err)
	}
	// Compare the winter-vs-summer contrast of a northern ring between
	// simulation and emulation.
	ringMean := func(fields []sphere.Field, ring, from, to int) float64 {
		sum, n := 0.0, 0
		for tt := from; tt < to; tt++ {
			for _, v := range fields[tt].Ring(ring) {
				sum += v
				n++
			}
		}
		return sum / float64(n)
	}
	ring := m.Grid.NLat / 4
	simContrast := ringMean(sim, ring, 181, 212) - ringMean(sim, ring, 0, 31)
	emuContrast := ringMean(emu, ring, 181, 212) - ringMean(emu, ring, 0, 31)
	if simContrast < 1 {
		t.Skip("simulation lacks seasonal contrast on this ring")
	}
	if emuContrast < 0.5*simContrast || emuContrast > 1.5*simContrast {
		t.Errorf("emulated seasonal contrast %g K vs simulated %g K", emuContrast, simContrast)
	}
}

func TestEmulateSeedsAreIndependentAndReproducible(t *testing.T) {
	m, _ := trainSmall(t, tile.VariantDP, 2)
	a1, err := m.Emulate(5, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := m.Emulate(5, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Emulate(6, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	for tt := range a1 {
		for pix := range a1[tt].Data {
			if a1[tt].Data[pix] != a2[tt].Data[pix] {
				t.Fatal("same seed produced different emulations")
			}
		}
	}
	diff := false
	for pix := range a1[0].Data {
		if a1[0].Data[pix] != b[0].Data[pix] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical emulations")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	m, _ := trainSmall(t, tile.VariantDPHP, 2)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	size, err := m.SizeBytes()
	if err != nil {
		t.Fatal(err)
	}
	if int64(buf.Len()) != size {
		t.Errorf("SizeBytes %d != encoded length %d", size, buf.Len())
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// The loaded model must emulate identically to the original.
	want, err := m.Emulate(3, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.Emulate(3, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	for tt := range want {
		for pix := range want[tt].Data {
			if want[tt].Data[pix] != got[tt].Data[pix] {
				t.Fatalf("loaded model emulates differently at t=%d pix=%d", tt, pix)
			}
		}
	}
}

func TestModelSmallerThanData(t *testing.T) {
	m, sim := trainSmall(t, tile.VariantDPHP, 2)
	size, err := m.SizeBytes()
	if err != nil {
		t.Fatal(err)
	}
	raw := int64(len(sim)) * int64(m.Grid.Points()) * 8
	if size >= raw {
		t.Errorf("model size %d B not below raw data %d B", size, raw)
	}
}

func TestTrainValidation(t *testing.T) {
	grid := sphere.GridForBandLimit(8)
	fields := []sphere.Field{sphere.NewField(grid)}
	cases := []Config{
		{L: 0, P: 1, Trend: trend.Options{StepsPerYear: 10}},
		{L: 8, P: 0, Trend: trend.Options{StepsPerYear: 10}},
		{L: 9, P: 1, Trend: trend.Options{StepsPerYear: 10}},              // unsupported band limit
		{L: 8, P: 1, TileSize: 7, Trend: trend.Options{StepsPerYear: 10}}, // 64 % 7 != 0
	}
	rf := []float64{1, 1.1}
	for i, cfg := range cases {
		if _, err := Train([][]sphere.Field{fields}, rf, 0, cfg); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
	if _, err := Train(nil, rf, 0, Config{L: 8, P: 1}); err == nil {
		t.Error("expected error for empty ensemble")
	}
}

// TestEmulateForEachStreaming checks the streaming contract serving
// relies on: steps arrive in order, and every field is freshly allocated,
// so a retained field is not overwritten by later steps.
func TestEmulateForEachStreaming(t *testing.T) {
	m, _ := trainSmall(t, tile.VariantDP, 2)
	var kept []sphere.Field
	err := m.EmulateUnderForEach(nil, 1, 100, 5, func(tt int, f sphere.Field) {
		if tt != len(kept) {
			t.Errorf("callback order: got %d want %d", tt, len(kept))
		}
		if f.Grid != m.Grid {
			t.Error("emulated field grid mismatch")
		}
		kept = append(kept, f)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) != 5 {
		t.Fatalf("emitted %d fields, want 5", len(kept))
	}
	want, err := m.Emulate(1, 100, 5)
	if err != nil {
		t.Fatal(err)
	}
	for tt := range kept {
		if tt > 0 && &kept[tt].Data[0] == &kept[tt-1].Data[0] {
			t.Fatalf("step %d: field storage is shared", tt)
		}
		for pix, v := range kept[tt].Data {
			if math.Float64bits(v) != math.Float64bits(want[tt].Data[pix]) {
				t.Fatalf("step %d pixel %d: retained field changed after later steps", tt, pix)
			}
		}
	}
}
