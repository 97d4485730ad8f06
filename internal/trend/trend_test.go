package trend

import (
	"math"
	"math/rand"
	"testing"

	"exaclim/internal/era5"
	"exaclim/internal/forcing"
	"exaclim/internal/linalg"
	"exaclim/internal/sphere"
)

// synthFields builds fields obeying eq. (2) exactly with known per-pixel
// parameters and iid N(0, sigma^2) noise.
func synthFields(rng *rand.Rand, grid sphere.Grid, T int, opt Options,
	annualRF []float64, lead int, beta [][]float64, rho, sigma []float64) []sphere.Field {
	designs := make(map[float64]*linalg.Matrix)
	fields := make([]sphere.Field, T)
	for t := 0; t < T; t++ {
		fields[t] = sphere.NewField(grid)
	}
	for pix := 0; pix < grid.Points(); pix++ {
		x, ok := designs[rho[pix]]
		if !ok {
			lag := lagSeries(annualRF, rho[pix])
			x = design(T, opt, annualRF, lag, lead)
			designs[rho[pix]] = x
		}
		for t := 0; t < T; t++ {
			fields[t].Data[pix] = linalg.Dot(x.Row(t), beta[pix]) + sigma[pix]*rng.NormFloat64()
		}
	}
	return fields
}

func smallOptions() Options {
	return Options{StepsPerYear: 73, K: 2, RhoGrid: []float64{0, 0.3, 0.6, 0.9}}
}

// TestExactRecoveryNoiseFree: with sigma = 0 the OLS fit must reproduce
// the generating coefficients to near machine precision and select the
// true rho.
func TestExactRecoveryNoiseFree(t *testing.T) {
	grid := sphere.NewGrid(5, 8)
	opt := smallOptions()
	rng := rand.New(rand.NewSource(1))
	years := 12
	T := years * opt.StepsPerYear
	// A wiggly forcing record keeps current and lagged forcing far from
	// collinear, so every coefficient is identified. (Smooth exponential
	// pathways leave the beta1/beta2 split ill-posed: only the total
	// response is identified. TestEra5TrendRecovery covers that regime.)
	annual := make([]float64, years+5)
	for i := range annual {
		annual[i] = 2 + math.Sin(float64(i)*1.7) + 0.5*rng.NormFloat64()
	}
	nPix := grid.Points()
	p := opt.Params()
	beta := make([][]float64, nPix)
	rho := make([]float64, nPix)
	sigma := make([]float64, nPix)
	for pix := 0; pix < nPix; pix++ {
		beta[pix] = make([]float64, p)
		for j := range beta[pix] {
			beta[pix][j] = rng.NormFloat64()
		}
		beta[pix][0] += 280              // realistic intercept
		beta[pix][2] = 1 + rng.Float64() // make the lag term matter
		rho[pix] = opt.RhoGrid[rng.Intn(len(opt.RhoGrid))]
		sigma[pix] = 0
	}
	fields := synthFields(rng, grid, T, opt, annual, 0, beta, rho, sigma)
	fit, err := FitEnsemble([][]sphere.Field{fields}, annual, 0, opt)
	if err != nil {
		t.Fatal(err)
	}
	for pix := 0; pix < nPix; pix++ {
		if fit.Rho[pix] != rho[pix] {
			t.Errorf("pixel %d: rho = %g, want %g", pix, fit.Rho[pix], rho[pix])
			continue
		}
		for j := 0; j < p; j++ {
			// Tolerance reflects the 1e-9-scale safety ridge acting on a
			// ~280 K intercept, not estimation error.
			if math.Abs(fit.Beta[pix][j]-beta[pix][j]) > 1e-4 {
				t.Errorf("pixel %d coef %d: %g, want %g", pix, j, fit.Beta[pix][j], beta[pix][j])
			}
		}
		if fit.Sigma[pix] > 1e-4 {
			t.Errorf("pixel %d: sigma %g, want ~0", pix, fit.Sigma[pix])
		}
	}
}

// TestNoisyRecovery: with noise, estimates concentrate near the truth and
// sigma is estimated consistently.
func TestNoisyRecovery(t *testing.T) {
	grid := sphere.NewGrid(3, 4)
	opt := smallOptions()
	rng := rand.New(rand.NewSource(2))
	years := 40
	T := years * opt.StepsPerYear
	annual := forcing.Historical().Annual(1960, years+5)
	nPix := grid.Points()
	p := opt.Params()
	beta := make([][]float64, nPix)
	rho := make([]float64, nPix)
	sigma := make([]float64, nPix)
	for pix := 0; pix < nPix; pix++ {
		beta[pix] = []float64{285, 0.8, 0.5, 3, -2, 1, 0.5}
		if len(beta[pix]) != p {
			t.Fatalf("test setup: beta length %d, want %d", len(beta[pix]), p)
		}
		rho[pix] = 0.6
		sigma[pix] = 1.5
	}
	fields := synthFields(rng, grid, T, opt, annual, 0, beta, rho, sigma)
	fit, err := FitEnsemble([][]sphere.Field{fields}, annual, 0, opt)
	if err != nil {
		t.Fatal(err)
	}
	for pix := 0; pix < nPix; pix++ {
		if math.Abs(fit.Sigma[pix]-1.5) > 0.15 {
			t.Errorf("pixel %d: sigma %g, want ~1.5", pix, fit.Sigma[pix])
		}
		// Harmonic coefficients are strongly identified.
		for j := 3; j < p; j++ {
			if math.Abs(fit.Beta[pix][j]-beta[pix][j]) > 0.15 {
				t.Errorf("pixel %d harmonic %d: %g, want %g", pix, j, fit.Beta[pix][j], beta[pix][j])
			}
		}
	}
}

// TestEnsemblePoolingTightensEstimates: the pooled fit over R members has
// visibly lower error on the harmonic coefficients than a single member.
func TestEnsemblePoolingTightensEstimates(t *testing.T) {
	grid := sphere.NewGrid(3, 4)
	opt := smallOptions()
	years := 6
	T := years * opt.StepsPerYear
	annual := forcing.Historical().Annual(1990, years+5)
	nPix := grid.Points()
	p := opt.Params()
	beta := make([][]float64, nPix)
	rho := make([]float64, nPix)
	sigma := make([]float64, nPix)
	for pix := 0; pix < nPix; pix++ {
		beta[pix] = []float64{285, 0.8, 0.5, 3, -2, 1, 0.5}
		rho[pix] = 0.6
		sigma[pix] = 3
	}
	errFor := func(R int, seed int64) float64 {
		rng := rand.New(rand.NewSource(seed))
		ens := make([][]sphere.Field, R)
		for r := range ens {
			ens[r] = synthFields(rng, grid, T, opt, annual, 0, beta, rho, sigma)
		}
		fit, err := FitEnsemble(ens, annual, 0, opt)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for pix := 0; pix < nPix; pix++ {
			for j := 3; j < p; j++ {
				d := fit.Beta[pix][j] - beta[pix][j]
				sum += d * d
			}
		}
		return sum
	}
	// Average over a few seeds to avoid flakiness.
	var e1, e4 float64
	for s := int64(0); s < 3; s++ {
		e1 += errFor(1, 10+s)
		e4 += errFor(4, 20+s)
	}
	if e4 >= e1 {
		t.Errorf("pooling over 4 members did not reduce error: R=1 %g vs R=4 %g", e1, e4)
	}
}

func TestStandardizeRoundTrip(t *testing.T) {
	grid := sphere.NewGrid(4, 8)
	opt := smallOptions()
	rng := rand.New(rand.NewSource(3))
	years := 8
	T := years * opt.StepsPerYear
	annual := forcing.Historical().Annual(1990, years+5)
	nPix := grid.Points()
	beta := make([][]float64, nPix)
	rho := make([]float64, nPix)
	sigma := make([]float64, nPix)
	for pix := 0; pix < nPix; pix++ {
		beta[pix] = []float64{280 + rng.Float64()*20, 1, 0.5, 2, 1, 0.5, 0.2}
		rho[pix] = 0.3
		sigma[pix] = 2
	}
	fields := synthFields(rng, grid, T, opt, annual, 0, beta, rho, sigma)
	fit, err := FitEnsemble([][]sphere.Field{fields}, annual, 0, opt)
	if err != nil {
		t.Fatal(err)
	}
	z := make([]sphere.Field, len(fields))
	var step Step
	for tt := range fields {
		z[tt] = sphere.NewField(grid)
		fit.StepAt(0, tt, &step)
		step.Standardize(z[tt], fields[tt])
	}
	// Residual variance ~1 on average.
	var ss float64
	var n int
	for t2 := range z {
		for _, v := range z[t2].Data {
			ss += v * v
			n++
		}
	}
	if v := ss / float64(n); math.Abs(v-1) > 0.1 {
		t.Errorf("standardized variance %g, want ~1", v)
	}
	// Unstandardize must invert Standardize exactly.
	for _, tt := range []int{0, T / 2, T - 1} {
		back := z[tt].Copy()
		fit.StepAt(0, tt, &step)
		step.Unstandardize(back)
		for pix := range back.Data {
			if math.Abs(back.Data[pix]-fields[tt].Data[pix]) > 1e-9 {
				t.Fatalf("round trip failed at t=%d pix=%d: %g vs %g", tt, pix, back.Data[pix], fields[tt].Data[pix])
			}
		}
	}
}

// TestDiurnalHarmonics: hourly data with a 24-step cycle requires the
// KDiurnal extension; the fitted diurnal amplitude must match.
func TestDiurnalHarmonics(t *testing.T) {
	grid := sphere.NewGrid(3, 4)
	opt := Options{StepsPerYear: 24 * 30, K: 1, StepsPerDay: 24, KDiurnal: 1,
		RhoGrid: []float64{0}}
	years := 2
	T := years * opt.StepsPerYear
	annual := forcing.Historical().Annual(2000, years+3)
	rng := rand.New(rand.NewSource(4))
	fields := make([]sphere.Field, T)
	const diurnalAmp = 5.0
	for tt := 0; tt < T; tt++ {
		f := sphere.NewField(grid)
		for pix := range f.Data {
			f.Data[pix] = 290 + diurnalAmp*math.Cos(2*math.Pi*float64(tt)/24) + 0.5*rng.NormFloat64()
		}
		fields[tt] = f
	}
	fit, err := FitEnsemble([][]sphere.Field{fields}, annual, 0, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Diurnal cos coefficient is at index 3 + 2*K = 5.
	for pix := 0; pix < grid.Points(); pix++ {
		if math.Abs(fit.Beta[pix][5]-diurnalAmp) > 0.1 {
			t.Errorf("pixel %d: diurnal cos amp %g, want %g", pix, fit.Beta[pix][5], diurnalAmp)
		}
	}
}

// TestEra5TrendRecovery is the integration test against the synthetic
// ERA5 generator: the fitted warming response (beta1 + beta2, the
// equilibrium response to a unit forcing increase) must track the
// generator's known sensitivity map.
func TestEra5TrendRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("long integration test")
	}
	years := 35
	const members = 3
	var gen *era5.Generator
	ens := make([][]sphere.Field, members)
	for r := 0; r < members; r++ {
		g, err := era5.New(era5.Config{
			Grid: sphere.GridForBandLimit(12), L: 12, Seed: 7, Member: r,
			StartYear: 1980, StepsPerDay: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		ens[r] = g.Run(years * era5.DaysPerYear)
		gen = g
	}
	annual := gen.AnnualRF(20, years+1)
	opt := Options{StepsPerYear: era5.DaysPerYear, K: 3, Workers: 0}
	fit, err := FitEnsemble(ens, annual, 20, opt)
	if err != nil {
		t.Fatal(err)
	}
	sens := gen.Sensitivity()
	// With a smooth forcing path the beta1/beta2 split is ill-posed; the
	// identified quantity is the warming the trend model attributes to
	// forcing over the window. Compare fitted warming between the first
	// and last year (same day-of-year, so harmonics cancel) with the
	// generator's known response.
	t0, t1 := 0, (years-1)*era5.DaysPerYear
	m0, m1 := meanAt(fit, 0, t0), meanAt(fit, 0, t1)
	rf := forcing.Historical()
	xc0 := rf.RF(1980)
	xc1 := rf.RF(1980 + float64(years-1))
	lag := forcing.LaggedResponse(gen.AnnualRF(100, years), gen.LagRho(), rf.RF(1880))
	dForcing := 0.6*(xc1-xc0) + 0.4*(lag[100+years-1]-lag[100])
	var sx, sy, sxx, syy, sxy float64
	n := float64(len(sens))
	for pix := range sens {
		x := sens[pix] * dForcing        // true warming
		y := m1.Data[pix] - m0.Data[pix] // fitted warming
		sx += x
		sy += y
		sxx += x * x
		syy += y * y
		sxy += x * y
	}
	r := (n*sxy - sx*sy) / math.Sqrt((n*sxx-sx*sx)*(n*syy-sy*sy))
	if r < 0.45 {
		t.Errorf("correlation between fitted and true warming = %.3f, want > 0.45", r)
	}
	meanTrue := sx / n
	meanFit := sy / n
	if meanFit < 0.6*meanTrue || meanFit > 1.6*meanTrue {
		t.Errorf("mean fitted warming %g K vs true %g K", meanFit, meanTrue)
	}
}

func TestOptionValidation(t *testing.T) {
	grid := sphere.NewGrid(3, 4)
	fields := []sphere.Field{sphere.NewField(grid)}
	cases := []Options{
		{StepsPerYear: 0},
		{StepsPerYear: 10, K: -1},
		{StepsPerYear: 10, KDiurnal: 2},             // no StepsPerDay
		{StepsPerYear: 10, RhoGrid: []float64{1.0}}, // rho out of range
		{StepsPerYear: 10, RhoGrid: []float64{-0.1}},
	}
	for i, opt := range cases {
		if _, err := FitEnsemble([][]sphere.Field{fields}, []float64{1, 2}, 0, opt); err == nil {
			t.Errorf("case %d: expected option validation error", i)
		}
	}
	// Insufficient RF history.
	opt := Options{StepsPerYear: 5}
	long := make([]sphere.Field, 25) // needs 5 years of RF
	for i := range long {
		long[i] = sphere.NewField(grid)
	}
	if _, err := FitEnsemble([][]sphere.Field{long}, []float64{1, 2}, 0, opt); err == nil {
		t.Error("expected error for short RF series")
	}
	if _, err := FitEnsemble(nil, []float64{1}, 0, Options{StepsPerYear: 5}); err == nil {
		t.Error("expected error for empty ensemble")
	}
}

func TestMeanFieldBeyondTrainingWindow(t *testing.T) {
	grid := sphere.NewGrid(3, 4)
	opt := Options{StepsPerYear: 10, K: 1, RhoGrid: []float64{0.5}}
	annual := []float64{1, 1.1, 1.2}
	rng := rand.New(rand.NewSource(5))
	nPix := grid.Points()
	beta := make([][]float64, nPix)
	rho := make([]float64, nPix)
	sigma := make([]float64, nPix)
	for pix := 0; pix < nPix; pix++ {
		beta[pix] = []float64{280, 1, 0.5, 2, 1}
		rho[pix] = 0.5
	}
	fields := synthFields(rng, grid, 30, opt, annual, 0, beta, rho, sigma)
	fit, err := FitEnsemble([][]sphere.Field{fields}, annual, 0, opt)
	if err != nil {
		t.Fatal(err)
	}
	extended := fit.WithAnnualRF(append(append([]float64(nil), annual...), 1.3, 1.4))
	m := meanAt(extended, 0, 45) // year 4, inside the extension
	if m.Data[0] < 270 || m.Data[0] > 295 {
		t.Errorf("extrapolated mean %g K implausible", m.Data[0])
	}
}

// TestAccumulatorValidation covers the streaming-fit bookkeeping: shape
// and forcing validation up front, per-call coordinate and grid checks,
// and the completeness check at Solve.
func TestAccumulatorValidation(t *testing.T) {
	grid := sphere.NewGrid(3, 4)
	opt := smallOptions()
	annual := make([]float64, 8)
	for i := range annual {
		annual[i] = 2 + 0.1*float64(i)
	}
	if _, err := newAccumulator(grid, 0, 73, annual, 0, opt); err == nil {
		t.Error("expected error for zero realizations")
	}
	if _, err := newAccumulator(grid, 1, 73, annual, -1, opt); err == nil {
		t.Error("expected error for negative lead")
	}
	if _, err := newAccumulator(grid, 1, 73*20, annual, 0, opt); err == nil {
		t.Error("expected error for short forcing record")
	}
	acc, err := newAccumulator(grid, 1, 73, annual, 0, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := acc.Add(1, 0, sphere.NewField(grid)); err == nil {
		t.Error("expected error for out-of-range realization")
	}
	if err := acc.Add(0, 73, sphere.NewField(grid)); err == nil {
		t.Error("expected error for out-of-range step")
	}
	if err := acc.Add(0, 0, sphere.NewField(sphere.NewGrid(4, 4))); err == nil {
		t.Error("expected error for wrong grid")
	}
	if _, err := acc.Solve(); err == nil {
		t.Error("expected error for incomplete accumulation")
	}
}

// TestAccumulatorMatchesFitEnsemble pins the streaming fit against the
// slice entry point on a multi-member ensemble (they share one code
// path; this guards the wiring).
func TestAccumulatorMatchesFitEnsemble(t *testing.T) {
	grid := sphere.NewGrid(4, 6)
	opt := smallOptions()
	rng := rand.New(rand.NewSource(9))
	years := 6
	T := years * opt.StepsPerYear
	annual := make([]float64, years+3)
	for i := range annual {
		annual[i] = 2 + math.Sin(float64(i))
	}
	ens := make([][]sphere.Field, 2)
	for r := range ens {
		ens[r] = make([]sphere.Field, T)
		for tt := range ens[r] {
			f := sphere.NewField(grid)
			for pix := range f.Data {
				f.Data[pix] = 280 + rng.NormFloat64()
			}
			ens[r][tt] = f
		}
	}
	want, err := FitEnsemble(ens, annual, 0, opt)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := newAccumulator(grid, 2, T, annual, 0, opt)
	if err != nil {
		t.Fatal(err)
	}
	for r := range ens {
		for tt := range ens[r] {
			if err := acc.Add(r, tt, ens[r][tt]); err != nil {
				t.Fatal(err)
			}
		}
	}
	got, err := acc.Solve()
	if err != nil {
		t.Fatal(err)
	}
	for pix := 0; pix < grid.Points(); pix++ {
		if got.Rho[pix] != want.Rho[pix] || got.Sigma[pix] != want.Sigma[pix] {
			t.Fatalf("pixel %d: (rho, sigma) = (%g, %g), want (%g, %g)",
				pix, got.Rho[pix], got.Sigma[pix], want.Rho[pix], want.Sigma[pix])
		}
		for j := range got.Beta[pix] {
			if got.Beta[pix][j] != want.Beta[pix][j] {
				t.Fatalf("pixel %d coef %d: %g, want %g", pix, j, got.Beta[pix][j], want.Beta[pix][j])
			}
		}
	}
}

// fitsEqual reports bitwise equality of two fits' estimates.
func fitsEqual(t *testing.T, got, want *Fit) {
	t.Helper()
	for pix := range want.Beta {
		if got.Rho[pix] != want.Rho[pix] || got.Sigma[pix] != want.Sigma[pix] {
			t.Fatalf("pixel %d: (rho, sigma) = (%g, %g), want (%g, %g)",
				pix, got.Rho[pix], got.Sigma[pix], want.Rho[pix], want.Sigma[pix])
		}
		for j := range want.Beta[pix] {
			if got.Beta[pix][j] != want.Beta[pix][j] {
				t.Fatalf("pixel %d coef %d: %g, want %g", pix, j, got.Beta[pix][j], want.Beta[pix][j])
			}
		}
	}
}

// TestFitEnsembleSetSingleMatchesLegacy pins the single-pathway adapter
// contract: FitEnsemble (positional []float64 forcing) and
// FitEnsembleSet on a one-pathway set must produce bit-identical
// estimates, and the fit must expose the forcing through the pathway
// surface.
func TestFitEnsembleSetSingleMatchesLegacy(t *testing.T) {
	grid := sphere.NewGrid(4, 6)
	opt := smallOptions()
	rng := rand.New(rand.NewSource(11))
	years := 6
	T := years * opt.StepsPerYear
	annual := make([]float64, years+3)
	for i := range annual {
		annual[i] = 2 + math.Sin(float64(i)*1.3)
	}
	ens := make([][]sphere.Field, 2)
	for r := range ens {
		ens[r] = make([]sphere.Field, T)
		for tt := range ens[r] {
			f := sphere.NewField(grid)
			for pix := range f.Data {
				f.Data[pix] = 280 + rng.NormFloat64()
			}
			ens[r][tt] = f
		}
	}
	want, err := FitEnsemble(ens, annual, 0, opt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := FitEnsembleSet(ens, forcing.Single("hist", annual), nil, 0, opt)
	if err != nil {
		t.Fatal(err)
	}
	fitsEqual(t, got, want)
	if got.Set.Len() != 1 || want.Set.Len() != 1 {
		t.Fatalf("pathway counts %d/%d, want 1/1", got.Set.Len(), want.Set.Len())
	}
	rf := got.AnnualRF()
	for i := range annual {
		if rf[i] != annual[i] {
			t.Fatalf("AnnualRF[%d] = %g, want %g", i, rf[i], annual[i])
		}
	}
	for r, k := range want.Assign {
		if k != 0 {
			t.Fatalf("Assign[%d] = %d, want 0", r, k)
		}
	}
}

// TestMixedPathwayRecoversTrends is the multi-scenario property test:
// two realizations driven by two different forcing pathways, data
// generated noise-free from one shared coefficient field, fitted
// jointly. The pooled fit must recover the per-pathway mean trends —
// the fitted mean under each pathway reproduces that pathway's
// generating mean — and the two means must genuinely differ (the
// pathways diverge), so a positional single-forcing fit could not have
// represented both.
func TestMixedPathwayRecoversTrends(t *testing.T) {
	grid := sphere.NewGrid(4, 6)
	opt := Options{StepsPerYear: 73, K: 1, RhoGrid: []float64{0.4}}
	rng := rand.New(rand.NewSource(17))
	years := 8
	T := years * opt.StepsPerYear
	nPix := grid.Points()
	p := opt.Params()

	// Two pathways with clearly different trajectories (historical-ish
	// wiggle vs steep ramp), both wiggly enough to identify beta1/beta2.
	histA := make([]float64, years+3)
	rampB := make([]float64, years+3)
	for i := range histA {
		histA[i] = 2 + 0.4*math.Sin(float64(i)*1.7) + 0.3*rng.NormFloat64()
		rampB[i] = 2 + 0.9*float64(i) + 0.3*math.Cos(float64(i)*2.1)
	}
	set, err := forcing.NewSet(
		forcing.Pathway{Name: "histA", Annual: histA},
		forcing.Pathway{Name: "rampB", Annual: rampB},
	)
	if err != nil {
		t.Fatal(err)
	}

	beta := make([][]float64, nPix)
	rho := make([]float64, nPix)
	sigma := make([]float64, nPix)
	for pix := 0; pix < nPix; pix++ {
		beta[pix] = make([]float64, p)
		for j := range beta[pix] {
			beta[pix][j] = rng.NormFloat64()
		}
		beta[pix][0] += 280
		beta[pix][1] = 1 + rng.Float64() // forcing response matters
		beta[pix][2] = 1 + rng.Float64()
		rho[pix] = 0.4
		sigma[pix] = 0
	}
	ens := [][]sphere.Field{
		synthFields(rng, grid, T, opt, histA, 0, beta, rho, sigma),
		synthFields(rng, grid, T, opt, rampB, 0, beta, rho, sigma),
	}
	fit, err := FitEnsembleSet(ens, set, []int{0, 1}, 0, opt)
	if err != nil {
		t.Fatal(err)
	}

	// Per-pathway mean fields must reproduce each pathway's generating
	// mean (the noise-free data itself).
	meanDiff := 0.0
	for _, tt := range []int{0, T / 2, T - 1} {
		for k, fields := range ens {
			m := meanAt(fit, k, tt)
			for pix := range m.Data {
				want := fields[tt].Data[pix]
				if diff := math.Abs(m.Data[pix] - want); diff > 1e-5*(1+math.Abs(want)) {
					t.Fatalf("pathway %d t=%d pixel %d: mean %g, want %g", k, tt, pix, m.Data[pix], want)
				}
			}
		}
		a, b := meanAt(fit, 0, tt), meanAt(fit, 1, tt)
		for pix := range a.Data {
			if d := math.Abs(a.Data[pix] - b.Data[pix]); d > meanDiff {
				meanDiff = d
			}
		}
	}
	if meanDiff < 1 {
		t.Fatalf("pathway means differ by at most %g; the scenarios should diverge", meanDiff)
	}

	// Pathway-keyed standardization round-trips.
	z := sphere.NewField(grid)
	var step Step
	fit.StepAt(1, 5, &step)
	step.Standardize(z, ens[1][5])
	y := z.Copy()
	step.Unstandardize(y)
	for pix := range y.Data {
		if diff := math.Abs(y.Data[pix] - ens[1][5].Data[pix]); diff > 1e-8 {
			t.Fatalf("pathway unstandardize pixel %d: %g, want %g", pix, y.Data[pix], ens[1][5].Data[pix])
		}
	}

	// A scenario view over one pathway's forcing evaluates that pathway.
	mv, m1 := meanAt(fit.WithAnnualRF(rampB), 0, 10), meanAt(fit, 1, 10)
	for pix := range mv.Data {
		if mv.Data[pix] != m1.Data[pix] {
			t.Fatalf("WithAnnualRF mean pixel %d: %g, want %g", pix, mv.Data[pix], m1.Data[pix])
		}
	}
}

// TestAccumulatorForkMerge pins the fan-out primitive of the parallel
// trend pass: splitting accumulation across forked accumulators and
// merging in span order must (a) satisfy Solve's completeness check,
// (b) be bit-deterministic run to run, and (c) agree with the
// sequential accumulation to floating-point reassociation tolerance.
func TestAccumulatorForkMerge(t *testing.T) {
	grid := sphere.NewGrid(4, 6)
	opt := smallOptions()
	rng := rand.New(rand.NewSource(23))
	years := 4
	T := years * opt.StepsPerYear
	annual := make([]float64, years+3)
	for i := range annual {
		annual[i] = 2 + math.Sin(float64(i)*1.3)
	}
	const R = 3
	ens := make([][]sphere.Field, R)
	for r := range ens {
		ens[r] = make([]sphere.Field, T)
		for tt := range ens[r] {
			f := sphere.NewField(grid)
			for pix := range f.Data {
				f.Data[pix] = 280 + rng.NormFloat64()
			}
			ens[r][tt] = f
		}
	}
	forked := func() *Fit {
		acc, err := newAccumulator(grid, R, T, annual, 0, opt)
		if err != nil {
			t.Fatal(err)
		}
		parts := []*Accumulator{acc.Fork(), acc.Fork()}
		spans := [][2]int{{0, 2}, {2, 3}}
		for g, sp := range spans {
			for r := sp[0]; r < sp[1]; r++ {
				for tt := range ens[r] {
					if err := parts[g].Add(r, tt, ens[r][tt]); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
		for _, part := range parts {
			if err := acc.Merge(part); err != nil {
				t.Fatal(err)
			}
		}
		fit, err := acc.Solve()
		if err != nil {
			t.Fatal(err)
		}
		return fit
	}
	f1, f2 := forked(), forked()
	fitsEqual(t, f2, f1) // bit-deterministic run to run

	seq, err := FitEnsemble(ens, annual, 0, opt)
	if err != nil {
		t.Fatal(err)
	}
	for pix := range seq.Beta {
		if f1.Rho[pix] != seq.Rho[pix] {
			t.Fatalf("pixel %d: forked rho %g, sequential %g", pix, f1.Rho[pix], seq.Rho[pix])
		}
		if diff := math.Abs(f1.Sigma[pix] - seq.Sigma[pix]); diff > 1e-9*(1+seq.Sigma[pix]) {
			t.Fatalf("pixel %d: forked sigma %g, sequential %g", pix, f1.Sigma[pix], seq.Sigma[pix])
		}
		for j := range seq.Beta[pix] {
			if diff := math.Abs(f1.Beta[pix][j] - seq.Beta[pix][j]); diff > 1e-6*(1+math.Abs(seq.Beta[pix][j])) {
				t.Fatalf("pixel %d coef %d: forked %g, sequential %g", pix, j, f1.Beta[pix][j], seq.Beta[pix][j])
			}
		}
	}

	// Merging mismatched shapes must fail.
	other, err := newAccumulator(sphere.NewGrid(5, 8), 1, T, annual, 0, opt)
	if err != nil {
		t.Fatal(err)
	}
	acc, err := newAccumulator(grid, R, T, annual, 0, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := acc.Merge(other); err == nil {
		t.Fatal("expected shape mismatch error")
	}
}

// TestAccumulatorSetValidation covers the pathway-specific error paths.
func TestAccumulatorSetValidation(t *testing.T) {
	grid := sphere.NewGrid(4, 6)
	opt := smallOptions()
	annual := []float64{1, 2, 3, 4}
	set := forcing.Single("a", annual)
	if _, err := NewAccumulatorSet(grid, 2, 73, set, []int{0}, 0, opt); err == nil {
		t.Error("expected error for short assignment")
	}
	if _, err := NewAccumulatorSet(grid, 2, 73, set, []int{0, 1}, 0, opt); err == nil {
		t.Error("expected error for out-of-range pathway index")
	}
	two, err := forcing.NewSet(
		forcing.Pathway{Name: "a", Annual: annual},
		forcing.Pathway{Name: "b", Annual: []float64{1}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewAccumulatorSet(grid, 2, 2*73, two, []int{0, 1}, 0, opt); err == nil {
		t.Error("expected error for a pathway too short for the window")
	}
	if _, err := NewAccumulatorSet(grid, 1, 73, forcing.Set{}, nil, 0, opt); err == nil {
		t.Error("expected error for an empty set")
	}
}

// designRowRef and pathwayMeanFieldRef are the map-based mean evaluation
// trend.Step replaced (a float64-keyed map per call, a lagSeries run per
// distinct rho per step), kept verbatim as the bit-identity reference.
func designRowRef(f *Fit, k, t int, rho float64, row []float64) {
	opt := f.Opt
	annual := f.Set.Pathways[k].Annual
	year := f.Lead + t/opt.StepsPerYear
	if year >= len(annual) {
		year = len(annual) - 1 // hold forcing at the last known year
	}
	row[0] = 1
	row[1] = annual[year]
	lag := lagSeries(annual[:year+1], rho)
	row[2] = lag[year]
	c := 3
	for kk := 1; kk <= opt.K; kk++ {
		ang := 2 * math.Pi * float64(t) * float64(kk) / float64(opt.StepsPerYear)
		s, co := math.Sincos(ang)
		row[c] = co
		row[c+1] = s
		c += 2
	}
	for kk := 1; kk <= opt.KDiurnal; kk++ {
		ang := 2 * math.Pi * float64(t) * float64(kk) / float64(opt.StepsPerDay)
		s, co := math.Sincos(ang)
		row[c] = co
		row[c+1] = s
		c += 2
	}
}

func pathwayMeanFieldRef(f *Fit, k, t int) sphere.Field {
	out := sphere.NewField(f.Grid)
	p := f.Opt.Params()
	rows := make(map[float64][]float64)
	for pix := range f.Beta {
		rho := f.Rho[pix]
		row, ok := rows[rho]
		if !ok {
			row = make([]float64, p)
			designRowRef(f, k, t, rho, row)
			rows[rho] = row
		}
		out.Data[pix] = linalg.Dot(row, f.Beta[pix])
	}
	return out
}

// mixedRhoFit hand-builds a two-pathway fit whose pixels select four
// distinct lag decays in an irregular spatial pattern, with annual and
// diurnal harmonics.
func mixedRhoFit(grid sphere.Grid) *Fit {
	rng := rand.New(rand.NewSource(23))
	opt := Options{StepsPerYear: 48, K: 2, StepsPerDay: 4, KDiurnal: 1, RhoGrid: []float64{0, 0.3, 0.6, 0.95}}
	nPix := grid.Points()
	years := 6
	a := make([]float64, years)
	b := make([]float64, years+2) // pathways of different length
	for i := range a {
		a[i] = 2 + 0.5*rng.NormFloat64()
	}
	for i := range b {
		b[i] = 2 + 0.7*float64(i) + 0.2*rng.NormFloat64()
	}
	fit := &Fit{
		Grid: grid, Opt: opt, Lead: 1,
		Set: forcing.Set{Pathways: []forcing.Pathway{
			{Name: "a", Annual: a}, {Name: "b", Annual: b},
		}},
		Beta:  make([][]float64, nPix),
		Rho:   make([]float64, nPix),
		Sigma: make([]float64, nPix),
	}
	for pix := 0; pix < nPix; pix++ {
		fit.Beta[pix] = randVec(rng, opt.Params())
		fit.Beta[pix][0] += 280
		fit.Rho[pix] = opt.RhoGrid[rng.Intn(len(opt.RhoGrid))]
		fit.Sigma[pix] = 0.5 + rng.Float64()
	}
	return fit
}

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// TestStepBitIdenticalToMapEvaluation pins Step's three evaluations
// (mean, standardize, unstandardize) to the retired map-based mean
// evaluation bit for bit: at steps inside the forcing record, on its last
// year, and past its end, under both pathways, and through WithAnnualRF
// views over a shorter and a longer forcing record.
func TestStepBitIdenticalToMapEvaluation(t *testing.T) {
	grid := sphere.NewGrid(7, 9)
	fit := mixedRhoFit(grid)
	rng := rand.New(rand.NewSource(29))
	y := sphere.NewField(grid)
	for pix := range y.Data {
		y.Data[pix] = 280 + 5*rng.NormFloat64()
	}
	check := func(name string, f *Fit, k, tt int) {
		t.Helper()
		want := pathwayMeanFieldRef(f, k, tt)
		got := meanAt(f, k, tt)
		var s Step
		f.StepAt(k, tt, &s)
		z := sphere.NewField(grid)
		s.Standardize(z, y)
		back := y.Copy()
		s.Unstandardize(back)
		for pix := range want.Data {
			m := want.Data[pix]
			if math.Float64bits(got.Data[pix]) != math.Float64bits(m) {
				t.Fatalf("%s k=%d t=%d pixel %d: mean %x, map evaluation gives %x",
					name, k, tt, pix, math.Float64bits(got.Data[pix]), math.Float64bits(m))
			}
			if wz := (y.Data[pix] - m) / f.Sigma[pix]; math.Float64bits(z.Data[pix]) != math.Float64bits(wz) {
				t.Fatalf("%s k=%d t=%d pixel %d: standardized %g, want %g", name, k, tt, pix, z.Data[pix], wz)
			}
			if wy := m + f.Sigma[pix]*y.Data[pix]; math.Float64bits(back.Data[pix]) != math.Float64bits(wy) {
				t.Fatalf("%s k=%d t=%d pixel %d: unstandardized %g, want %g", name, k, tt, pix, back.Data[pix], wy)
			}
		}
	}
	// Lead 1 + t/48: t = 239 is pathway a's last year, 240.. is beyond it.
	steps := []int{0, 1, 47, 48, 200, 239, 240, 500}
	for _, tt := range steps {
		check("fit", fit, 0, tt)
		check("fit", fit, 1, tt)
	}
	view := fit.WithAnnualRF([]float64{1, 3, 2, 5, 4, 7, 6, 9})
	for _, tt := range steps {
		check("view", view, 0, tt)
	}
	extended := fit.WithAnnualRF(append(append([]float64(nil), fit.AnnualRF()...), 9, 10, 11))
	for _, tt := range steps {
		check("extended", extended, 0, tt)
	}
}

// TestStepSharedAcrossGoroutines is the -race guard for the ensemble
// engine's use of one built Step by every member's worker, and for
// concurrent first use of a fit's lazily built lag tables.
func TestStepSharedAcrossGoroutines(t *testing.T) {
	grid := sphere.NewGrid(7, 9)
	fit := mixedRhoFit(grid)
	want := pathwayMeanFieldRef(fit, 1, 100)
	var shared Step
	done := make(chan sphere.Field, 8) // one send per goroutine
	for g := 0; g < 4; g++ {
		go func() { done <- meanAt(fit, 1, 100) }() // races to build the table
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	fit.StepAt(1, 100, &shared)
	for g := 0; g < 4; g++ {
		go func() {
			out := sphere.NewField(grid)
			shared.Mean(out)
			done <- out
		}()
	}
	for g := 0; g < 4; g++ {
		got := <-done
		for pix := range want.Data {
			if got.Data[pix] != want.Data[pix] {
				t.Errorf("shared step pixel %d: %g, want %g", pix, got.Data[pix], want.Data[pix])
				break
			}
		}
	}
}

// BenchmarkTrend_Unstandardize is the trend restore of one generated
// step at the live what-if shape (L = 16 grid, two lag decays), as the
// generation loop runs it: one Step rebuilt in place every step.
func BenchmarkTrend_Unstandardize(b *testing.B) {
	grid := sphere.GridForBandLimit(16)
	rng := rand.New(rand.NewSource(31))
	opt := Options{StepsPerYear: 365, K: 2, RhoGrid: []float64{0.5, 0.85}}
	nPix := grid.Points()
	fit := &Fit{
		Grid: grid, Opt: opt, Lead: 15,
		Set:   forcing.Single("bench", randVec(rng, 40)),
		Beta:  make([][]float64, nPix),
		Rho:   make([]float64, nPix),
		Sigma: make([]float64, nPix),
	}
	for pix := 0; pix < nPix; pix++ {
		fit.Beta[pix] = randVec(rng, opt.Params())
		fit.Rho[pix] = opt.RhoGrid[rng.Intn(2)]
		fit.Sigma[pix] = 1
	}
	z := sphere.NewField(grid)
	b.Run("held", func(b *testing.B) {
		b.ReportAllocs()
		var s Step
		for i := 0; i < b.N; i++ {
			fit.StepAt(0, i%4000, &s)
			s.Unstandardize(z)
		}
	})
}

// meanAt evaluates the fitted deterministic mean of pathway k at step t
// on the grid.
func meanAt(f *Fit, k, t int) sphere.Field {
	out := sphere.NewField(f.Grid)
	var s Step
	f.StepAt(k, t, &s)
	s.Mean(out)
	return out
}

// newAccumulator prepares a streaming fit with one shared forcing record.
func newAccumulator(grid sphere.Grid, R, T int, annualRF []float64, lead int, opt Options) (*Accumulator, error) {
	return NewAccumulatorSet(grid, R, T, forcing.Single("", annualRF), nil, lead, opt)
}
