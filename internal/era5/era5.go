// Package era5 synthesizes a global surface-temperature dataset with the
// statistical anatomy of the ERA5 reanalysis the paper trains on: a
// latitude-dependent climatology with land/sea contrast, seasonal and
// diurnal harmonic cycles, a radiative-forcing-driven warming trend with
// lagged (ocean-memory) response, anisotropic stochastic weather with a
// Matern-like angular power spectrum and AR(1) temporal persistence in
// the spectral domain, and white microscale noise.
//
// The real ERA5 archive (318 billion hourly points) is proprietary-scale
// data this environment cannot hold; this generator is the substitution.
// Because every component is known in closed form, emulator training can
// be validated by parameter recovery, a stronger check than visual
// agreement with real data.
package era5

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"exaclim/internal/forcing"
	"exaclim/internal/sht"
	"exaclim/internal/sphere"
)

// DaysPerYear follows the paper's calendar: leap days are omitted
// ("adjusting for the omission of an extra day in leap years").
const DaysPerYear = 365

// Config specifies a synthetic dataset.
type Config struct {
	Grid sphere.Grid
	L    int // band limit of the stochastic weather component
	Seed int64
	// Member selects the ensemble member: members share the geography,
	// climatology and forcing response determined by Seed but draw
	// independent weather and noise, exactly like initial-condition
	// ensemble members of an ESM (the paper's ensemble index r).
	Member      int
	StartYear   int
	StepsPerDay int // 1 = daily, 24 = hourly
	Scenario    forcing.Scenario

	// ClimateSensitivity is the equilibrium warming per W/m^2 (K);
	// defaults to 0.8 (about 3 K per CO2 doubling).
	ClimateSensitivity float64
	// WeatherAmp scales the stochastic weather standard deviation (K);
	// defaults to 3.
	WeatherAmp float64
	// NuggetStd is the white microscale noise level (K); defaults to 0.3.
	NuggetStd float64
	// LagRho is the geometric decay of the lagged forcing response;
	// defaults to 0.85 (the ocean-memory term the emulator's beta2/rho
	// regression must recover).
	LagRho float64
}

func (c *Config) setDefaults() {
	if c.StepsPerDay == 0 {
		c.StepsPerDay = 1
	}
	if c.ClimateSensitivity == 0 {
		c.ClimateSensitivity = 0.8
	}
	if c.WeatherAmp == 0 {
		c.WeatherAmp = 3
	}
	if c.NuggetStd == 0 {
		c.NuggetStd = 0.3
	}
	if c.LagRho == 0 {
		c.LagRho = 0.85
	}
	if c.Scenario.PPM == nil {
		c.Scenario = forcing.Historical()
	}
	if c.StartYear == 0 {
		c.StartYear = 1988
	}
}

// Generator produces the synthetic series step by step. It is not safe
// for concurrent use; ensemble members use independent generators.
type Generator struct {
	cfg  Config
	plan *sht.Plan
	rng  *rand.Rand

	land        []float64 // soft land fraction per pixel
	climate     []float64 // base temperature (K)
	seasonalAmp []float64 // signed: positive north, negative south
	diurnalAmp  []float64
	sensitivity []float64 // warming per W/m^2

	sigmaLoc []float64 // weather modulation per pixel

	phi   []float64 // per-degree AR(1) coefficient
	inStd []float64 // per-degree innovation standard deviation
	state sht.Coeffs

	curRF, lagRF float64
	yearIdx      int
	step         int

	weather sphere.Field // scratch
}

// New builds a generator. The grid must support the weather band limit.
func New(cfg Config) (*Generator, error) {
	cfg.setDefaults()
	if cfg.L < 4 {
		return nil, fmt.Errorf("era5: band limit %d too small (need >= 4)", cfg.L)
	}
	plan, err := sht.NewPlan(cfg.Grid, cfg.L, sht.WithWorkers(1))
	if err != nil {
		return nil, fmt.Errorf("era5: %w", err)
	}
	g := &Generator{
		cfg:  cfg,
		plan: plan,
		rng:  rand.New(rand.NewSource(cfg.Seed + 1000003*int64(cfg.Member+1))),
	}
	g.buildGeography()
	g.buildSpectralWeather()
	g.initForcing()
	g.weather = sphere.NewField(cfg.Grid)
	// Spin the AR state to stationarity before the first sample.
	for i := 0; i < 60; i++ {
		g.advanceWeather()
	}
	return g, nil
}

// buildGeography constructs the procedural land mask and the per-pixel
// deterministic parameters.
func (g *Generator) buildGeography() {
	grid := g.cfg.Grid
	n := grid.Points()

	// Terrain: random low-degree field, red spectrum; land = upper 30%
	// through a smooth sigmoid so coastlines are gradual.
	terrRng := rand.New(rand.NewSource(g.cfg.Seed ^ 0x7e55a))
	const lTerr = 13
	tc := sht.NewCoeffs(g.cfg.L)
	for l := 1; l < lTerr && l < g.cfg.L; l++ {
		amp := math.Pow(float64(l), -1.2)
		tc.Set(l, 0, complex(terrRng.NormFloat64()*amp, 0))
		for m := 1; m <= l; m++ {
			tc.Set(l, m, complex(terrRng.NormFloat64()*amp, terrRng.NormFloat64()*amp))
		}
	}
	terrain := g.plan.Synthesize(tc)
	sorted := append([]float64(nil), terrain.Data...)
	sort.Float64s(sorted)
	thresh := sorted[int(0.70*float64(len(sorted)))]
	spread := 0.25 * stddev(terrain.Data)
	g.land = make([]float64, n)
	for i, v := range terrain.Data {
		g.land[i] = 1 / (1 + math.Exp(-(v-thresh)/spread))
	}

	g.climate = make([]float64, n)
	g.seasonalAmp = make([]float64, n)
	g.diurnalAmp = make([]float64, n)
	g.sensitivity = make([]float64, n)
	g.sigmaLoc = make([]float64, n)
	for i := 0; i < grid.NLat; i++ {
		theta := grid.Colatitude(i)
		sinT, cosT := math.Sin(theta), math.Cos(theta)
		for j := 0; j < grid.NLon; j++ {
			p := i*grid.NLon + j
			land := g.land[p]
			// Base climate: 250 K poles to 300 K equator, land slightly
			// cooler at altitude.
			g.climate[p] = 250 + 50*sinT - 3*land
			// Seasonal amplitude grows with latitude and continentality;
			// the sign encodes the hemisphere (cosT > 0 north).
			g.seasonalAmp[p] = (2 + 10*land) * cosT
			// Diurnal cycle: strong over land, weak over ocean, largest
			// where insolation varies most within a day (low latitude).
			g.diurnalAmp[p] = (0.4 + 6.5*land) * sinT
			// Polar and land amplification of the warming trend.
			g.sensitivity[p] = g.cfg.ClimateSensitivity * (0.75 + 0.7*cosT*cosT + 0.3*land)
			// Weather variance: larger over land and mid/high latitudes.
			g.sigmaLoc[p] = g.cfg.WeatherAmp * (0.5 + 0.7*land + 0.6*cosT*cosT)
		}
	}
}

// buildSpectralWeather sets the per-degree AR(1) dynamics: a Matern-like
// angular spectrum C_l normalized to unit total variance and physically
// motivated decorrelation times (planetary scales persist for days,
// small scales for hours).
func (g *Generator) buildSpectralWeather() {
	L := g.cfg.L
	cl := make([]float64, L)
	total := 0.0
	for l := 1; l < L; l++ {
		cl[l] = math.Pow(1+float64(l*l)/64, -2.2)
		total += float64(2*l+1) * cl[l]
	}
	// Normalize so the synthesized field has unit pointwise variance:
	// Var(Z) = sum_l (2l+1) C_l / (4 pi).
	norm := 4 * math.Pi / total
	dt := 1 / float64(g.cfg.StepsPerDay) // days per step
	g.phi = make([]float64, L)
	g.inStd = make([]float64, L)
	for l := 1; l < L; l++ {
		cl[l] *= norm
		tau := 0.4 + 7*math.Exp(-float64(l)/12) // decorrelation time in days
		g.phi[l] = math.Exp(-dt / tau)
		g.inStd[l] = math.Sqrt(cl[l] * (1 - g.phi[l]*g.phi[l]))
	}
	g.state = sht.NewCoeffs(L)
}

func (g *Generator) initForcing() {
	// Warm up the lagged response over the century before StartYear.
	rho := g.cfg.LagRho
	lag := g.cfg.Scenario.RF(float64(g.cfg.StartYear - 100))
	for y := g.cfg.StartYear - 99; y < g.cfg.StartYear; y++ {
		lag = rho*lag + (1-rho)*g.cfg.Scenario.RF(float64(y))
	}
	g.lagRF = lag
	g.curRF = g.cfg.Scenario.RF(float64(g.cfg.StartYear))
	g.yearIdx = 0
}

// advanceWeather steps the spectral AR(1) state.
func (g *Generator) advanceWeather() {
	L := g.cfg.L
	for l := 1; l < L; l++ {
		phi, std := g.phi[l], g.inStd[l]
		g.state.Set(l, 0, complex(phi*real(g.state.At(l, 0))+std*g.rng.NormFloat64(), 0))
		// Complex coefficients: independent real and imaginary parts with
		// half the variance each (so |z|^2 has the right expectation).
		h := std / math.Sqrt2
		for m := 1; m <= l; m++ {
			v := g.state.At(l, m)
			g.state.Set(l, m, complex(
				phi*real(v)+h*g.rng.NormFloat64(),
				phi*imag(v)+h*g.rng.NormFloat64()))
		}
	}
}

// StepsPerYear returns the number of steps in one (365-day) year.
func (g *Generator) StepsPerYear() int { return DaysPerYear * g.cfg.StepsPerDay }

// LandMask returns the soft land fraction field (0 = ocean, 1 = land).
func (g *Generator) LandMask() sphere.Field {
	f := sphere.NewField(g.cfg.Grid)
	copy(f.Data, g.land)
	return f
}

// Sensitivity returns the per-pixel equilibrium warming per W/m^2, used
// by recovery tests.
func (g *Generator) Sensitivity() []float64 {
	return append([]float64(nil), g.sensitivity...)
}

// SigmaLoc returns the per-pixel weather standard deviation.
func (g *Generator) SigmaLoc() []float64 {
	return append([]float64(nil), g.sigmaLoc...)
}

// LagRho returns the true lagged-forcing decay parameter.
func (g *Generator) LagRho() float64 { return g.cfg.LagRho }

// AnnualRF returns lead + years annual forcing values beginning at
// StartYear-lead, the series the trend fit consumes.
func (g *Generator) AnnualRF(lead, years int) []float64 {
	return g.cfg.Scenario.Annual(g.cfg.StartYear-lead, lead+years)
}

// Next produces the field at the current step and advances the clock.
func (g *Generator) Next() sphere.Field {
	out := sphere.NewField(g.cfg.Grid)
	g.NextInto(out)
	return out
}

// NextInto writes the field at the current step into dst (which must
// live on the generator's grid) and advances the clock — the
// allocation-free streaming form the training field sources use.
func (g *Generator) NextInto(dst sphere.Field) {
	cfg := &g.cfg
	if dst.Grid != cfg.Grid {
		panic(fmt.Sprintf("era5: destination grid %v does not match generator grid %v", dst.Grid, cfg.Grid))
	}
	day := g.step / cfg.StepsPerDay
	doy := day % DaysPerYear
	year := day / DaysPerYear
	hour := float64(g.step%cfg.StepsPerDay) * 24 / float64(cfg.StepsPerDay)

	if year != g.yearIdx {
		// Cross a year boundary: update the lagged forcing recursion.
		g.lagRF = cfg.LagRho*g.lagRF + (1-cfg.LagRho)*g.curRF
		g.curRF = cfg.Scenario.RF(float64(cfg.StartYear + year))
		g.yearIdx = year
	}

	g.advanceWeather()
	g.plan.SynthesizeInto(g.weather, g.state)

	seas := math.Cos(2 * math.Pi * float64(doy-197) / DaysPerYear)
	diur := math.Cos(2 * math.Pi * (hour - 14) / 24)
	forcingTerm := 0.6*g.curRF + 0.4*g.lagRF
	for p := range dst.Data {
		dst.Data[p] = g.climate[p] +
			g.seasonalAmp[p]*seas +
			g.diurnalAmp[p]*diur +
			g.sensitivity[p]*forcingTerm +
			g.sigmaLoc[p]*g.weather.Data[p] +
			cfg.NuggetStd*g.rng.NormFloat64()
	}
	g.step++
}

// Run produces the next n fields.
func (g *Generator) Run(n int) []sphere.Field {
	out := make([]sphere.Field, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// ForEach streams n fields through fn without retaining them, for
// workloads where the series does not fit in memory.
func (g *Generator) ForEach(n int, fn func(t int, f sphere.Field)) {
	for i := 0; i < n; i++ {
		fn(i, g.Next())
	}
}

func stddev(xs []float64) float64 {
	mean := 0.0
	for _, v := range xs {
		mean += v
	}
	mean /= float64(len(xs))
	ss := 0.0
	for _, v := range xs {
		d := v - mean
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)))
}
