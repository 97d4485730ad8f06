// Package stats provides the statistical machinery used to demonstrate
// that emulations are "statistically consistent" with simulations (paper
// Figures 2 and 4): moments, quantiles, two-sample Kolmogorov-Smirnov
// distance, autocorrelation, and angular power spectrum comparisons.
package stats

import (
	"fmt"
	"math"
	"sort"

	"exaclim/internal/sht"
	"exaclim/internal/sphere"
)

// Mean returns the arithmetic mean.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

// Variance returns the population variance.
func Variance(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	m := Mean(xs)
	s := 0.0
	for _, v := range xs {
		d := v - m
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Quantiles returns the requested quantiles (0..1) using linear
// interpolation on the order statistics.
func Quantiles(xs []float64, qs ...float64) []float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	out := make([]float64, len(qs))
	n := len(sorted)
	for i, q := range qs {
		if n == 0 {
			out[i] = math.NaN()
			continue
		}
		pos := q * float64(n-1)
		lo := int(math.Floor(pos))
		hi := int(math.Ceil(pos))
		frac := pos - float64(lo)
		out[i] = sorted[lo]*(1-frac) + sorted[hi]*frac
	}
	return out
}

// Correlation returns the Pearson correlation of two equal-length slices.
func Correlation(a, b []float64) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return math.NaN()
	}
	ma, mb := Mean(a), Mean(b)
	var sab, saa, sbb float64
	for i := range a {
		da, db := a[i]-ma, b[i]-mb
		sab += da * db
		saa += da * da
		sbb += db * db
	}
	return sab / math.Sqrt(saa*sbb)
}

// RMSE returns the root-mean-square difference.
func RMSE(a, b []float64) float64 {
	if len(a) != len(b) || len(a) == 0 {
		return math.NaN()
	}
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(a)))
}

// KolmogorovSmirnov returns the two-sample KS statistic
// sup_x |F_a(x) - F_b(x)|.
func KolmogorovSmirnov(a, b []float64) float64 {
	as := append([]float64(nil), a...)
	bs := append([]float64(nil), b...)
	sort.Float64s(as)
	sort.Float64s(bs)
	var i, j int
	worst := 0.0
	na, nb := float64(len(as)), float64(len(bs))
	for i < len(as) && j < len(bs) {
		var x float64
		if as[i] <= bs[j] {
			x = as[i]
		} else {
			x = bs[j]
		}
		for i < len(as) && as[i] <= x {
			i++
		}
		for j < len(bs) && bs[j] <= x {
			j++
		}
		d := math.Abs(float64(i)/na - float64(j)/nb)
		if d > worst {
			worst = d
		}
	}
	return worst
}

// ACF returns autocorrelations at lags 0..maxLag.
func ACF(xs []float64, maxLag int) []float64 {
	m := Mean(xs)
	out := make([]float64, maxLag+1)
	var c0 float64
	for _, v := range xs {
		d := v - m
		c0 += d * d
	}
	if c0 == 0 {
		out[0] = 1
		return out
	}
	for lag := 0; lag <= maxLag; lag++ {
		var c float64
		for i := 0; i+lag < len(xs); i++ {
			c += (xs[i] - m) * (xs[i+lag] - m)
		}
		out[lag] = c / c0
	}
	return out
}

// FieldSummary aggregates area-weighted statistics over a field series.
type FieldSummary struct {
	Mean, Std      float64
	Min, Max       float64
	Q05, Q50, Q95  float64
	Fields, Points int
}

// Summarize computes area-weighted moments and plain quantiles of a
// series of fields on a common grid.
func Summarize(fields []sphere.Field) FieldSummary {
	if len(fields) == 0 {
		return FieldSummary{Mean: math.NaN()}
	}
	grid := fields[0].Grid
	w := grid.AreaWeights()
	var sum, sum2, wtot float64
	min, max := math.Inf(1), math.Inf(-1)
	samples := make([]float64, 0, len(fields)*grid.Points())
	for _, f := range fields {
		for i := 0; i < grid.NLat; i++ {
			for _, v := range f.Ring(i) {
				sum += w[i] * v
				sum2 += w[i] * v * v
				wtot += w[i]
				if v < min {
					min = v
				}
				if v > max {
					max = v
				}
				samples = append(samples, v)
			}
		}
	}
	mean := sum / wtot
	qs := Quantiles(samples, 0.05, 0.5, 0.95)
	return FieldSummary{
		Mean: mean,
		Std:  math.Sqrt(math.Max(0, sum2/wtot-mean*mean)),
		Min:  min, Max: max,
		Q05: qs[0], Q50: qs[1], Q95: qs[2],
		Fields: len(fields), Points: grid.Points(),
	}
}

// String renders the summary as a compact report row.
func (s FieldSummary) String() string {
	return fmt.Sprintf("mean=%.2f std=%.2f min=%.2f max=%.2f q05=%.2f q50=%.2f q95=%.2f",
		s.Mean, s.Std, s.Min, s.Max, s.Q05, s.Q50, s.Q95)
}

// MeanPowerSpectrum averages the angular power spectrum of a field
// series; an empty series has the zero spectrum.
func MeanPowerSpectrum(plan *sht.Plan, fields []sphere.Field) []float64 {
	out := make([]float64, plan.L)
	if len(fields) == 0 {
		return out
	}
	c := sht.NewCoeffs(plan.L)
	for _, f := range fields {
		plan.AnalyzeInto(c, f)
		for l, v := range c.PowerSpectrum() {
			out[l] += v
		}
	}
	for l := range out {
		out[l] /= float64(len(fields))
	}
	return out
}

// SpectrumLogRatio returns the mean absolute log10 ratio of two spectra
// over degrees where both are positive, skipping degree 0 (the mean is
// handled by the trend model, not the stochastic component).
func SpectrumLogRatio(a, b []float64) float64 {
	n := 0
	sum := 0.0
	for l := 1; l < len(a) && l < len(b); l++ {
		if a[l] > 0 && b[l] > 0 {
			sum += math.Abs(math.Log10(a[l] / b[l]))
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// Consistency bundles the emulation-vs-simulation checks of Fig. 2/4.
type Consistency struct {
	MeanDiff       float64 // difference of area-weighted means (K)
	StdRatio       float64 // ratio of area-weighted standard deviations
	KS             float64 // two-sample KS distance on pooled samples
	SpectrumLogErr float64 // mean |log10| angular-spectrum ratio
}

// CheckConsistency compares simulated and emulated series. The samples
// are subsampled to bound the KS cost on long series.
func CheckConsistency(plan *sht.Plan, sim, emu []sphere.Field) Consistency {
	ss, es := Summarize(sim), Summarize(emu)
	sample := func(fields []sphere.Field) []float64 {
		const target = 200000
		total := 0
		for _, f := range fields {
			total += len(f.Data)
		}
		stride := total/target + 1
		out := make([]float64, 0, total/stride+1)
		k := 0
		for _, f := range fields {
			for _, v := range f.Data {
				if k%stride == 0 {
					out = append(out, v)
				}
				k++
			}
		}
		return out
	}
	return Consistency{
		MeanDiff:       es.Mean - ss.Mean,
		StdRatio:       es.Std / ss.Std,
		KS:             KolmogorovSmirnov(sample(sim), sample(emu)),
		SpectrumLogErr: SpectrumLogRatio(MeanPowerSpectrum(plan, sim), MeanPowerSpectrum(plan, emu)),
	}
}

// String renders the consistency report.
func (c Consistency) String() string {
	return fmt.Sprintf("meanDiff=%+.3fK stdRatio=%.3f KS=%.4f specLogErr=%.3f",
		c.MeanDiff, c.StdRatio, c.KS, c.SpectrumLogErr)
}
