package main

import (
	"fmt"
	"math/rand"
	"time"

	"exaclim"
	"exaclim/internal/fft"
	"exaclim/internal/linalg"
	"exaclim/internal/sht"
	"exaclim/internal/trend"
)

// Probe sizes: enough calls for a steady median, few enough that the
// probe phase stays around a second.
const (
	probeDecodeKeys = 2000
	probeRanges     = 32
	probeKernelReps = 40
	probeEvalSteps  = 512
	probeVarSteps   = 64
)

// probeLayers times direct calls into each layer's public kernels, on
// inputs drawn from the row's own request stream, at the row's band
// limit, on one goroutine. The numbers explain the end-to-end ones
// (which kernel got faster); they are not a substitute for them.
func probeLayers(m map[string]float64, r *exaclim.ArchiveReader, tr *trained, g *generator) error {
	h := r.Header()
	L := h.L

	// archive: single-step decode, both widths, and the range walk.
	keys := make([]fieldKey, probeDecodeKeys)
	for i := range keys {
		k := g.next().Key
		keys[i] = fieldKey{k.Member, k.Scenario % h.Scenarios, k.T % h.Steps}
	}
	var err error
	var p64 []float64
	var p32 []float32
	m["archive.decode_f64_us"] = medianCall(len(keys), func(i int) {
		if err == nil {
			p64, err = r.ReadPacked(keys[i].Member, keys[i].Scenario, keys[i].T, p64)
		}
	})
	m["archive.decode_f32_us"] = medianCall(len(keys), func(i int) {
		if err == nil {
			p32, err = r.ReadPackedF32(keys[i].Member, keys[i].Scenario, keys[i].T, p32)
		}
	})
	if err != nil {
		return fmt.Errorf("probe decode: %w", err)
	}
	span := min(seriesSteps, h.Steps)
	m["archive.decode_range_us_per_step"] = medianCall(probeRanges, func(i int) {
		k := keys[i]
		cur, cerr := r.Series(k.Member, k.Scenario)
		if cerr == nil {
			t0 := min(k.T, h.Steps-span)
			cerr = cur.ReadPackedRange(t0, t0+span, func(int, []float64) error { return nil })
		}
		if cerr != nil && err == nil {
			err = cerr
		}
	}) / float64(span)
	if err != nil {
		return fmt.Errorf("probe range decode: %w", err)
	}

	// sht / fft: one plan build, then the kernels on a decoded step.
	var plan *sht.Plan
	m["sht.plan_build_s"] = medianCall(3, func(int) {
		if plan, err = sht.NewPlan(h.Grid, L); err != nil {
			plan = nil
		}
	}) / 1e6
	if plan == nil {
		return fmt.Errorf("probe plan: %w", err)
	}
	plan = plan.Sequential()
	coeffs := sht.UnpackReal(p64)
	field := exaclim.Field{Grid: h.Grid, Data: make([]float64, h.Grid.Points())}
	f32 := make([]float32, h.Grid.Points())
	m["sht.synth_f64_us"] = medianCall(probeKernelReps, func(int) { plan.SynthesizeInto(field, coeffs) })
	m["sht.synth_f32_us"] = medianCall(probeKernelReps, func(int) { plan.SynthesizeIntoF32(f32, p32) })
	m["sht.analyze_us"] = medianCall(probeKernelReps, func(int) { plan.Analyze(field) })

	loc := g.p.Locs
	theta, phi := angles(loc[0])
	sink := 0.0
	pe := sht.NewPointEvaluator(L, theta, phi)
	m["sht.point_eval_us_per_step"] = timePerStep(probeEvalSteps, func() { sink += pe.EvalPacked(p64) })
	thetas, phis := make([]float64, pointsPerReq), make([]float64, pointsPerReq)
	for i := range thetas {
		thetas[i], phis[i] = angles(loc[i])
	}
	be := sht.NewPointBatchEvaluator(L, thetas, phis)
	var vals []float64
	m["sht.batch16_eval_us_per_step"] = timePerStep(probeEvalSteps, func() { vals = be.EvalPacked(vals, p64) })
	// A 10-degree box spans about four longitudes of a ring at L=64.
	re := sht.NewRingEvaluator(L, theta)
	m["sht.ring_eval_us_per_step"] = timePerStep(probeEvalSteps, func() {
		re.SetPacked(p64)
		for j := 0; j < 4; j++ {
			sink += re.EvalLon(phi + 0.05*float64(j))
		}
	})
	rp := fft.NewRealPlan(h.Grid.NLon)
	spec := make([]complex128, rp.SpecLen())
	for i := range spec {
		spec[i] = complex(float64(i%7), float64(i%5))
	}
	spec[0] = complex(real(spec[0]), 0)
	ring := make([]float64, rp.Len())
	m["fft.rfft_inverse_us"] = timePerStep(4*probeEvalSteps, func() { rp.Inverse(ring, spec) })
	_ = sink

	if tr == nil {
		return nil
	}
	// emulator / trend / mpchol / varm: only rows that trained a model.
	size, err := tr.Model.SizeBytes()
	if err != nil {
		return fmt.Errorf("probe model size: %w", err)
	}
	m["emulator.model_bytes"] = float64(size)
	t0 := time.Now()
	if _, err := trend.FitEnsemble(tr.Ens, tr.RF, tr.Lead, tr.Cfg.Trend); err != nil {
		return fmt.Errorf("probe trend fit: %w", err)
	}
	m["trend.fit_s"] = time.Since(t0).Seconds()
	d := tr.Model.Diag
	m["mpchol.factor_s"] = d.FactorSeconds
	m["mpchol.conversions"] = float64(d.Conversions)
	m["mpchol.moved_bytes"] = float64(d.MovedBytes)
	// Computed, not counted: n^3/3 flops of a dense Cholesky over the
	// measured factorization time.
	n := float64(d.CovDim)
	m["mpchol.gflops_computed"] = ratio(n*n*n/3/1e9, d.FactorSeconds)
	dense := tr.Model.Factor.ToDense()
	rngs := make([]*rand.Rand, 8)
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(int64(i) + 1))
	}
	t0 = time.Now()
	tr.Model.VAR.SimulateBatch(dense, rngs, 0, probeVarSteps, func(int, *linalg.Matrix) {})
	m["varm.step_us"] = float64(time.Since(t0)) / float64(time.Microsecond) / probeVarSteps
	return nil
}

// timePerStep times n back-to-back calls as one block (each call is too
// short to time alone) and returns microseconds per call, the median of
// five blocks.
func timePerStep(n int, fn func()) float64 {
	return medianCall(5, func(int) {
		for i := 0; i < n; i++ {
			fn()
		}
	}) / float64(n)
}
