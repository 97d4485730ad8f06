// Package sht mirrors the shape of the real spherical-harmonic package
// so lockedcall's synthesis detection (keyed on the package path
// suffix) has something to resolve against.
package sht

// Plan stands in for the real transform plan.
type Plan struct{ L int }

// Synthesize stands in for the heavy spectral-to-grid transform.
func (p *Plan) Synthesize(data []float64) {}

// SynthesizeIntoF32 stands in for the float32 method form.
func (p *Plan) SynthesizeIntoF32(dst, packed []float32) {}

// AnalyzePacked stands in for the packed forward transform.
func (p *Plan) AnalyzePacked(dst, grid []float64) []float64 { return dst }

// SynthesizePacked stands in for the generic packed synthesis.
func SynthesizePacked[E float32 | float64](p *Plan, dst, packed []E) {}

// Evaluator stands in for the weight-matrix point evaluator.
type Evaluator struct{ L int }

// NewPointEvaluator, NewPointBatchEvaluator and NewMeanEvaluator stand in
// for the O(L^2)-per-row constructors.
func NewPointEvaluator(L int, theta, phi float64) *Evaluator { return &Evaluator{L: L} }

func NewPointBatchEvaluator(L int, thetas, phis []float64) *Evaluator { return &Evaluator{L: L} }

func NewMeanEvaluator(L int, thetas, weights, phis []float64) *Evaluator { return &Evaluator{L: L} }

// EvalPacked stands in for the per-step weights x packed product.
func (e *Evaluator) EvalPacked(dst, packed []float64) []float64 { return dst }
