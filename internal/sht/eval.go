package sht

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"exaclim/internal/legendre"
	"exaclim/internal/linalg"
)

// This file implements point-wise spectral evaluation: synthesizing a
// band-limited field at a single (theta, phi) location in O(L^2) work
// directly from its coefficients, instead of running the O(L^3)-ish full
// grid synthesis and indexing one pixel. It is the fast path under the
// serving subsystem's point and box queries, where a time-series request
// touches a few locations per step across thousands of steps.
//
// For a real field the sum over negative orders folds into the m >= 0
// coefficients (z_{l,-m} = (-1)^m conj(z_{lm}), Ptilde_l^{-m} = (-1)^m
// Ptilde_l^m), so
//
//	f(theta, phi) = sum_l Ptilde_l^0 Re z_{l0}
//	             + 2 sum_{l, m>=1} Ptilde_l^m (cos(m phi) Re z_{lm}
//	                                         - sin(m phi) Im z_{lm}).
//
// In the PackReal layout (which carries sqrt(2) on every m > 0
// component) that is exactly a dot product between the packed vector and
// a location-dependent weight vector. Evaluation is linear, so any
// weighted sum of locations — a box mean — is one weight vector too.

// Evaluator evaluates band-limited fields through n fixed linear
// functionals — locations, or weighted sums of locations — held as an
// n x L^2 weight matrix in PackReal layout: a step is the product of
// that matrix with the packed coefficient vector the archive delivers,
// with no unpacking. Construction costs one Legendre recursion per ring
// (O(L^2)). An evaluator is immutable once built and safe for concurrent
// use; the zero value is not usable.
type Evaluator struct {
	L int
	w []float64 // rows x L^2, row-major
}

// NewPointBatchEvaluator builds an evaluator with one row per location
// (thetas[i], phis[i]) — colatitude in [0, pi] and longitude in radians,
// the angles() convention of the serving layer.
func NewPointBatchEvaluator(L int, thetas, phis []float64) *Evaluator {
	if len(thetas) != len(phis) || len(thetas) == 0 {
		panic(fmt.Sprintf("sht: evaluator needs matching non-empty locations (got %d thetas, %d phis)",
			len(thetas), len(phis)))
	}
	e := newEvaluator(L, len(thetas))
	var leg []float64
	for i, theta := range thetas {
		leg = e.addRing(i, theta, phis[i:i+1], 1, leg)
	}
	return e
}

// NewMeanEvaluator builds the one-row evaluator of a weighted mean over
// a ring x longitude cross product, sum_i weights[i] sum_j f(thetas[i],
// phis[j]) — a lat/lon box with its normalized area weights. By
// linearity the row is built ring by ring, O(L^2) each, and a step then
// costs one dot product however many grid points the box covers.
func NewMeanEvaluator(L int, thetas, weights, phis []float64) *Evaluator {
	if len(thetas) != len(weights) || len(thetas) == 0 || len(phis) == 0 {
		panic(fmt.Sprintf("sht: mean evaluator needs matching non-empty rings and longitudes (got %d thetas, %d weights, %d phis)",
			len(thetas), len(weights), len(phis)))
	}
	e := newEvaluator(L, 1)
	var leg []float64
	for i, theta := range thetas {
		leg = e.addRing(0, theta, phis, weights[i], leg)
	}
	return e
}

func newEvaluator(L, rows int) *Evaluator {
	if L < 1 {
		panic(fmt.Sprintf("sht: invalid band limit %d", L))
	}
	return &Evaluator{L: L, w: make([]float64, rows*PackDim(L))}
}

// addRing adds scale * sum_j f(theta, phis[j]) to row r. leg is a
// reusable Legendre table buffer, returned for the next call. A single
// location at scale 1 writes the products p*cos(m phi), -p*sin(m phi)
// unrounded by the sums around them (each adds to an exact zero).
func (e *Evaluator) addRing(r int, theta float64, phis []float64, scale float64, leg []float64) []float64 {
	L := e.L
	// sum_j cos(m phi_j), sin(m phi_j), each by stable complex recurrence.
	cosM := make([]float64, L)
	sinM := make([]float64, L)
	for _, phi := range phis {
		sinP, cosP := math.Sincos(phi)
		cm, sm := 1.0, 0.0 // m = 0
		for m := 0; m < L; m++ {
			cosM[m] += cm
			sinM[m] += sm
			cm, sm = cm*cosP-sm*sinP, sm*cosP+cm*sinP
		}
	}
	sinT, cosT := math.Sincos(theta)
	leg = legendre.SharedRecur(L).Eval(cosT, sinT, leg)
	w := e.w[r*PackDim(L):]
	r2 := math.Sqrt2
	for l := 0; l < L; l++ {
		w[PackIndex(l, 0, 0)] += scale * (leg[legendre.Idx(l, 0)] * cosM[0])
		for m := 1; m <= l; m++ {
			// The packed components already carry sqrt(2), so the factor
			// of 2 from folding negative orders becomes sqrt(2) here.
			p := r2 * leg[legendre.Idx(l, m)]
			w[PackIndex(l, m, 0)] += scale * (p * cosM[m])
			w[PackIndex(l, m, 1)] += scale * (-p * sinM[m])
		}
	}
	return leg
}

// Rows returns the number of functionals (values per step).
func (e *Evaluator) Rows() int { return len(e.w) / PackDim(e.L) }

// EvalPacked evaluates the field whose PackReal vector is packed (length
// L^2) through every row, writing one value per row into dst (allocated
// when too small) and returning it: EvalBlock of a one-step block.
func (e *Evaluator) EvalPacked(dst []float64, packed []float64) []float64 {
	return e.EvalBlock(dst, packed, 1)
}

// EvalBlock evaluates steps fields whose PackReal vectors lie back to
// back in block (length steps*L^2) through every row: value p of step i
// goes to dst[i*Rows()+p]. dst is allocated when too small and returned.
// The block is one product, block x weights^T, so the weights stream
// through the tile once per block rather than once per step. Each value
// is one accumulator taking its L^2 products in ascending index, so it
// does not depend on how many rows or steps ride along, and a NaN or Inf
// in one step reaches only that step's values.
//
// A one-row evaluator (a point, a box mean) runs the product with the
// operands swapped, weights x block^T, so the tile's four columns are
// four steps rather than one row computed four times; steps beyond the
// last whole four are plain dots. At L = 64 over one eight-step block
// (2-vCPU Xeon, -cpu 1) a step costs 5.0-5.2 us swapped, 6.3-6.7 as a
// dot and 9.8-10.4 through the tile with one column; a lone step costs
// ~20 us swapped and 4-5 as a dot.
func (e *Evaluator) EvalBlock(dst, block []float64, steps int) []float64 {
	k, n := PackDim(e.L), e.Rows()
	if steps < 1 || len(block) != steps*k {
		panic(fmt.Sprintf("sht: block of %d values is not %d packed vectors of band limit %d", len(block), steps, e.L))
	}
	if cap(dst) < steps*n {
		dst = make([]float64, steps*n)
	}
	dst = dst[:steps*n]
	if n == 1 {
		q := steps &^ 3 // whole tiles of four steps; a lone step is a plain dot
		if q > 0 {
			linalg.Gemm(linalg.NoTrans, linalg.Transpose, 1, q, k, 1, e.w, k, block, k, 0, dst, q)
		}
		for i := q; i < steps; i++ {
			dst[i] = linalg.Dot(e.w, block[i*k:(i+1)*k])
		}
		return dst
	}
	linalg.Gemm(linalg.NoTrans, linalg.Transpose, steps, n, k, 1, block, k, e.w, k, 0, dst, n)
	return dst
}

// PointEvaluator is the one-location Evaluator with a scalar result, the
// form the public facade exports.
type PointEvaluator struct{ e *Evaluator }

// NewPointEvaluator builds an evaluator for band limit L at colatitude
// theta in [0, pi] and longitude phi (radians).
func NewPointEvaluator(L int, theta, phi float64) *PointEvaluator {
	return &PointEvaluator{NewPointBatchEvaluator(L, []float64{theta}, []float64{phi})}
}

// EvalPacked evaluates the field whose PackReal vector is packed (length
// L^2) at the evaluator's location.
func (e *PointEvaluator) EvalPacked(packed []float64) float64 {
	if len(packed) != len(e.e.w) {
		panic(fmt.Sprintf("sht: packed length %d does not match evaluator band limit %d", len(packed), e.e.L))
	}
	return linalg.Dot(e.e.w, packed)
}

// epScratch is the pooled one-shot evaluation state: the Legendre table
// and trig recurrences EvalPoint needs, reused across calls so the
// one-shot path stops allocating O(L^2) per call.
type epScratch struct {
	leg        []float64
	cosM, sinM []float64
}

var evalPointScratch = sync.Pool{New: func() any { return &epScratch{} }}

// EvalPoint evaluates coefficients c at a single (theta, phi). For
// repeated evaluation at one location (time series) build a
// PointEvaluator once instead. Scratch is pooled, so the one-shot path
// allocates nothing in steady state. The weight products are formed on
// the fly against the unpacked coefficients — an order of operations
// independent of the Evaluator's, which is why the serving oracles use it
// as their reference.
func EvalPoint(c Coeffs, theta, phi float64) float64 {
	L := c.L
	if L < 1 {
		panic(fmt.Sprintf("sht: invalid band limit %d", L))
	}
	sc := evalPointScratch.Get().(*epScratch)
	defer evalPointScratch.Put(sc)
	sinT, cosT := math.Sincos(theta)
	sc.leg = legendre.SharedRecur(L).Eval(cosT, sinT, sc.leg)
	if cap(sc.cosM) < L {
		sc.cosM = make([]float64, L)
		sc.sinM = make([]float64, L)
	}
	cosM, sinM := sc.cosM[:L], sc.sinM[:L]
	sinP, cosP := math.Sincos(phi)
	cm, sm := 1.0, 0.0 // m = 0
	for m := 0; m < L; m++ {
		cosM[m], sinM[m] = cm, sm
		cm, sm = cm*cosP-sm*sinP, sm*cosP+cm*sinP
	}
	r2 := math.Sqrt2
	sum := 0.0
	for l := 0; l < L; l++ {
		sum += sc.leg[legendre.Idx(l, 0)] * real(c.C[legendre.Idx(l, 0)])
		for m := 1; m <= l; m++ {
			v := c.C[legendre.Idx(l, m)]
			p := r2 * sc.leg[legendre.Idx(l, m)]
			sum += r2 * ((p*cosM[m])*real(v) + (-p*sinM[m])*imag(v))
		}
	}
	return sum
}

// RingEvaluator evaluates band-limited fields at many longitudes of one
// fixed colatitude: SetPacked folds the degree sum once per field
// (O(L^2)); EvalLon is then O(L) per longitude. This fold-then-gather
// order is how box queries were evaluated before a box mean became one
// Evaluator row; nothing on the serving path uses it now. It stays as the
// independent reference the box tests compare against and for the
// benchmark module's sht.ring_eval_us_per_step probe.
//
// Concurrency contract: a RingEvaluator is a streaming scratch holder —
// SetPacked mutates the fold state that EvalLon reads — so an evaluator
// must never be shared across goroutines; use one per goroutine.
// Concurrent Set calls are detected and panic rather than silently
// corrupting the fold (the EvalLon side of a race is not guarded: the
// guard exists to surface misuse, not to make sharing safe).
type RingEvaluator struct {
	L    int
	leg  []float64    // Legendre table at theta
	fm   []complex128 // F(m) = sum_l z_lm Ptilde_l^m for the current field
	busy atomic.Bool  // trips the non-concurrent contract
}

// NewRingEvaluator builds a ring evaluator for band limit L at
// colatitude theta.
func NewRingEvaluator(L int, theta float64) *RingEvaluator {
	if L < 1 {
		panic(fmt.Sprintf("sht: invalid band limit %d", L))
	}
	sinT, cosT := math.Sincos(theta)
	return &RingEvaluator{
		L:   L,
		leg: legendre.SharedRecur(L).Eval(cosT, sinT, nil),
		fm:  make([]complex128, L),
	}
}

// SetPacked folds the packed coefficient vector (length L^2) into the
// per-order ring spectrum F(m), after which EvalLon evaluates any
// longitude of this field in O(L). It mutates evaluator state: see the
// type's concurrency contract.
func (e *RingEvaluator) SetPacked(packed []float64) {
	if len(packed) != PackDim(e.L) {
		panic(fmt.Sprintf("sht: packed length %d does not match evaluator band limit %d", len(packed), e.L))
	}
	if !e.busy.CompareAndSwap(false, true) {
		panic("sht: concurrent SetPacked on a shared RingEvaluator; use one evaluator per goroutine")
	}
	defer e.busy.Store(false)
	inv := 1 / math.Sqrt2
	for m := range e.fm {
		e.fm[m] = 0
	}
	for l := 0; l < e.L; l++ {
		base := l * l
		e.fm[0] += complex(packed[base]*e.leg[legendre.Idx(l, 0)], 0)
		for m := 1; m <= l; m++ {
			p := e.leg[legendre.Idx(l, m)]
			e.fm[m] += complex(packed[base+2*m-1]*inv*p, packed[base+2*m]*inv*p)
		}
	}
}

// EvalLon evaluates the field set by SetPacked at longitude phi:
// f = Re F(0) + 2 sum_{m>=1} Re(F(m) e^{i m phi}).
func (e *RingEvaluator) EvalLon(phi float64) float64 {
	sinP, cosP := math.Sincos(phi)
	sum := real(e.fm[0])
	cm, sm := cosP, sinP // e^{i m phi} for m = 1
	for m := 1; m < e.L; m++ {
		f := e.fm[m]
		sum += 2 * (real(f)*cm - imag(f)*sm)
		cm, sm = cm*cosP-sm*sinP, sm*cosP+cm*sinP
	}
	return sum
}
