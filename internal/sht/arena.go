package sht

import (
	"sync"

	"exaclim/internal/fft"
	"exaclim/internal/legendre"
)

// SynthKernelVersion identifies the numerical contract of the synthesis
// kernels. Benchmark artifacts record it so cross-run comparisons can
// tell a kernel change from a regression.
//
// Version history:
//
//	1: blocked m-outer f64 loop, output pinned bit-identical to the
//	   historical reference loop; f32 path with parity fold + pair FFT.
//	2: parity-paired Legendre fold and half-spectrum rFFT in BOTH
//	   precisions. The f64 bit-identity pin is relaxed: output agrees
//	   with the retired reference loop to <= 1e-12 relative (the parity
//	   fold regroups sums, so agreement is to rounding, not bits).
//	   Output remains bit-deterministic across worker counts.
const SynthKernelVersion = 2

// synthScratch is one worker's reusable transform state: the fold
// accumulators, the half-spectrum buffers of both directions, and a
// per-worker clone of the plan's rFFT engine.
type synthScratch struct {
	flat   []complex128
	fm     [][]complex128
	spec   []complex128 // synthesis half spectrum; tail beyond L stays zero
	gn, gs []complex128 // analysis half spectra of a north/south ring pair
	coeffs []complex128 // coefficient triangle of the packed entry points
	rp     *fft.RealPlan
}

// accum returns rows zeroed fold-accumulator slices of width L, backed
// by one flat allocation that persists across blocks and calls.
func (sc *synthScratch) accum(rows, L int) [][]complex128 {
	n := rows * L
	if cap(sc.flat) < n {
		sc.flat = make([]complex128, n)
	}
	sc.flat = sc.flat[:n]
	for i := range sc.flat {
		sc.flat[i] = 0
	}
	if cap(sc.fm) < rows {
		sc.fm = make([][]complex128, rows)
	}
	sc.fm = sc.fm[:rows]
	for i := range sc.fm {
		sc.fm[i] = sc.flat[i*L : (i+1)*L]
	}
	return sc.fm
}

// triangle returns the scratch coefficient triangle for band limit L, the
// staging area between a packed vector and the kernels.
func (sc *synthScratch) triangle(L int) []complex128 {
	if len(sc.coeffs) != legendre.TriSize(L) {
		sc.coeffs = make([]complex128, legendre.TriSize(L))
	}
	return sc.coeffs
}

// ring returns the worker's rFFT clone and half-spectrum buffer. The
// buffer's tail beyond the plan's band limit is zero at allocation and
// every kernel writes only indices [0, L), so it stays zero for the
// scratch's lifetime — the arena is per-plan, so L never changes.
func (sc *synthScratch) ring(p *Plan) (*fft.RealPlan, []complex128) {
	if sc.rp == nil || sc.rp.Len() != p.Grid.NLon {
		sc.rp = p.rlon.Clone()
		sc.spec = make([]complex128, sc.rp.SpecLen())
	}
	return sc.rp, sc.spec
}

// forward returns the worker's rFFT clone and the two full-length half
// spectra the analysis ring stage writes (Forward fills every bin, so
// they cannot share spec and its zero tail).
func (sc *synthScratch) forward(p *Plan) (rp *fft.RealPlan, gn, gs []complex128) {
	rp, _ = sc.ring(p)
	if len(sc.gn) != rp.SpecLen() {
		sc.gn = make([]complex128, rp.SpecLen())
		sc.gs = make([]complex128, rp.SpecLen())
	}
	return rp, sc.gn, sc.gs
}

// synthArena pools synthScratch values for a plan and all its Sequential
// copies. A call that runs inline checks one scratch out with get; a
// call that fans out takes one per worker up front, hands worker g its
// own scratch for every block it runs, and releases all of them when
// the call completes — so steady-state transforms allocate no scratch.
type synthArena struct {
	pool sync.Pool
}

func newSynthArena() *synthArena {
	a := &synthArena{}
	a.pool.New = func() any { return new(synthScratch) }
	return a
}

func (a *synthArena) get() *synthScratch   { return a.pool.Get().(*synthScratch) }
func (a *synthArena) put(sc *synthScratch) { a.pool.Put(sc) }

// take checks one scratch out of the pool per worker.
func (a *synthArena) take(workers int) []*synthScratch {
	out := make([]*synthScratch, workers)
	for i := range out {
		out[i] = a.get()
	}
	return out
}

// release returns every scratch taken by take.
func (a *synthArena) release(scratch []*synthScratch) {
	for _, sc := range scratch {
		a.put(sc)
	}
}
