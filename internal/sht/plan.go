package sht

import (
	"fmt"
	"sync"

	"exaclim/internal/fft"
	"exaclim/internal/legendre"
	"exaclim/internal/par"
	"exaclim/internal/sphere"
	"exaclim/internal/tile"
)

// Plan precomputes everything the transform needs for a fixed grid and
// band limit: the per-ring normalized Legendre tables for synthesis, the
// real ring-transform plan both directions share, and — built on the
// first analysis, not at construction — the colatitude operator that
// folds the paper's Wigner-Delta stages (Section III-A2, shared across
// all time steps) into one table.
//
// A Plan is safe for concurrent use by multiple goroutines: all
// precomputed state is read-only once built and per-call scratch comes
// from per-worker pools.
type Plan struct {
	L    int
	Grid sphere.Grid

	ringTab [][]float64   // per-ring Legendre tables, triangular layout
	rlon    *fft.RealPlan // length NLon real ring transform, both directions
	workers int

	// ana, calib and arena are shared by pointer across Sequential copies
	// of the plan, so every cursor derived from one plan reuses one
	// analysis operator, one calibration run, and one scratch pool.
	ana   *analysisTable
	calib *synthCalib
	arena *synthArena
}

// synthCalib memoizes the one-time ring-block microcalibration.
type synthCalib struct {
	once  sync.Once
	block int
}

// Option configures a Plan.
type Option func(*Plan)

// WithWorkers bounds the number of goroutines used per transform call.
// The default (0) uses GOMAXPROCS.
func WithWorkers(n int) Option { return func(p *Plan) { p.workers = n } }

// NewPlan builds a transform plan. The grid must support the band limit
// exactly (NLat > L and NLon >= 2L-1); otherwise an error is returned.
func NewPlan(grid sphere.Grid, L int, opts ...Option) (*Plan, error) {
	if L < 1 {
		return nil, fmt.Errorf("sht: invalid band limit %d", L)
	}
	if !grid.SupportsBandLimit(L) {
		return nil, fmt.Errorf("sht: grid %v does not support band limit %d (need NLat > L and NLon >= 2L-1)", grid, L)
	}
	p := &Plan{L: L, Grid: grid}
	for _, o := range opts {
		o(p)
	}
	colat := make([]float64, grid.NLat)
	for i := range colat {
		colat[i] = grid.Colatitude(i)
	}
	p.ringTab = legendre.RingTable(L, colat)
	p.rlon = fft.NewRealPlan(grid.NLon)
	p.ana = &analysisTable{}
	p.calib = &synthCalib{}
	p.arena = newSynthArena()
	return p, nil
}

// Sequential returns a plan that shares this plan's precomputed tables
// but runs every transform on the calling goroutine alone. Use it when an
// outer loop (ensemble members, flattened time steps) already saturates
// the CPU and per-call fan-out would only add scheduling overhead. The
// returned plan is as concurrency-safe as the receiver, and its results
// are bit-identical to the parallel plan's (each ring and order is
// computed independently, so scheduling never changes the arithmetic).
func (p *Plan) Sequential() *Plan {
	if p.workers == 1 {
		return p
	}
	q := *p
	q.workers = 1
	return &q
}

// MemoryBytes reports the size of the precomputed tables the plan
// family holds right now: the ring tables always, the analysis operator
// once the first analysis has built it.
func (p *Plan) MemoryBytes() int64 {
	tri := int64(legendre.TriSize(p.L))
	nlat := int64(p.Grid.NLat)
	bytes := nlat * tri * 8
	if p.ana.builds.Load() > 0 {
		bytes += (nlat + 1) / 2 * tri * 8
	}
	return bytes
}

// fanOutMinWork is the fold work of one transform call — ring pairs
// times TriSize(L) multiply-adds — below which the call runs on the
// calling goroutine whatever the worker bound: starting and joining
// workers costs more than such a fold saves. Measured with two workers
// on a 2-core box: the L=16 grid (1.2e3) runs 5.5 us inline against 9 us
// fanned out and L=32 (9e3) 30 us against 45 us, while L=64 (6.9e4)
// gains, 205 us against 155 us.
const fanOutMinWork = 1 << 14

// callWorkers returns how many goroutines one transform call uses: 1
// (inline, no hand-off) for a sequential plan or a grid too small to
// repay a fan-out, else the plan's worker bound.
func (p *Plan) callWorkers() int {
	nPairs := (p.Grid.NLat + 1) / 2
	if p.workers == 1 || nPairs*legendre.TriSize(p.L) < fanOutMinWork {
		return 1
	}
	return par.SpanWorkers(p.workers, nPairs)
}

// Synthesize evaluates the band-limited field from its coefficients on
// the plan's grid (inverse SHT). This is the emulator's "generate
// emulations" step and is exact for any grid, including finer ones.
func (p *Plan) Synthesize(c Coeffs) sphere.Field {
	out := sphere.NewField(p.Grid)
	p.SynthesizeInto(out, c)
	return out
}

// Real is the element type of a synthesized grid or a packed coefficient
// vector: the float64 the emulator computes in, or the float32 the raw
// serving path stores and sends.
type Real interface {
	float32 | float64
}

// SynthesizeInto writes the synthesis into an existing field on the
// plan's grid, avoiding allocation in time-stepping loops.
//
// The kernel (version SynthKernelVersion) halves both stages by
// symmetry:
//
//   - The per-ring degree fold F_i(m) = sum_l z_{lm} Ptilde_l^m(cos
//     theta_i) runs over equator-mirrored ring PAIRS: the colatitudes
//     satisfy theta_{nlat-1-i} = pi - theta_i and Ptilde_l^m(-x) =
//     (-1)^(l+m) Ptilde_l^m(x), so one sweep of ring i's Legendre table
//     folds both rings of the pair into even- and odd-parity sums with
//     F_north = even+odd, F_south = even-odd. Half the table bandwidth
//     of the dominant loop.
//   - Each ring's longitude stage consumes only the non-redundant half
//     spectrum through a half-size real-output rFFT (fft.RealPlan),
//     roughly halving the FFT stage relative to the retired full
//     complex transform.
//
// Pairs are processed in cache-blocked groups of SynthBlock() (sized
// once per plan by tile.PickBlock) with the fold sweeping the
// coefficient table row-major (l outer, m inner). A call large enough
// to repay it (callWorkers) fans the blocks out via par.ForNWorker with
// per-worker scratch from the plan's pooled arena; smaller calls and
// Sequential plans walk them inline and allocate nothing. Every pair
// writes disjoint output rings with its own accumulators, so the output
// is bit-identical for every worker count and block size (pinned by
// TestSynthesizeParallelDeterministic). Against the retired
// reference loop the parity fold regroups sums, so agreement is <=
// 1e-12 relative rather than bit-exact — the kernel-version-2 contract
// (TestSynthesizeBlockedMatchesReference).
func (p *Plan) SynthesizeInto(dst sphere.Field, c Coeffs) {
	if dst.Grid != p.Grid {
		panic(fmt.Sprintf("sht: destination grid %v does not match plan grid %v", dst.Grid, p.Grid))
	}
	if c.L != p.L {
		panic(fmt.Sprintf("sht: coefficient band limit %d does not match plan %d", c.L, p.L))
	}
	sc := p.arena.get()
	synthesize(p, sc, dst.Data, c.C)
	p.arena.put(sc)
}

// SynthesizePacked is SynthesizeInto from the real packing (PackReal
// layout, length L^2 — what the VAR stage generates and the archive
// decodes) to a row-major grid of Grid.Points() values, at either width;
// the coefficient triangle lives in pooled scratch. The fold and the ring
// transforms run in float64 whatever E is: a float32 caller pays one
// widening per coefficient going in and one rounding per pixel coming
// out, so its result is the float64 path's rounded once. (The retired
// float32 twin rounded the Legendre tables as well, to stream half the
// bytes; at L = 64 it measured 9 % slower than this path, not faster.)
// packed is unpacked whole before the first ring is written, so it may
// alias dst — a caller can decode into the head of the grid it wants.
func SynthesizePacked[E Real](p *Plan, dst, packed []E) {
	if len(dst) != p.Grid.Points() {
		panic(fmt.Sprintf("sht: destination length %d does not match grid %v", len(dst), p.Grid))
	}
	sc := p.arena.get()
	synthesize(p, sc, dst, unpackReal(sc.triangle(p.L), p.L, packed))
	p.arena.put(sc)
}

// SynthesizeIntoF32 is SynthesizePacked at float32 under the name the
// benchmark module compiles against.
func (p *Plan) SynthesizeIntoF32(dst, packed []float32) { SynthesizePacked(p, dst, packed) }

// synthesize runs the blocks of one synthesis call, inline on the
// caller's scratch sc or fanned out over per-worker scratch.
func synthesize[E Real](p *Plan, sc *synthScratch, dst []E, c []complex128) {
	block := p.SynthBlock()
	nPairs := (p.Grid.NLat + 1) / 2
	workers := p.callWorkers()
	if workers == 1 {
		for p0 := 0; p0 < nPairs; p0 += block {
			synthPairs(p, dst, c, sc, p0, min(p0+block, nPairs))
		}
		return
	}
	nBlocks := (nPairs + block - 1) / block
	scratch := p.arena.take(workers)
	par.ForNWorker(workers, nBlocks, func(g, bi int) {
		p0 := bi * block
		synthPairs(p, dst, c, scratch[g], p0, min(p0+block, nPairs))
	})
	p.arena.release(scratch)
}

// foldPairs is the Legendre fold of the equator-mirrored ring pairs
// [p0, p1) — the one copy of the transform's dominant loop — into one
// worker's accumulators: row 2k of the result holds the even-parity (l+m
// even) sums of pair p0+k, row 2k+1 the odd-parity sums.
func (p *Plan) foldPairs(c []complex128, sc *synthScratch, p0, p1 int) [][]complex128 {
	L := p.L
	fm := sc.accum(2*(p1-p0), L)
	for l := 0; l < L; l++ {
		base := legendre.Idx(l, 0)
		row := c[base : base+l+1]
		for pi := p0; pi < p1; pi++ {
			tbl := p.ringTab[pi][base : base+l+1]
			even, odd := fm[2*(pi-p0)], fm[2*(pi-p0)+1]
			if l&1 == 1 {
				even, odd = odd, even // m even => l+m odd
			}
			for m := 0; m <= l; m += 2 {
				even[m] += row[m] * complex(tbl[m], 0)
			}
			for m := 1; m <= l; m += 2 {
				odd[m] += row[m] * complex(tbl[m], 0)
			}
		}
	}
	return fm
}

// synthPairs folds the ring pairs [p0, p1) and writes their rings into
// the row-major grid dst using one worker's scratch. The ring write is
// the only step that depends on the output width.
func synthPairs[E Real](p *Plan, dst []E, c []complex128, sc *synthScratch, p0, p1 int) {
	L := p.L
	nlat, nlon := p.Grid.NLat, p.Grid.NLon
	fm := p.foldPairs(c, sc, p0, p1)
	rp, spec := sc.ring(p)
	// Pre-scale the half spectrum by nlon instead of post-scaling the
	// output row: the spectrum has L live entries, the row nlon.
	scale := complex(float64(nlon), 0)
	for pi := p0; pi < p1; pi++ {
		fe, fo := fm[2*(pi-p0)], fm[2*(pi-p0)+1]
		// DC terms are real by construction (m=0 folds add no imaginary
		// part). The m >= L tail of spec is permanently zero; the rFFT
		// completes the conjugate half itself (the ring spectrum of a real
		// field satisfies spec[-m] = conj(spec[m]), from z_{l,-m} = (-1)^m
		// conj(z_{lm}) and Ptilde_l^{-m} = (-1)^m Ptilde_l^m).
		spec[0] = complex(real(fe[0])+real(fo[0]), 0) * scale
		for m := 1; m < L; m++ {
			spec[m] = (fe[m] + fo[m]) * scale
		}
		fft.InverseInto(rp, dst[pi*nlon:(pi+1)*nlon], spec)
		si := nlat - 1 - pi
		if si == pi {
			continue // odd nlat: the equator ring is its own mirror
		}
		spec[0] = complex(real(fe[0])-real(fo[0]), 0) * scale
		for m := 1; m < L; m++ {
			spec[m] = (fe[m] - fo[m]) * scale
		}
		fft.InverseInto(rp, dst[si*nlon:(si+1)*nlon], spec)
	}
}

// synthBlockCandidates are the pair-block sizes the calibration tries:
// small enough that a block's fold accumulators (two parity rows per
// pair) stay L1-resident, large enough to amortize the coefficient
// stream across ring pairs.
var synthBlockCandidates = []int{4, 8, 16, 32}

// SynthBlock returns the plan's calibrated pair-block size, measuring
// once per plan (shared across Sequential copies). The workload is the
// plan's own fold (foldPairs) on synthetic coefficients, so the choice
// reflects the real table and accumulator sizes; every candidate computes
// bit-identical results, so calibration affects time only, never output.
// Observability surfaces (trace span attributes) use it to record which
// tile a synthesis executed under.
func (p *Plan) SynthBlock() int {
	p.calib.once.Do(func() {
		c := NewCoeffs(p.L)
		for i := range c.C {
			c.C[i] = complex(1/float64(i+1), -1/float64(2*i+1))
		}
		pairs := min((p.Grid.NLat+1)/2, 64)
		sc := p.arena.get()
		p.calib.block = tile.PickBlock(synthBlockCandidates, 3, func(b int) {
			for p0 := 0; p0 < pairs; p0 += b {
				p.foldPairs(c.C, sc, p0, min(p0+b, pairs))
			}
		})
		p.arena.put(sc)
	})
	return p.calib.block
}
