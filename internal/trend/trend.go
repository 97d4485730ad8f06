// Package trend fits the paper's deterministic component (eq. 2): for
// every grid point, the mean temperature is an intercept, a response to
// current radiative forcing, an infinite-distributed-lag response to past
// forcing with geometric decay rho, and K harmonic terms for periodic
// cycles; the residual standard error sigma is estimated jointly.
//
// Because the lag weights make the model nonlinear only through the
// scalar rho, the fit profiles rho over a grid and solves ordinary least
// squares for each candidate (the 1-D MLE of Section III-A, O(T) per
// location). All regressors are shared across pixels, so the normal
// matrix is factorized once per rho and reused by every location, and
// locations are fit in parallel.
//
// Forcing is pathway-keyed: a fit spans a forcing.Set of named annual-RF
// pathways with a realization→pathway assignment, so one fit pools
// ensemble members driven by different scenarios (mixed historical +
// projection campaigns, the CESM2-LENS2 setting). Each realization's
// design rows use its own pathway's forcing columns; the per-pixel
// coefficients and sigma are shared, and the pooled normal matrix is the
// count-weighted sum of the per-pathway normal matrices. Single-pathway
// fits through the legacy []float64 signatures are byte-identical to the
// pre-pathway code path.
//
// The paper's tau = 8760 hourly configuration captures annual harmonics;
// for hourly data this package additionally supports harmonics of the
// diurnal period (KDiurnal terms at tau = steps per day), an extension
// required to model the intraday cycle explicitly.
package trend

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"

	"exaclim/internal/forcing"
	"exaclim/internal/linalg"
	"exaclim/internal/par"
	"exaclim/internal/sphere"
)

// Options configure a fit.
type Options struct {
	// StepsPerYear is the paper's tau: 365 for daily, 8760 for hourly.
	StepsPerYear int
	// K is the number of annual-cycle harmonics (the paper uses 5).
	K int
	// StepsPerDay enables diurnal harmonics when > 1 (hourly data: 24).
	StepsPerDay int
	// KDiurnal is the number of diurnal harmonics (0 disables).
	KDiurnal int
	// RhoGrid lists candidate lag-decay values; defaults to
	// 0, 0.1, ..., 0.9, 0.95.
	RhoGrid []float64
	// Workers bounds fitting parallelism.
	Workers int
}

func (o *Options) setDefaults() error {
	if o.StepsPerYear <= 0 {
		return errors.New("trend: StepsPerYear must be positive")
	}
	if o.K < 0 || o.KDiurnal < 0 {
		return errors.New("trend: harmonic counts must be non-negative")
	}
	if o.KDiurnal > 0 && o.StepsPerDay <= 1 {
		return errors.New("trend: KDiurnal requires StepsPerDay > 1")
	}
	if len(o.RhoGrid) == 0 {
		o.RhoGrid = []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95}
	}
	for _, r := range o.RhoGrid {
		if r < 0 || r >= 1 {
			return fmt.Errorf("trend: rho %g outside [0, 1)", r)
		}
	}
	return nil
}

// Params returns the regression dimension: intercept, current RF, lagged
// RF, plus two coefficients per harmonic.
func (o Options) Params() int { return 3 + 2*o.K + 2*o.KDiurnal }

// Fit holds per-pixel estimates of eq. (2).
type Fit struct {
	Grid sphere.Grid
	Opt  Options
	Lead int // years of RF history before the data window
	// Set holds the named annual-RF pathways the fit spans, each with
	// lead + ceil(T/tau) + spare years of forcing. Index 0 is the
	// default evaluation pathway (the training forcing of
	// single-scenario fits).
	Set forcing.Set
	// Assign[r] is the pathway index realization r was fitted under
	// (all zeros for single-pathway fits).
	Assign []int

	// Beta[pix] is the coefficient vector in design order:
	// [beta0, beta1, beta2, a_1, b_1, ..., aK, bK, (diurnal a/b...)].
	Beta [][]float64
	// Rho[pix] is the selected lag decay.
	Rho []float64
	// Sigma[pix] is the residual standard error.
	Sigma []float64

	// tab caches the rho-dependent evaluation state of this view (see
	// rhoTable); unexported, so gob skips it and a loaded fit rebuilds it.
	tab atomic.Pointer[rhoTable]
}

// AnnualRF returns the default (index 0) pathway's annual series — the
// single-pathway view legacy callers read. The slice is the fit's own;
// do not mutate.
func (f *Fit) AnnualRF() []float64 { return f.Set.Pathways[0].Annual }

// design builds the T x p regressor matrix for a given rho. lagAnnual is
// the precomputed lagged forcing series aligned with annualRF.
func design(T int, opt Options, annualRF, lagAnnual []float64, lead int) *linalg.Matrix {
	p := opt.Params()
	x := linalg.NewMatrix(T, p)
	for t := 0; t < T; t++ {
		row := x.Row(t)
		year := lead + t/opt.StepsPerYear
		row[0] = 1
		row[1] = annualRF[year]
		row[2] = lagAnnual[year]
		c := 3
		for k := 1; k <= opt.K; k++ {
			ang := 2 * math.Pi * float64(t) * float64(k) / float64(opt.StepsPerYear)
			s, co := math.Sincos(ang)
			row[c] = co
			row[c+1] = s
			c += 2
		}
		for k := 1; k <= opt.KDiurnal; k++ {
			ang := 2 * math.Pi * float64(t) * float64(k) / float64(opt.StepsPerDay)
			s, co := math.Sincos(ang)
			row[c] = co
			row[c+1] = s
			c += 2
		}
	}
	return x
}

// lagSeries computes (1-rho) sum_{s>=1} rho^(s-1) x_{t-s} over the annual
// series, seeding the recursion with the first value (pre-history assumed
// at the initial forcing level).
func lagSeries(annual []float64, rho float64) []float64 {
	out := make([]float64, len(annual))
	state := annual[0]
	for i, v := range annual {
		out[i] = state
		state = rho*state + (1-rho)*v
	}
	return out
}

// FitEnsemble estimates eq. (2) from R ensemble members sharing the same
// forcing. annualRF must contain at least lead years of history before
// the data window plus ceil(T/tau) years covering it. All members must
// have equal length and grid. It is the single-pathway adapter over
// FitEnsembleSet, byte-identical to the pre-pathway signature.
func FitEnsemble(ens [][]sphere.Field, annualRF []float64, lead int, opt Options) (*Fit, error) {
	return FitEnsembleSet(ens, forcing.Single("", annualRF), nil, lead, opt)
}

// FitEnsembleSet estimates eq. (2) from R ensemble members whose forcing
// records may differ: assign[r] names the pathway of set driving member
// r (nil assigns every member to pathway 0). Every pathway must contain
// at least lead years of history before the data window plus ceil(T/tau)
// years covering it.
//
// It is a thin wrapper over the streaming Accumulator — the same code
// path archive-backed training uses — so fits from materialized slices
// and fits streamed from storage are byte-identical on equal inputs.
func FitEnsembleSet(ens [][]sphere.Field, set forcing.Set, assign []int, lead int, opt Options) (*Fit, error) {
	if len(ens) == 0 || len(ens[0]) == 0 {
		return nil, errors.New("trend: empty ensemble")
	}
	grid := ens[0][0].Grid
	T := len(ens[0])
	for r := range ens {
		if len(ens[r]) != T {
			return nil, fmt.Errorf("trend: ensemble member %d has %d steps, want %d", r, len(ens[r]), T)
		}
	}
	acc, err := NewAccumulatorSet(grid, len(ens), T, set, assign, lead, opt)
	if err != nil {
		return nil, err
	}
	for r := range ens {
		for t := range ens[r] {
			if err := acc.Add(r, t, ens[r][t]); err != nil {
				return nil, err
			}
		}
	}
	return acc.Solve()
}

// rhoCtx is the per-rho shared design state: the full design matrix is
// never multiplied against the data again after accumulation, but its
// normal matrix is needed for the exact RSS and the ridged solve.
type rhoCtx struct {
	xtx  *linalg.Matrix // p x p unridged pooled X^T X (symmetric)
	chol *linalg.Matrix // p x p lower factor of ridged pooled X^T X
}

// Accumulator streams the trend fit of eq. (2): instead of gathering a
// per-pixel R*T response vector (which requires the whole campaign in
// memory), it folds each (realization, timestep) field into per-pixel
// sufficient statistics — y'y, the rho-independent design correlations,
// and one lagged-forcing correlation per rho candidate — of fixed size
// O(nPix * (p + len(RhoGrid))) regardless of campaign length. Solve then
// runs the same profiled OLS as before from the statistics alone.
// Realizations assigned to different pathways contribute design rows
// built from their own forcing; the pooled normal matrix is the
// count-weighted sum over pathways.
//
// Add must be called exactly once per (r, t) pair. Accumulation order is
// the floating-point summation order, so callers that need reproducible
// fits must feed fields in a fixed order; FitEnsemble and the emulator's
// streaming trainer use realization-major, time-ascending order (with
// span-ordered Merge when the trend pass fans out), which makes
// slice-fed and archive-fed fits byte-identical on equal inputs.
type Accumulator struct {
	grid sphere.Grid
	opt  Options
	R, T int
	lead int

	set    forcing.Set
	assign []int
	ctxs   []rhoCtx
	base   []*linalg.Matrix // [pathway] T x p design rows with the lag column zeroed
	lagAt  [][][]float64    // [pathway][rho][t] lagged forcing at step t

	added int64
	yty   []float64 // nPix
	cBase []float64 // nPix x p, lag column stays zero
	cLag  []float64 // nPix x len(RhoGrid)
}

// copySet deep-copies a pathway set so the accumulator (and the fit it
// produces) is detached from caller-owned slices.
func copySet(set forcing.Set) forcing.Set {
	out := forcing.Set{Pathways: make([]forcing.Pathway, len(set.Pathways))}
	for i, p := range set.Pathways {
		out.Pathways[i] = forcing.Pathway{Name: p.Name, Annual: append([]float64(nil), p.Annual...)}
	}
	return out
}

// NewAccumulatorSet prepares a streaming fit over an R x T campaign on
// grid under a set of forcing pathways: assign[r] is the pathway index
// of realization r (nil assigns every realization to pathway 0). Every
// pathway must cover lead + ceil(T/tau) years.
func NewAccumulatorSet(grid sphere.Grid, R, T int, set forcing.Set, assign []int, lead int, opt Options) (*Accumulator, error) {
	if err := opt.setDefaults(); err != nil {
		return nil, err
	}
	if err := set.Validate(); err != nil {
		return nil, err
	}
	if R < 1 || T < 1 {
		return nil, fmt.Errorf("trend: campaign shape %dx%d needs R >= 1 and T >= 1", R, T)
	}
	if lead < 0 {
		return nil, fmt.Errorf("trend: lead %d must be >= 0", lead)
	}
	if assign == nil {
		assign = make([]int, R)
	}
	if len(assign) != R {
		return nil, fmt.Errorf("trend: pathway assignment covers %d realizations, want %d", len(assign), R)
	}
	counts := make([]int, set.Len())
	for r, k := range assign {
		if k < 0 || k >= set.Len() {
			return nil, fmt.Errorf("trend: realization %d assigned to pathway %d, set has %d", r, k, set.Len())
		}
		counts[k]++
	}
	needYears := lead + (T+opt.StepsPerYear-1)/opt.StepsPerYear
	for _, pw := range set.Pathways {
		if len(pw.Annual) < needYears {
			return nil, fmt.Errorf("trend: pathway %q has %d years, need >= %d", pw.Name, len(pw.Annual), needYears)
		}
	}
	set = copySet(set)
	assign = append([]int(nil), assign...)
	p := opt.Params()
	nPix := grid.Points()
	nPath := set.Len()

	// Per-rho normal-matrix factorization, pooled over pathways: X'X =
	// sum_k count_k * X_k'X_k. The solve uses a tiny ridge for safety
	// against collinear regressors (smooth forcing paths make current
	// and lagged RF nearly collinear), but the residual sum of squares
	// is evaluated with the exact unridged quadratic form so sigma and
	// the rho profile are unbiased.
	ctxs := make([]rhoCtx, len(opt.RhoGrid))
	lagAt := make([][][]float64, nPath)
	for k := range lagAt {
		lagAt[k] = make([][]float64, len(opt.RhoGrid))
	}
	for ri, rho := range opt.RhoGrid {
		xtx := linalg.NewMatrix(p, p)
		first := true
		for k, pw := range set.Pathways {
			lag := lagSeries(pw.Annual, rho)
			lagAt[k][ri] = make([]float64, T)
			for t := 0; t < T; t++ {
				lagAt[k][ri][t] = lag[lead+t/opt.StepsPerYear]
			}
			if counts[k] == 0 {
				continue // pathway present for evaluation only
			}
			x := design(T, opt, pw.Annual, lag, lead)
			// beta 0 on the first contribution keeps single-pathway fits
			// bit-identical to the pre-pathway single-Syrk code path.
			beta := 1.0
			if first {
				beta = 0.0
				first = false
			}
			linalg.Syrk(linalg.Transpose, p, T, float64(counts[k]), x.Data, p, beta, xtx.Data, p)
		}
		xtx.SymmetrizeFromLower()
		ridged := xtx.Copy()
		ridged.AddDiagonal(1e-9 * float64(R*T))
		if err := ridged.Cholesky(); err != nil {
			return nil, fmt.Errorf("trend: singular design for rho=%g: %w", rho, err)
		}
		ctxs[ri] = rhoCtx{xtx: xtx, chol: ridged}
	}
	// The design correlations shared by every rho: all columns except the
	// lagged-forcing one, which accumulates per rho in cLag. One base per
	// pathway, because the current-RF column is pathway-specific.
	base := make([]*linalg.Matrix, nPath)
	for k, pw := range set.Pathways {
		zeroLag := make([]float64, len(pw.Annual))
		base[k] = design(T, opt, pw.Annual, zeroLag, lead)
	}

	return &Accumulator{
		grid:   grid,
		opt:    opt,
		R:      R,
		T:      T,
		lead:   lead,
		set:    set,
		assign: assign,
		ctxs:   ctxs,
		base:   base,
		lagAt:  lagAt,
		yty:    make([]float64, nPix),
		cBase:  make([]float64, nPix*p),
		cLag:   make([]float64, nPix*len(opt.RhoGrid)),
	}, nil
}

// Add folds the field of realization r at step t into the statistics
// using r's pathway's design rows. Distinct pixels accumulate
// independently (the pixel sweep is parallelized internally), so results
// do not depend on worker count — only on the order of Add calls.
func (a *Accumulator) Add(r, t int, y sphere.Field) error {
	if r < 0 || r >= a.R || t < 0 || t >= a.T {
		return fmt.Errorf("trend: (realization %d, step %d) outside campaign %dx%d", r, t, a.R, a.T)
	}
	if y.Grid != a.grid {
		return fmt.Errorf("trend: field grid %v does not match accumulator grid %v", y.Grid, a.grid)
	}
	p := a.opt.Params()
	nR := len(a.opt.RhoGrid)
	k := a.assign[r]
	row := a.base[k].Row(t)
	lag := make([]float64, nR)
	for ri := range lag {
		lag[ri] = a.lagAt[k][ri][t]
	}
	par.ForBlocks(a.opt.Workers, a.grid.Points(), 4096, func(lo, hi int) {
		for pix := lo; pix < hi; pix++ {
			v := y.Data[pix]
			a.yty[pix] += v * v
			cb := a.cBase[pix*p : (pix+1)*p]
			for j, x := range row {
				cb[j] += x * v
			}
			cl := a.cLag[pix*nR : (pix+1)*nR]
			for ri, l := range lag {
				cl[ri] += l * v
			}
		}
	})
	a.added++
	return nil
}

// Fork returns an accumulator sharing the receiver's immutable design
// state (per-pathway design rows, per-rho factorizations) but with its
// own zeroed statistics, so accumulation can fan out across realization
// spans; fold the results back with Merge. A forked accumulator runs its
// pixel fold sequentially — the caller owns the one level of fan-out.
func (a *Accumulator) Fork() *Accumulator {
	b := *a
	b.opt.Workers = 1
	b.added = 0
	b.yty = make([]float64, len(a.yty))
	b.cBase = make([]float64, len(a.cBase))
	b.cLag = make([]float64, len(a.cLag))
	return &b
}

// Merge folds a forked accumulator's statistics into the receiver.
// Merge order is part of the floating-point summation order: callers
// that need reproducible fits must merge in a fixed order (the
// emulator's trend pass merges in span order, so the fit is
// bit-deterministic for a fixed worker count).
func (a *Accumulator) Merge(b *Accumulator) error {
	if b.grid != a.grid || b.R != a.R || b.T != a.T ||
		len(b.yty) != len(a.yty) || len(b.cBase) != len(a.cBase) || len(b.cLag) != len(a.cLag) {
		return errors.New("trend: merging accumulators of different shape")
	}
	for i, v := range b.yty {
		a.yty[i] += v
	}
	for i, v := range b.cBase {
		a.cBase[i] += v
	}
	for i, v := range b.cLag {
		a.cLag[i] += v
	}
	a.added += b.added
	return nil
}

// Solve runs the profiled per-pixel OLS from the accumulated statistics
// and returns the fit. Every (r, t) pair must have been added.
func (a *Accumulator) Solve() (*Fit, error) {
	if a.added != int64(a.R)*int64(a.T) {
		return nil, fmt.Errorf("trend: accumulated %d fields, want %d (R=%d x T=%d)", a.added, a.R*a.T, a.R, a.T)
	}
	p := a.opt.Params()
	nR := len(a.opt.RhoGrid)
	nPix := a.grid.Points()
	fit := &Fit{
		Grid:   a.grid,
		Opt:    a.opt,
		Lead:   a.lead,
		Set:    copySet(a.set),
		Assign: append([]int(nil), a.assign...),
		Beta:   make([][]float64, nPix),
		Rho:    make([]float64, nPix),
		Sigma:  make([]float64, nPix),
	}
	par.ForN(a.opt.Workers, nPix, func(pix int) {
		yty := a.yty[pix]
		bestRSS := math.Inf(1)
		bestBeta := make([]float64, p)
		bestRho := 0.0
		c := make([]float64, p)
		beta := make([]float64, p)
		xtxb := make([]float64, p)
		for ri := range a.ctxs {
			ctx := &a.ctxs[ri]
			// c = sum_r X_r^T y_r: the shared columns plus this rho's
			// lagged-forcing correlation.
			copy(c, a.cBase[pix*p:(pix+1)*p])
			c[2] = a.cLag[pix*nR+ri]
			copy(beta, c)
			linalg.CholSolve(p, ctx.chol.Data, p, beta)
			// Exact RSS = y'y - 2 b'c + b' (X'X) b, robust to the ridge.
			ctx.xtx.MulVec(beta, xtxb)
			rss := yty - 2*linalg.Dot(beta, c) + linalg.Dot(beta, xtxb)
			if rss < bestRSS {
				bestRSS = rss
				copy(bestBeta, beta)
				bestRho = a.opt.RhoGrid[ri]
			}
		}
		if bestRSS < 0 {
			bestRSS = 0
		}
		fit.Beta[pix] = bestBeta
		fit.Rho[pix] = bestRho
		sigma := math.Sqrt(bestRSS / float64(a.R*a.T))
		if sigma < 1e-9 {
			sigma = 1e-9 // degenerate pixels must not divide by zero
		}
		fit.Sigma[pix] = sigma
	})
	return fit, nil
}

// rhoTable is the rho-dependent evaluation state of one fit view, built
// on first use: the distinct lag decays the pixels selected, each
// pixel's index among them, and the lagged forcing of every
// (pathway, decay) pair by year. It is immutable once published.
type rhoTable struct {
	rhos []float64     // distinct values of Fit.Rho, in order of first appearance
	idx  []int32       // idx[pix] indexes rhos
	lag  [][][]float64 // lag[pathway][rho] = lagSeries(Annual, rhos[rho])
}

// table returns the view's rhoTable. Concurrent first calls may each
// build one; the tables are equal, so whichever is stored last serves.
func (f *Fit) table() *rhoTable {
	if tb := f.tab.Load(); tb != nil {
		return tb
	}
	tb := &rhoTable{idx: make([]int32, len(f.Rho))}
	for pix, rho := range f.Rho {
		ri := 0
		for ri < len(tb.rhos) && tb.rhos[ri] != rho {
			ri++
		}
		if ri == len(tb.rhos) {
			tb.rhos = append(tb.rhos, rho)
		}
		tb.idx[pix] = int32(ri)
	}
	tb.lag = make([][][]float64, len(f.Set.Pathways))
	for k, pw := range f.Set.Pathways {
		tb.lag[k] = make([][]float64, len(tb.rhos))
		for ri, rho := range tb.rhos {
			tb.lag[k][ri] = lagSeries(pw.Annual, rho)
		}
	}
	f.tab.Store(tb)
	return tb
}

// Step is the deterministic component of eq. (2) at one (pathway, step)
// of a fit: one design row per distinct lag decay, which a pixel's mean
// is a dot product against. It is the package's one evaluator of the
// fitted mean: training standardizes and generation restores through it,
// and scenario views (Fit.WithAnnualRF) are evaluated the same way.
// Building it (Fit.StepAt) is the per-step cost; applying it touches each
// pixel once and allocates nothing. A built Step is read-only, so any
// number of goroutines may apply it.
type Step struct {
	fit  *Fit
	idx  []int32   // pixel -> row
	p    int       // row length, Options.Params()
	rows []float64 // len(rhos) x p, row-major
}

// StepAt builds into s the design rows of step t under pathway k,
// reusing s's storage. Steps past the pathway's forcing record hold the
// last known year.
func (f *Fit) StepAt(k, t int, s *Step) {
	tb := f.table()
	opt := f.Opt
	p := opt.Params()
	n := len(tb.rhos) * p
	if cap(s.rows) < n {
		s.rows = make([]float64, n)
	}
	s.fit, s.idx, s.p, s.rows = f, tb.idx, p, s.rows[:n]
	annual := f.Set.Pathways[k].Annual
	year := f.Lead + t/opt.StepsPerYear
	if year >= len(annual) {
		year = len(annual) - 1 // hold forcing at the last known year
	}
	row := s.rows[:p]
	row[0] = 1
	row[1] = annual[year]
	c := 3
	for kk := 1; kk <= opt.K; kk++ {
		ang := 2 * math.Pi * float64(t) * float64(kk) / float64(opt.StepsPerYear)
		sn, co := math.Sincos(ang)
		row[c] = co
		row[c+1] = sn
		c += 2
	}
	for kk := 1; kk <= opt.KDiurnal; kk++ {
		ang := 2 * math.Pi * float64(t) * float64(kk) / float64(opt.StepsPerDay)
		sn, co := math.Sincos(ang)
		row[c] = co
		row[c+1] = sn
		c += 2
	}
	// Only the lagged-forcing column depends on rho.
	for ri := range tb.rhos {
		r := s.rows[ri*p : (ri+1)*p]
		copy(r, row)
		r[2] = tb.lag[k][ri][year]
	}
}

// mean returns the fitted mean of pixel pix.
func (s *Step) mean(pix int) float64 {
	off := int(s.idx[pix]) * s.p
	return linalg.Dot(s.rows[off:off+s.p], s.fit.Beta[pix])
}

// Mean writes the fitted deterministic mean m into dst.
func (s *Step) Mean(dst sphere.Field) {
	for pix := range dst.Data {
		dst.Data[pix] = s.mean(pix)
	}
}

// Standardize writes the standardized residual z = (y - m) / sigma into
// dst. dst and y may alias.
func (s *Step) Standardize(dst, y sphere.Field) {
	sigma := s.fit.Sigma
	for pix := range dst.Data {
		dst.Data[pix] = (y.Data[pix] - s.mean(pix)) / sigma[pix]
	}
}

// Unstandardize converts a standardized stochastic field back to
// temperature in place: y = m + sigma * z.
func (s *Step) Unstandardize(z sphere.Field) {
	sigma := s.fit.Sigma
	for pix := range z.Data {
		z.Data[pix] = s.mean(pix) + sigma[pix]*z.Data[pix]
	}
}

// WithAnnualRF returns a view of the fit whose deterministic mean is
// evaluated under a different annual forcing series (a scenario
// pathway): the view's set holds the single given pathway. rf must
// cover the fit's Lead years before step 0 plus every year being
// emulated. The coefficient tables are shared with the receiver, so the
// view is cheap and safe to use concurrently with it.
func (f *Fit) WithAnnualRF(rf []float64) *Fit {
	set := forcing.Single("scenario", append([]float64(nil), rf...))
	return &Fit{Grid: f.Grid, Opt: f.Opt, Lead: f.Lead, Set: set, Beta: f.Beta, Rho: f.Rho, Sigma: f.Sigma}
}
