// Package emulator assembles the paper's full climate emulator (Fig. 3):
// deterministic trend fit (eq. 2), spherical harmonic analysis of the
// standardized stochastic component, diagonal VAR(P) temporal model,
// empirical innovation covariance (eq. 9), mixed-precision tile Cholesky
// factorization, and the generation pipeline of Section III-B
// (sample xi = V eta, run the VAR, inverse SHT, add the nugget and the
// deterministic parts).
//
// Generation is one engine: an ensemble advances as the columns of one
// VAR state matrix, and one member is one column. Emulate, EmulateUnder,
// EmulateUnderForEach and EmulateEnsemble all run the same loop, so a
// member's series is the same bytes whichever entry point produced it.
//
// A trained Model is serializable; its storage footprint is what replaces
// petabytes of raw simulation output (the paper's headline storage
// saving), so the covariance factor is stored in its tiled
// mixed-precision form.
package emulator

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sync"
	"time"

	"exaclim/internal/forcing"
	"exaclim/internal/linalg"
	"exaclim/internal/mpchol"
	"exaclim/internal/par"
	"exaclim/internal/sht"
	"exaclim/internal/source"
	"exaclim/internal/sphere"
	"exaclim/internal/stats"
	"exaclim/internal/tile"
	"exaclim/internal/trend"
	"exaclim/internal/varm"
)

// Config specifies the emulator design.
type Config struct {
	// L is the spherical harmonic band limit; the covariance dimension is
	// L^2 (the paper runs L = 720 ... 5219; tests use small L).
	L int
	// P is the VAR order (the paper uses 3).
	P int
	// Trend configures the deterministic component fit.
	Trend trend.Options
	// TileSize is the covariance tile edge; 0 picks the largest divisor
	// of L^2 at most 96.
	TileSize int
	// Variant selects the Cholesky precision configuration.
	Variant tile.Variant
	// SenderConvert enables sender-side precision conversion.
	SenderConvert bool
	// Workers bounds parallelism; 0 means GOMAXPROCS.
	Workers int
}

// TrainDiagnostics records what happened during training, including the
// communication accounting of the mixed-precision factorization.
type TrainDiagnostics struct {
	CovDim         int
	TileSize       int
	Variant        string
	Members        int
	StepsPerMember int
	Pathways       int // forcing pathways spanned by the trend fit
	FactorSeconds  float64
	Conversions    int64
	MovedBytes     int64
	JitterApplied  float64
	FactorBytes    int64 // tiled mixed-precision storage
	FactorBytesDP  int64 // what full DP would need
}

// Model is a trained climate emulator. It is safe for concurrent use:
// any number of goroutines may emulate from one trained (or loaded)
// Model at the same time, which is what EmulateEnsemble does.
type Model struct {
	Cfg    Config
	Grid   sphere.Grid
	Trend  *trend.Fit
	VAR    *varm.Model
	Factor *tile.SymmMatrix // lower Cholesky factor of U, mixed precision
	// NuggetVar is the per-pixel variance v^2 of the truncation residual
	// epsilon (Section III-A1).
	NuggetVar []float64
	Diag      TrainDiagnostics

	// Lazily built caches, not serialized. Each is guarded by a sync.Once
	// so concurrent emulation from a shared Model never races; gob skips
	// unexported fields, so Save/Load round-trips reset them cleanly.
	planOnce    sync.Once
	plan        *sht.Plan // rebuilt on demand
	planErr     error
	denseOnce   sync.Once
	denseFactor *linalg.Matrix // widened factor cache for sampling
	nugOnce     sync.Once
	nugSD       []float64 // sqrt(NuggetVar), shared by all generators
}

// jitterEps scales the diagonal perturbation applied when the empirical
// covariance is not positive definite.
const jitterEps = 1e-8

func chooseTile(n int) int {
	for b := 96; b >= 2; b-- {
		if n%b == 0 && b <= n {
			return b
		}
	}
	return n
}

// Train fits the emulator on an ensemble of simulation series sharing a
// forcing record. annualRF must include `lead` years of history before
// the data window (for the distributed-lag terms). It is a thin adapter
// over TrainFrom: the slices are wrapped as a streaming source, so the
// in-memory and archive-backed training paths run identical arithmetic.
func Train(ens [][]sphere.Field, annualRF []float64, lead int, cfg Config) (*Model, error) {
	if len(ens) == 0 || len(ens[0]) == 0 {
		return nil, errors.New("emulator: empty training ensemble")
	}
	src, err := source.FromSlices(ens)
	if err != nil {
		return nil, fmt.Errorf("emulator: %w", err)
	}
	return TrainFrom(src, annualRF, lead, cfg)
}

// TrainFrom fits the emulator from a streaming field source sharing one
// forcing record — the single-pathway adapter over TrainFromSet,
// byte-identical to it on a one-pathway set.
func TrainFrom(src source.Ensemble, annualRF []float64, lead int, cfg Config) (*Model, error) {
	return TrainFromSet(src, forcing.Single("", annualRF), lead, cfg)
}

// TrainFromSet fits the emulator from a streaming field source whose
// realizations may be driven by different forcing scenarios: each
// realization's scenario label (source.Ensemble.Scenario) keys it to a
// pathway of set by name, so one fit spans mixed historical +
// projection members. With a single-pathway set every realization maps
// to pathway 0 regardless of labels. Residual analysis consumes one
// field at a time per worker, so the campaign is never materialized —
// only the packed spectral coefficients (R*T vectors of length L^2, the
// same representation the archive stores) are held for the temporal and
// covariance stages. This is what lets a spectral archive be re-fit
// without rehydrating raw grids.
//
// The source is read twice: once to accumulate the trend statistics
// (fanned out across realization spans with span-ordered accumulator
// merges), once for the residual analysis. For a fixed worker count the
// fit is bit-deterministic, and two sources yielding bitwise-equal
// fields (for example an archive and the slices decoded from it)
// produce byte-identical models up to the timing field of Diag.
func TrainFromSet(src source.Ensemble, set forcing.Set, lead int, cfg Config) (*Model, error) {
	if err := set.Validate(); err != nil {
		return nil, fmt.Errorf("emulator: %w", err)
	}
	R, T := src.Realizations(), src.Steps()
	if R < 1 || T < 1 {
		return nil, fmt.Errorf("emulator: empty training source (%d realizations x %d steps)", R, T)
	}
	if cfg.L < 2 {
		return nil, fmt.Errorf("emulator: band limit %d too small", cfg.L)
	}
	if cfg.P < 1 {
		return nil, fmt.Errorf("emulator: VAR order %d must be >= 1", cfg.P)
	}
	grid := src.Grid()
	if !grid.SupportsBandLimit(cfg.L) {
		return nil, fmt.Errorf("emulator: grid %v does not support band limit %d", grid, cfg.L)
	}
	cfg.Trend.Workers = cfg.Workers

	// Map each realization to its forcing pathway by scenario label. A
	// single-pathway set pools every realization under pathway 0, which
	// is the legacy Train/TrainFrom contract.
	assign := make([]int, R)
	if set.Len() > 1 {
		for r := range assign {
			label := src.Scenario(r)
			k := set.Index(label)
			if k < 0 {
				return nil, fmt.Errorf("emulator: realization %d labeled %q, not a pathway of the forcing set %v",
					r, label, set.Names())
			}
			assign[r] = k
		}
	}

	// Step 1: deterministic component (eq. 2), streamed. Fields flow
	// through the trend accumulator in realization-major, time-ascending
	// order; with more than one worker the realization loop fans out
	// over static contiguous spans, each span folding into its own
	// forked accumulator (per-span decode + per-field pixel fold run on
	// that worker alone), and the span partials merge back in span
	// order — so the fit is bit-deterministic for a fixed worker count,
	// and identical across sources yielding bitwise-equal fields.
	acc, err := trend.NewAccumulatorSet(grid, R, T, set, assign, lead, cfg.Trend)
	if err != nil {
		return nil, fmt.Errorf("emulator: trend fit: %w", err)
	}
	nTrend := par.SpanWorkers(cfg.Workers, R)
	parts := make([]*trend.Accumulator, nTrend)
	trendErrs := make([]error, nTrend)
	par.ForSpans(cfg.Workers, R, func(g, lo, hi int) {
		// One span folds straight into acc, whose pixel sweep keeps its
		// own fan-out (Fork would force it sequential).
		part := acc
		if nTrend > 1 {
			part = acc.Fork()
		}
		parts[g] = part
		y := sphere.NewField(grid)
		for r := lo; r < hi; r++ {
			cur, err := src.Series(r)
			if err != nil {
				trendErrs[g] = err
				return
			}
			for t := 0; t < T; t++ {
				if err := cur.ReadInto(y, t); err != nil {
					cur.Close()
					trendErrs[g] = err
					return
				}
				if err := part.Add(r, t, y); err != nil {
					cur.Close()
					trendErrs[g] = err
					return
				}
			}
			cur.Close()
		}
	})
	for g := range trendErrs {
		if trendErrs[g] != nil {
			return nil, fmt.Errorf("emulator: trend pass: %w", trendErrs[g])
		}
	}
	if nTrend > 1 {
		for _, part := range parts {
			if err := acc.Merge(part); err != nil {
				return nil, fmt.Errorf("emulator: trend fit: %w", err)
			}
		}
	}
	fit, err := acc.Solve()
	if err != nil {
		return nil, fmt.Errorf("emulator: trend fit: %w", err)
	}

	// Step 2: spherical harmonic analysis of standardized residuals, and
	// the nugget variance from the truncation error. Every (realization,
	// timestep) pair is independent, so the second pass fans out over
	// static contiguous spans of the flattened index: each worker walks
	// its span in order through its own source cursor with per-worker
	// scratch, and the per-span nugget partials merge in span order, so
	// the result is bit-deterministic for a fixed worker count (unlike
	// dynamic scheduling, whose partition varies run to run). The plan is
	// concurrency-safe; each worker runs its transforms sequentially so
	// the fan-out happens at exactly one level.
	plan, err := sht.NewPlan(grid, cfg.L, sht.WithWorkers(cfg.Workers))
	if err != nil {
		return nil, fmt.Errorf("emulator: %w", err)
	}
	total := R * T
	dim := sht.PackDim(cfg.L)
	coeffBuf := make([]float64, total*dim) // one pre-sized backing array
	packed := make([][][]float64, R)
	for r := range packed {
		packed[r] = make([][]float64, T)
		for t := range packed[r] {
			off := (r*T + t) * dim
			packed[r][t] = coeffBuf[off : off+dim : off+dim]
		}
	}
	nWorkers := par.SpanWorkers(cfg.Workers, total)
	nuggetPart := make([][]float64, nWorkers)
	spanErrs := make([]error, nWorkers)
	par.ForSpans(cfg.Workers, total, func(g, lo, hi int) {
		z := sphere.NewField(grid)
		recon := sphere.NewField(grid)
		nug := make([]float64, grid.Points())
		nuggetPart[g] = nug
		seqPlan := plan.Sequential()
		coeffs := sht.NewCoeffs(cfg.L)
		var mean trend.Step
		var cur source.Cursor
		curR := -1
		defer func() {
			if cur != nil {
				cur.Close()
			}
		}()
		for idx := lo; idx < hi; idx++ {
			r, t := idx/T, idx%T
			if r != curR {
				if cur != nil {
					cur.Close()
				}
				var err error
				if cur, err = src.Series(r); err != nil {
					spanErrs[g] = err
					return
				}
				curR = r
			}
			if err := cur.ReadInto(z, t); err != nil {
				spanErrs[g] = err
				return
			}
			// Standardize against the realization's own pathway: mixed
			// historical + projection members each subtract the mean
			// trend of the forcing that drove them.
			fit.StepAt(assign[r], t, &mean)
			mean.Standardize(z, z)
			seqPlan.AnalyzeInto(coeffs, z)
			coeffs.PackReal(packed[r][t])
			seqPlan.SynthesizeInto(recon, coeffs)
			for pix, v := range z.Data {
				d := v - recon.Data[pix]
				nug[pix] += d * d
			}
		}
	})
	for g := range spanErrs {
		if spanErrs[g] != nil {
			return nil, fmt.Errorf("emulator: residual pass: %w", spanErrs[g])
		}
	}
	nugget := make([]float64, grid.Points())
	for g := range nuggetPart {
		for pix, v := range nuggetPart[g] {
			nugget[pix] += v
		}
	}
	for pix := range nugget {
		nugget[pix] /= float64(total)
	}

	// Step 3: temporal model on the coefficient vectors.
	vm, err := varm.Fit(packed, cfg.P, cfg.Workers)
	if err != nil {
		return nil, fmt.Errorf("emulator: VAR fit: %w", err)
	}
	resid := make([][][]float64, len(packed))
	for r := range packed {
		resid[r] = vm.Residuals(packed[r])
	}

	// Step 4: empirical innovation covariance (eq. 9) with the paper's
	// diagonal perturbation when rank-deficient.
	u, err := varm.EmpiricalCovariance(resid)
	if err != nil {
		return nil, fmt.Errorf("emulator: covariance: %w", err)
	}
	samples := 0
	for r := range resid {
		samples += len(resid[r])
	}
	jit := 0.0
	if samples < u.Rows {
		jit = varm.Jitter(u, jitterEps*float64(u.Rows-samples+1))
	}

	// Step 5: mixed-precision tile Cholesky of U.
	b := cfg.TileSize
	if b == 0 {
		b = chooseTile(u.Rows)
	}
	if u.Rows%b != 0 {
		return nil, fmt.Errorf("emulator: tile size %d does not divide covariance dimension %d", b, u.Rows)
	}
	nt := u.Rows / b
	var s *tile.SymmMatrix
	var res mpchol.Result
	start := time.Now()
	for attempt := 0; ; attempt++ {
		s = tile.FromDense(u, b, cfg.Variant.Map(nt))
		res, err = mpchol.Factor(s, mpchol.Options{
			Workers:       cfg.Workers,
			SenderConvert: cfg.SenderConvert,
		})
		if err == nil {
			break
		}
		if attempt >= 4 {
			return nil, fmt.Errorf("emulator: covariance factorization: %w", err)
		}
		// Escalate the jitter: low-precision rounding can push tiny
		// eigenvalues negative.
		jit += varm.Jitter(u, jitterEps*math.Pow(10, float64(attempt+2)))
	}
	elapsed := time.Since(start).Seconds()

	m := &Model{
		Cfg:       cfg,
		Grid:      grid,
		Trend:     fit,
		VAR:       vm,
		Factor:    s,
		NuggetVar: nugget,
		Diag: TrainDiagnostics{
			CovDim:         u.Rows,
			TileSize:       b,
			Variant:        cfg.Variant.String(),
			Members:        R,
			StepsPerMember: T,
			Pathways:       set.Len(),
			FactorSeconds:  elapsed,
			Conversions:    res.Conversions,
			MovedBytes:     res.MovedBytes,
			JitterApplied:  jit,
			FactorBytes:    s.Bytes(),
			FactorBytesDP:  s.BytesAllDP(),
		},
		plan: plan,
	}
	return m, nil
}

// EnsurePlan rebuilds the transform plan after deserialization. It is
// safe to call from multiple goroutines; the plan is built at most once.
func (m *Model) EnsurePlan() error {
	m.planOnce.Do(func() {
		if m.plan != nil {
			return // Train installed the plan it already built
		}
		m.plan, m.planErr = sht.NewPlan(m.Grid, m.Cfg.L, sht.WithWorkers(m.Cfg.Workers))
	})
	return m.planErr
}

// Plan exposes the transform plan (for consistency checks).
func (m *Model) Plan() (*sht.Plan, error) {
	if err := m.EnsurePlan(); err != nil {
		return nil, err
	}
	return m.plan, nil
}

func (m *Model) dense() *linalg.Matrix {
	m.denseOnce.Do(func() {
		d := m.Factor.ToDense()
		// The factor is lower triangular; clear the mirrored upper half
		// produced by ToDense's symmetric completion.
		for i := 0; i < d.Rows; i++ {
			for j := i + 1; j < d.Cols; j++ {
				d.Data[i*d.Cols+j] = 0
			}
		}
		m.denseFactor = d
	})
	return m.denseFactor
}

// nuggetSD returns sqrt(NuggetVar), built once and shared by every
// generator goroutine.
func (m *Model) nuggetSD() []float64 {
	m.nugOnce.Do(func() {
		m.nugSD = make([]float64, len(m.NuggetVar))
		for pix, v := range m.NuggetVar {
			if v > 0 {
				m.nugSD[pix] = math.Sqrt(v)
			}
		}
	})
	return m.nugSD
}

// burnIn is the VAR spin-up discarded before step 0.
func (m *Model) burnIn() int { return 10*m.VAR.P + 50 }

// generateStep is the one generation step of Section III-B: inverse-
// transform the packed spectral state, add the nugget drawn from the
// member's rng, and restore the deterministic component mean (which may
// carry scenario forcing) into out. Nothing is allocated.
func generateStep(plan *sht.Plan, packed []float64, nug []float64, rng *rand.Rand, mean *trend.Step, out sphere.Field) {
	sht.SynthesizePacked(plan, out.Data, packed)
	for pix := range out.Data {
		out.Data[pix] += nug[pix] * rng.NormFloat64()
	}
	mean.Unstandardize(out)
}

// fitUnder returns the trend view that restores the deterministic
// component under the annual forcing rf; nil keeps the training forcing.
func (m *Model) fitUnder(rf []float64) *trend.Fit {
	if rf == nil {
		return m.Trend
	}
	return m.Trend.WithAnnualRF(rf)
}

// generate is the one generation loop: M = len(rngs) members advance
// together as the columns of one VAR state matrix (varm.SimulateBatch,
// innovations xi = V eta), and every step each member's column becomes a
// temperature field under fit through generateStep. Member c's rng drives
// both its VAR innovations (drawn inside SimulateBatch) and its nugget
// noise (drawn here, between VAR steps), so a member's series depends only
// on (its rng, t0, fit): the same whether it runs alone or in an ensemble.
// One member synthesizes with the model's parallel plan; several fan out
// over members, each worker running its transforms sequentially, so the
// fan-out happens at exactly one level.
//
// emit may be called from several goroutines at once, but a member's
// steps arrive strictly in order. The field it receives is worker scratch
// reused for later steps — copy it to retain.
func (m *Model) generate(fit *trend.Fit, rngs []*rand.Rand, t0, steps, workers int, emit func(member, t int, f sphere.Field)) error {
	if err := m.EnsurePlan(); err != nil {
		return err
	}
	// Materialize the shared read-only state before fanning out so the
	// workers only ever read it.
	v := m.dense()
	nug := m.nuggetSD()
	M := len(rngs)
	plan := m.plan
	if M > 1 {
		plan = plan.Sequential()
	}
	dim := m.VAR.Dim
	packed := make([][]float64, par.SpanWorkers(workers, M))
	fields := make([]sphere.Field, len(packed))
	var (
		mean   trend.Step
		t      int
		states *linalg.Matrix
	)
	// One closure for the whole run, not one per step.
	member := func(g, c int) {
		if packed[g] == nil {
			packed[g] = make([]float64, dim)
			fields[g] = sphere.NewField(m.Grid)
		}
		for d := range packed[g] {
			packed[g][d] = states.Data[d*M+c]
		}
		generateStep(plan, packed[g], nug, rngs[c], &mean, fields[g])
		emit(c, t, fields[g])
	}
	m.VAR.SimulateBatch(v, rngs, m.burnIn(), steps, func(tt int, st *linalg.Matrix) {
		t, states = tt, st
		// The deterministic component depends on t only: built once per
		// step, read by every member's worker.
		fit.StepAt(0, t0+t, &mean)
		par.ForNWorker(workers, M, member)
	})
	return nil
}

// EmulateUnderForEach streams T emulated fields beginning at training
// step offset t0 under the annual forcing pathway rf — a "what-if"
// scenario the model was never trained on. rf must cover the trend fit's
// Lead years before step 0 plus every emulated year; nil keeps the
// training forcing. The deterministic component is restored through
// Trend.WithAnnualRF(rf), so output is byte-identical to emulating from a
// model whose Trend is that view — the contract the serving subsystem's
// live what-if scenarios are pinned against. Fields handed to fn are
// freshly allocated and may be retained. Distinct seeds give independent
// ensemble members; multiple goroutines may call it on one shared Model.
func (m *Model) EmulateUnderForEach(rf []float64, seed int64, t0, T int, fn func(t int, f sphere.Field)) error {
	rngs := []*rand.Rand{rand.New(rand.NewSource(seed))}
	return m.generate(m.fitUnder(rf), rngs, t0, T, 1, func(_, t int, f sphere.Field) {
		fn(t, f.Copy())
	})
}

// EmulateUnder returns T fields emulated under the annual forcing rf
// (nil keeps the training forcing) beginning at training step t0.
func (m *Model) EmulateUnder(rf []float64, seed int64, t0, T int) ([]sphere.Field, error) {
	out := make([]sphere.Field, T)
	err := m.EmulateUnderForEach(rf, seed, t0, T, func(t int, f sphere.Field) { out[t] = f })
	return out, err
}

// Emulate returns T emulated fields beginning at training step t0.
func (m *Model) Emulate(seed int64, t0, T int) ([]sphere.Field, error) {
	return m.EmulateUnder(nil, seed, t0, T)
}

// CheckConsistency compares a simulated series with a fresh emulation of
// equal length, returning the Fig. 2/4 style metrics.
func (m *Model) CheckConsistency(sim []sphere.Field, seed int64) (stats.Consistency, error) {
	emu, err := m.Emulate(seed, 0, len(sim))
	if err != nil {
		return stats.Consistency{}, err
	}
	p, err := m.Plan()
	if err != nil {
		return stats.Consistency{}, err
	}
	return stats.CheckConsistency(p, sim, emu), nil
}

// Save serializes the model with encoding/gob. The mixed-precision tiled
// factor is stored as-is, so the on-disk footprint reflects the paper's
// storage savings.
func (m *Model) Save(w io.Writer) error {
	return gob.NewEncoder(w).Encode(m)
}

// Load deserializes a model saved with Save.
func Load(r io.Reader) (*Model, error) {
	var m Model
	if err := gob.NewDecoder(r).Decode(&m); err != nil {
		return nil, err
	}
	// Models saved before forcing became pathway-keyed stored the trend
	// forcing in a field gob now discards; decoding them "succeeds" with
	// an empty pathway set and would panic on first evaluation. Fail
	// loudly instead.
	if m.Trend != nil && m.Trend.Set.Len() == 0 {
		return nil, errors.New("emulator: model predates pathway-keyed forcing (no forcing pathways in its trend fit); retrain it")
	}
	return &m, nil
}

// countingWriter measures serialized size without buffering.
type countingWriter struct{ n int64 }

func (c *countingWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// SizeBytes returns the serialized size of the model, the quantity the
// storage-savings analysis compares against raw simulation output.
func (m *Model) SizeBytes() (int64, error) {
	var c countingWriter
	if err := m.Save(&c); err != nil {
		return 0, err
	}
	return c.n, nil
}
