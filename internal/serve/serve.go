// Package serve implements exaclim's concurrent query-serving subsystem:
// the consumer-facing read path the storage claim exists for. Instead of
// hauling raw ESM output around, many clients ask a server for exactly
// what they need — a full field at (member, scenario, t), a time series
// at an arbitrary (lat, lon) point or lat/lon box, or ensemble
// statistics across members — and the server answers from a spectral
// archive (and optionally from live emulation for scenarios the archive
// does not hold).
//
// Two mechanisms carry the load:
//
//   - Point-wise spectral evaluation. A point or box query never
//     materializes a full grid: the packed coefficient vectors of the
//     series are decoded in blocks of steps on the series' parked
//     archive.Series cursor and each block is multiplied by the query's
//     sht.Evaluator weight rows — one row per location, one row for a
//     whole box mean — at O(L^2) per row and step, orders of magnitude
//     cheaper than full synthesis for L >= 64.
//
//   - A sharded LRU field cache with single-flight coalescing. N
//     concurrent requests for the same field trigger exactly one
//     decode + synthesis; everyone else waits on that flight and shares
//     the (read-only) result. Hot fields are served straight from
//     memory, each /v1/field body encoded once and kept beside its
//     field.
//
// A Server is safe for concurrent use by any number of goroutines; the
// HTTP layer in http.go fronts it with a JSON/binary API.
package serve

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"exaclim/internal/archive"
	"exaclim/internal/emulator"
	"exaclim/internal/forcing"
	"exaclim/internal/obs"
	"exaclim/internal/obs/trace"
	"exaclim/internal/sht"
	"exaclim/internal/sphere"
)

// Config tunes a Server.
type Config struct {
	// CacheBytes bounds the field cache (default 256 MiB): its float64
	// fields plus the /v1/field response bodies kept beside them.
	CacheBytes int64
	// LiveScenarios adds that many emulated-on-demand scenarios after
	// the archive's own (scenario indices Scenarios() .. Scenarios() +
	// LiveScenarios - 1). Requires a model.
	LiveScenarios int
	// LiveSteps bounds t for live scenarios (default: the archive's
	// Steps).
	LiveSteps int
	// LiveT0 is the training-step offset of live step 0. Set it to the
	// T0 the archived campaign was emulated at (exaclim archive -t0) so
	// live and archived scenarios stay aligned in season and forcing
	// year; the archive header does not record the offset.
	LiveT0 int
	// BaseSeed derives live member seeds via emulator.MemberSeed, so a
	// live series is reproducible and byte-identical to
	// Model.Emulate(MemberSeed(BaseSeed, member, scenario), LiveT0, T).
	BaseSeed int64
	// LivePathways assigns an annual-RF pathway to live scenarios in
	// order: live scenario i (overall index Scenarios()+i) emulates
	// under LivePathways[i] — a "what-if" forcing the archive does not
	// hold, byte-identical to Model.Emulate on Trend.WithAnnualRF of
	// that pathway. Live scenarios beyond len(LivePathways) keep the
	// training forcing. When LiveScenarios is zero it defaults to
	// len(LivePathways).
	LivePathways []forcing.Pathway
	// MaxInFlight caps concurrently served HTTP requests; beyond it the
	// handler sheds load with 503 instead of queueing without bound
	// (0 = unlimited). Liveness (/healthz) is exempt.
	MaxInFlight int
	// RequestTimeout bounds each HTTP request's handling time
	// (0 = none); requests over it answer 503.
	RequestTimeout time.Duration
	// RequestLog, when set, receives one JSON line per HTTP request
	// (method, path, status, duration, request ID, cache outcome).
	RequestLog io.Writer
	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the
	// handler — an admin surface; only enable it where operators, not
	// the public, reach the listener.
	EnablePprof bool
	// DisableMetrics turns off metric registration, the /metrics
	// endpoint, and the instrument middleware (request logging still
	// works). Mostly for measuring instrumentation overhead.
	DisableMetrics bool
	// TraceSampleRate is the fraction of requests (0..1) whose span
	// tree is captured into the trace store. Sampling is head-based and
	// deterministic on the trace ID, so a request sampled here is
	// sampled on every shard it fans out to. 0 disables sampling;
	// requests carrying an inbound sampled traceparent are always
	// captured.
	TraceSampleRate float64
	// SlowTraceThreshold, when positive, captures (and logs) any
	// request at or above this duration regardless of sampling — the
	// always-on net under probabilistic sampling, so the outlier that
	// matters is never the one that got away.
	SlowTraceThreshold time.Duration
	// EnableTraceDebug mounts /debug/traces on the handler — an admin
	// surface, gated like EnablePprof.
	EnableTraceDebug bool
}

// withDefaults fills zero fields.
func (c Config) withDefaults(h archive.Header) Config {
	if c.CacheBytes == 0 {
		c.CacheBytes = 256 << 20
	}
	if c.LiveScenarios == 0 {
		c.LiveScenarios = len(c.LivePathways)
	}
	if c.LiveSteps == 0 {
		c.LiveSteps = h.Steps
	}
	return c
}

// Server answers field, point, box and ensemble-statistics queries over
// one spectral archive and (optionally) one trained emulator.
type Server struct {
	r     *archive.Reader
	model *emulator.Model
	h     archive.Header
	cfg   Config
	cache *fieldCache // float64 fields and their kept response bodies
	plan  *sht.Plan   // shared read-only; see New for its fan-out

	fieldLoads atomic.Int64 // underlying archive decode+synthesis count
	liveLoads  atomic.Int64 // underlying live emulation runs
	requests   atomic.Int64 // queries answered (any kind)
	rejected   atomic.Int64 // requests shed by the in-flight cap (503)
	inFlight   chan struct{}

	metrics *serveMetrics // nil when Config.DisableMetrics
	tracer  *tracer       // nil unless a tracing knob is configured

	reqIDBase string       // per-process request-ID prefix
	reqIDSeq  atomic.Int64 // request-ID sequence within the process
	logMu     sync.Mutex   // serializes request-log line writes
}

// Stats is a point-in-time snapshot of the server's instrumentation.
type Stats struct {
	// Cache is the field cache's counter snapshot; it serves both the
	// JSON and the raw f32 format.
	Cache CacheStats
	// CacheF32 is always zero: there is no second cache. The field is
	// kept because existing Stats consumers still read it.
	CacheF32 CacheStats
	// Evals is always zero: every point query builds its own
	// evaluator, and nothing caches them. The field is kept because
	// existing Stats consumers still read it.
	Evals struct{ Hits, Misses int64 }
	// FieldLoads counts underlying archive decode+synthesis runs — with
	// single-flight coalescing this stays at one per distinct field no
	// matter how many concurrent requests raced for it.
	FieldLoads int64
	// LiveLoads counts on-demand emulation runs.
	LiveLoads int64
	// Requests counts answered queries of any kind.
	Requests int64
	// Rejected counts HTTP requests shed with 503 by the in-flight cap.
	Rejected int64
	// InFlight is the number of requests currently inside the in-flight
	// limiter (0 when no cap is configured).
	InFlight int
	// Archive is the archive reader's counter snapshot, observed via the
	// server's metric sink (all zero when metrics are disabled).
	Archive ArchiveStats
}

// New builds a server over an opened archive. model may be nil (archive
// only); cfg.LiveScenarios > 0 requires it and serves scenario indices
// beyond the archive's by emulating on demand.
func New(r *archive.Reader, model *emulator.Model, cfg Config) (*Server, error) {
	if r == nil {
		return nil, fmt.Errorf("serve: nil archive reader")
	}
	h := r.Header()
	cfg = cfg.withDefaults(h)
	if cfg.LiveScenarios > 0 {
		if model == nil {
			return nil, fmt.Errorf("serve: %d live scenarios requested without a model", cfg.LiveScenarios)
		}
		if model.Grid != h.Grid {
			return nil, fmt.Errorf("serve: model grid %v does not match archive grid %v", model.Grid, h.Grid)
		}
	}
	if n := len(cfg.LivePathways); n > cfg.LiveScenarios {
		return nil, fmt.Errorf("serve: %d live pathways but only %d live scenarios", n, cfg.LiveScenarios)
	}
	for i, pw := range cfg.LivePathways {
		if pw.Name == "" || len(pw.Annual) == 0 {
			return nil, fmt.Errorf("serve: live pathway %d needs a name and annual values", i)
		}
	}
	// Each synthesis fans out over half the cores, at most 4. The cap is
	// deliberate: requests already fan out across clients, so
	// per-request parallelism is a latency lever for the lightly loaded
	// case, not a throughput one. Output is bit-identical at any worker
	// count; archive.Series cursors keep their fully sequential plans.
	plan, err := sht.NewPlan(h.Grid, h.L, sht.WithWorkers(max(1, min(4, runtime.GOMAXPROCS(0)/2))))
	if err != nil {
		return nil, err
	}
	s := &Server{
		r:     r,
		model: model,
		h:     h,
		cfg:   cfg,
		cache: newFieldCache(cfg.CacheBytes, cacheShards),
		plan:  plan,
	}
	if cfg.MaxInFlight > 0 {
		s.inFlight = make(chan struct{}, cfg.MaxInFlight)
	}
	// The ID base only needs to differ across server processes; the
	// startup clock does, and stays readable in logs.
	s.reqIDBase = fmt.Sprintf("%x", time.Now().UnixNano())
	if !cfg.DisableMetrics {
		s.metrics = newServeMetrics(s)
		r.SetObserver(s.metrics)
	}
	s.tracer = newTracer(cfg)
	return s, nil
}

// Header returns the archive header the server fronts.
func (s *Server) Header() archive.Header { return s.h }

// Grid returns the serving grid.
func (s *Server) Grid() sphere.Grid { return s.h.Grid }

// Scenarios returns the total scenario count: archived plus live.
func (s *Server) Scenarios() int { return s.h.Scenarios + s.cfg.LiveScenarios }

// Members returns the member count (shared by archive and live series).
func (s *Server) Members() int { return s.h.Members }

// Steps returns the step count of scenario (live scenarios may differ).
func (s *Server) Steps(scenario int) int {
	if s.isLive(scenario) {
		return s.cfg.LiveSteps
	}
	return s.h.Steps
}

// Stats snapshots the server's counters.
func (s *Server) Stats() Stats {
	st := Stats{
		Cache:      s.cache.stats(),
		FieldLoads: s.fieldLoads.Load(),
		LiveLoads:  s.liveLoads.Load(),
		Requests:   s.requests.Load(),
		Rejected:   s.rejected.Load(),
		Archive:    s.metrics.archiveStats(),
	}
	if s.inFlight != nil {
		st.InFlight = len(s.inFlight)
	}
	return st
}

// Metrics returns the server's metric registry — mount
// Metrics().Handler() to expose it on an admin listener, or scrape it
// in-process. Nil when Config.DisableMetrics is set.
func (s *Server) Metrics() *obs.Registry {
	if s.metrics == nil {
		return nil
	}
	return s.metrics.reg
}

// liveRF returns the annual forcing of a live scenario: its assigned
// what-if pathway, or nil (the training forcing) when none is assigned.
func (s *Server) liveRF(scenario int) []float64 {
	li := scenario - s.h.Scenarios
	if li < 0 || li >= len(s.cfg.LivePathways) {
		return nil
	}
	return s.cfg.LivePathways[li].Annual
}

// isLive reports whether scenario is served by on-demand emulation.
func (s *Server) isLive(scenario int) bool { return scenario >= s.h.Scenarios }

// QueryError marks a request the caller got wrong (out-of-range
// coordinates, malformed parameters) as opposed to a server-side
// failure (I/O error, corrupt chunk). The HTTP layer maps it to 400;
// everything else is a 500.
type QueryError struct{ msg string }

func (e *QueryError) Error() string { return e.msg }

// badQuery builds a QueryError.
func badQuery(format string, args ...any) error {
	return &QueryError{msg: fmt.Sprintf(format, args...)}
}

// check validates a (member, scenario, t) query coordinate against the
// combined archive + live shape.
func (s *Server) check(member, scenario, t int) error {
	if member < 0 || member >= s.h.Members {
		return badQuery("serve: member %d out of range [0,%d)", member, s.h.Members)
	}
	if scenario < 0 || scenario >= s.Scenarios() {
		return badQuery("serve: scenario %d out of range [0,%d) (%d archived + %d live)",
			scenario, s.Scenarios(), s.h.Scenarios, s.cfg.LiveScenarios)
	}
	if steps := s.Steps(scenario); t < 0 || t >= steps {
		return badQuery("serve: step %d out of range [0,%d)", t, steps)
	}
	return nil
}

// checkRange validates a [t0, t1) query window.
func (s *Server) checkRange(member, scenario, t0, t1 int) error {
	if t1 <= t0 {
		return badQuery("serve: empty step range [%d,%d)", t0, t1)
	}
	if err := s.check(member, scenario, t0); err != nil {
		return err
	}
	return s.check(member, scenario, t1-1)
}

// Field returns the full grid field of (member, scenario, t) as a shared
// read-only slice in sphere.Field row-major layout. Concurrent requests
// for one field coalesce into a single decode+synthesis; subsequent
// requests hit the cache. Every /v1/field body is encoded from this slice
// (the f32 body narrows it value by value) and kept beside it while the
// field stays resident.
//
// ctx bounds this caller's wait, not the shared work: a request that is
// cancelled (client gone, http.TimeoutHandler fired) stops waiting on a
// coalesced flight immediately, while the flight itself runs to
// completion so the other waiters — and the cache — still get the field.
func (s *Server) Field(ctx context.Context, member, scenario, t int) ([]float64, error) {
	if err := s.check(member, scenario, t); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s.requests.Add(1)
	return s.field(ctx, member, scenario, t)
}

// fieldKey is the cache key of (member, scenario, t), in the live or the
// archive namespace as the scenario is served.
func (s *Server) fieldKey(member, scenario, t int) cacheKey {
	return cacheKey{live: s.isLive(scenario), member: member, scenario: scenario, t: t}
}

// field is Field without the request accounting — the internal path
// composite queries (statistics) fetch through, so one client query
// counts once no matter how many fields it touches.
func (s *Server) field(ctx context.Context, member, scenario, t int) ([]float64, error) {
	if !s.isLive(scenario) {
		return s.archiveField(ctx, member, scenario, t)
	}
	ct := beginStage(ctx, stageCache)
	defer ct.end()
	ctx = ct.ctx(ctx) // the emulate stage nests under the cache span
	return s.cache.getOrLoad(ctx, s.fieldKey(member, scenario, t), func() ([]float64, error) {
		return s.loadLiveField(ctx, member, scenario, t, t+1, nil)
	})
}

// archiveField is the one archive field load: through the cache, and on
// a miss decode the packed coefficients and synthesize on the serving
// grid. Inside the load ctx carries the request's trace state only — the
// load itself is not cancellable (single-flight waiters share its
// result).
func (s *Server) archiveField(ctx context.Context, member, scenario, t int) ([]float64, error) {
	ct := beginStage(ctx, stageCache)
	defer ct.end()
	ctx = ct.ctx(ctx) // decode and synthesis nest under the cache span
	return s.cache.getOrLoad(ctx, s.fieldKey(member, scenario, t), func() ([]float64, error) {
		s.fieldLoads.Add(1)
		// The coefficients decode into the head of the grid they become: a
		// grid that supports L has more than L^2 points, and
		// SynthesizePacked reads all of its input before it writes a pixel.
		out := make([]float64, s.h.Grid.Points())
		dt := beginStage(ctx, stageDecode)
		packed, err := s.r.ReadPacked(member, scenario, t, out[:0])
		if err != nil {
			dt.end()
			return nil, err
		}
		dt.attr("coeffs", int64(len(packed)))
		dt.end()
		st := beginStage(ctx, stageSynthesis)
		st.attr("block", int64(s.plan.SynthBlock()))
		sht.SynthesizePacked(s.plan, out, packed)
		st.end()
		return out, nil
	})
}

// loadLiveField is the one emulation run behind every live answer: it
// generates (member, scenario) from step 0 up to t1 under the scenario's
// forcing pathway (its what-if pathway when one is assigned, else the
// training forcing) and returns step t's field, t < t1. VAR generation is
// sequential, so the run costs O(t1) whatever t is; every other step it
// generates is cached on the way, which turns later queries for them into
// hits for as long as they stay resident. each, when non-nil, is handed
// steps t .. t1-1 as they are generated — how a series query is answered
// from the run itself (liveRange). Coalescing holds as for any load:
// concurrent requests for step t share this run.
func (s *Server) loadLiveField(ctx context.Context, member, scenario, t, t1 int, each func(t int, data []float64)) ([]float64, error) {
	s.liveLoads.Add(1)
	et := beginStage(ctx, stageEmulate)
	defer et.end()
	et.attr("steps", int64(t1))
	seed := emulator.MemberSeed(s.cfg.BaseSeed, member, scenario)
	var want []float64
	err := s.model.EmulateUnderForEach(s.liveRF(scenario), seed, s.cfg.LiveT0, t1, func(tt int, f sphere.Field) {
		if tt >= t && each != nil {
			each(tt, f.Data)
		}
		if tt == t {
			want = f.Data
			return
		}
		// Emulated fields are freshly allocated per step, so handing the
		// slice to the cache is safe.
		s.cache.add(s.fieldKey(member, scenario, tt), f.Data)
	})
	if err != nil {
		return nil, err
	}
	return want, nil
}

// liveRange hands fn the emulated field of every step in [t0, t1) of a
// live (member, scenario), in ascending order, running at most one
// emulation to do so. Steps are served from the cache while they are
// resident; the first one that is not makes this query emulate [0, t1)
// once, and the rest of the range reaches fn from that run as it is
// generated — never from cache residency, which a cache smaller than the
// series cannot promise (the run's later steps evict its earlier ones,
// and an LRU can hold a series' last step without its first). fn must
// not retain or modify data.
func (s *Server) liveRange(ctx context.Context, member, scenario, t0, t1 int, fn func(t int, data []float64)) error {
	ct := beginStage(ctx, stageCache)
	defer ct.end()
	ctx = ct.ctx(ctx) // the emulate stage nests under the cache span
	t, ran := t0, false
	load := func() ([]float64, error) {
		ran = true
		return s.loadLiveField(ctx, member, scenario, t, t1, fn)
	}
	for ; t < t1; t++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		data, err := s.cache.getOrLoad(ctx, s.fieldKey(member, scenario, t), load)
		if err != nil {
			return err
		}
		if ran {
			return nil // the run fed fn steps t .. t1-1
		}
		fn(t, data)
	}
	return nil
}

// angles converts a geographic (lat, lon) in degrees to (colatitude,
// longitude) in radians.
func angles(lat, lon float64) (theta, phi float64, err error) {
	if lat < -90 || lat > 90 || math.IsNaN(lat) {
		return 0, 0, badQuery("serve: latitude %g out of range [-90,90]", lat)
	}
	if math.IsNaN(lon) || math.IsInf(lon, 0) {
		return 0, 0, badQuery("serve: bad longitude %g", lon)
	}
	return (90 - lat) * math.Pi / 180, lon * math.Pi / 180, nil
}

// seriesQuery is what a series front-end hands the one series loop: n
// linear functionals of a step's field — locations, or a box mean — in
// the two forms the two kinds of scenario need.
type seriesQuery struct {
	n int
	// sample evaluates the functionals on one live-emulated grid into
	// vals. Emulated fields carry pixel-space nugget noise, so they are
	// not band-limited and are sampled on the grid (bilinear, area mean).
	sample func(data, vals []float64)
	// rows builds the spectral evaluator of functionals [lo, hi) for
	// archived steps, which never materialize a grid.
	rows func(lo, hi int) *sht.Evaluator
}

// evalBlockRows bounds the weight rows one evaluator holds: a query of
// more functionals is answered block by block, one range walk each, so
// the 4096 locations /v1/points admits never hold more than 256 x L^2
// weights (8 MiB at L = 64) instead of 128 MiB. Re-decoding the range per
// block costs about 2 % of a block's evaluation.
const evalBlockRows = 256

// evalSteps is how many archived steps one evaluator product takes (a
// ReadPackedBlocks block). The tile pairs steps, so a lone step runs its
// rows twice and streams the weights once for one step; from three steps
// on the product runs on the AVX panel tile, which packs the weights once
// per product. At L = 64 with 16 rows (2-vCPU Xeon, -cpu 1) a step costs
// 68-69 us alone, 34-36 in pairs, 28 in threes, 21 in fours, 15 in
// eights and 12 in sixteens; one row falls from 5.2-5.3 us a step (a dot)
// to 4.3. Eight keeps the chunk-clipped tail blocks of a range near the
// floor, the block (256 KiB at L = 64) in L2 between its decode and its
// product, and a cancelled request to at most eight decodes past its last
// check; sixteen would save 3 us a step at 16 rows for twice the block.
const evalSteps = 8

// series is the one loop under PointSeries, PointsSeries and BoxSeries:
// out[p][i] is functional p of step t0+i of (member, scenario). A live
// scenario is one emulation run (liveRange) sampled on the grid; an
// archived one walks the series on its parked cursor (Reader.WithSeries)
// in blocks of evalSteps decoded steps — chunk-granular, so chunk
// lookups and metric events amortize across the range — and multiplies
// each block by the query's weight rows in one product. ctx cancellation
// is observed between blocks, so an abandoned long series stops within
// evalSteps decodes instead of decoding to the end. The span returned is
// the aggregate eval span of a traced archived query (else nil), for the
// front-end's own attributes.
func (s *Server) series(ctx context.Context, member, scenario, t0, t1 int, q seriesQuery) ([][]float64, *trace.Span, error) {
	s.requests.Add(1)
	out := make([][]float64, q.n)
	for p := range out {
		out[p] = make([]float64, t1-t0)
	}
	if s.isLive(scenario) {
		vals := make([]float64, q.n)
		err := s.liveRange(ctx, member, scenario, t0, t1, func(t int, data []float64) {
			q.sample(data, vals)
			for p, v := range vals {
				out[p][t-t0] = v
			}
		})
		if err != nil {
			return nil, nil, err
		}
		return out, nil, nil
	}
	// A loop, so no span per block: each iteration's time is split into
	// decode vs eval with a loopClock and reported as one aggregate span
	// per stage.
	clk := newLoopClock(ctx)
	loopStart := time.Now()
	var decodeD, evalD time.Duration
	var cs *cursorStats
	var vals []float64
	err := s.r.WithSeries(member, scenario, func(cur *archive.Series) error {
		cs = attachCursorStats(ctx, cur)
		for lo := 0; lo < q.n; lo += evalBlockRows {
			clk.tick()
			ev := q.rows(lo, min(lo+evalBlockRows, q.n))
			rows := ev.Rows()
			clk.tock(&evalD)
			clk.tick()
			err := cur.ReadPackedBlocks(t0, t1, evalSteps, func(t int, block []float64, n int) error {
				clk.tock(&decodeD)
				if err := ctx.Err(); err != nil {
					return err
				}
				clk.tick()
				vals = ev.EvalBlock(vals, block, n)
				for p := 0; p < rows; p++ {
					o := out[lo+p][t-t0 : t-t0+n]
					for i := range o {
						o[i] = vals[i*rows+p]
					}
				}
				clk.tock(&evalD)
				clk.tick()
				return nil
			})
			clk.tock(&decodeD)
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	steps := int64((q.n+evalBlockRows-1)/evalBlockRows) * int64(t1-t0) // one walk per block
	cs.annotate(recordStage(ctx, stageDecode, loopStart, decodeD, steps))
	return out, recordStage(ctx, stageEval, loopStart, evalD, steps), nil
}

// PointSeries returns the field value at geographic (lat degrees, lon
// degrees) for every step in [t0, t1) of (member, scenario): the exact
// location by spectral evaluation for archived scenarios, bilinear
// interpolation on the grid for live ones. It is PointsSeries at one
// location.
func (s *Server) PointSeries(ctx context.Context, member, scenario int, lat, lon float64, t0, t1 int) ([]float64, error) {
	out, err := s.PointsSeries(ctx, member, scenario, []float64{lat}, []float64{lon}, t0, t1)
	if err != nil {
		return nil, err
	}
	return out[0], nil
}

// attachCursorStats hooks the request's cursorStats onto a series
// cursor so the decode span can carry chunk/IO attribution; nil (and no
// hook) outside a traced request, where no span would carry it.
// WithSeries unhooks it before it parks the cursor.
func attachCursorStats(ctx context.Context, cur *archive.Series) *cursorStats {
	info := stageInfo(ctx)
	if currentSpan(ctx, info) == nil {
		return nil
	}
	cur.SetObserver(&info.cursor)
	return &info.cursor
}

// maxBatchPoints bounds one multi-point query, keeping the response size
// sane (the evaluator's weights are bounded separately: evalBlockRows).
const maxBatchPoints = 4096

// PointsSeries returns one time series per location: out[p][i] is the
// field value at (lats[p], lons[p]) at step t0+i of (member, scenario).
// Each location is one weight row of the step product, so series p is
// bit-identical to a request for that location alone.
func (s *Server) PointsSeries(ctx context.Context, member, scenario int, lats, lons []float64, t0, t1 int) ([][]float64, error) {
	if err := s.checkRange(member, scenario, t0, t1); err != nil {
		return nil, err
	}
	if len(lats) != len(lons) {
		return nil, badQuery("serve: %d latitudes but %d longitudes", len(lats), len(lons))
	}
	if len(lats) == 0 {
		return nil, badQuery("serve: no locations")
	}
	if len(lats) > maxBatchPoints {
		return nil, badQuery("serve: %d locations exceed the %d-point limit", len(lats), maxBatchPoints)
	}
	thetas := make([]float64, len(lats))
	phis := make([]float64, len(lats))
	for p := range lats {
		theta, phi, err := angles(lats[p], lons[p])
		if err != nil {
			return nil, err
		}
		thetas[p], phis[p] = theta, phi
	}
	out, esp, err := s.series(ctx, member, scenario, t0, t1, seriesQuery{
		n: len(lats),
		sample: func(data, vals []float64) {
			for p := range vals {
				vals[p] = bilinear(s.h.Grid, data, thetas[p], phis[p])
			}
		},
		rows: func(lo, hi int) *sht.Evaluator {
			return sht.NewPointBatchEvaluator(s.h.L, thetas[lo:hi], phis[lo:hi])
		},
	})
	esp.SetAttr("points", int64(len(lats)))
	return out, err
}

// Box is a geographic latitude/longitude box in degrees. Longitudes wrap:
// LonMin > LonMax selects the band crossing the date line.
type Box struct {
	LatMin, LatMax float64
	LonMin, LonMax float64
}

// boxPoints returns the grid rings and longitudes inside the box.
func boxPoints(g sphere.Grid, b Box) (rings, lons []int, err error) {
	if b.LatMin > b.LatMax {
		return nil, nil, badQuery("serve: box latitude range [%g,%g] is empty", b.LatMin, b.LatMax)
	}
	for i := 0; i < g.NLat; i++ {
		if lat := g.Latitude(i); lat >= b.LatMin && lat <= b.LatMax {
			rings = append(rings, i)
		}
	}
	if b.LonMax-b.LonMin >= 360 {
		// A full (or wider) circle: every longitude, before the mod-360
		// normalization below would collapse the span to a single value.
		for j := 0; j < g.NLon; j++ {
			lons = append(lons, j)
		}
	} else {
		lonMin := math.Mod(math.Mod(b.LonMin, 360)+360, 360)
		lonMax := math.Mod(math.Mod(b.LonMax, 360)+360, 360)
		for j := 0; j < g.NLon; j++ {
			lon := g.LongitudeDeg(j)
			in := lon >= lonMin && lon <= lonMax
			if lonMin > lonMax { // wraps across 0
				in = lon >= lonMin || lon <= lonMax
			}
			if in {
				lons = append(lons, j)
			}
		}
	}
	if len(rings) == 0 || len(lons) == 0 {
		return nil, nil, badQuery("serve: box %+v contains no grid points on %v", b, g)
	}
	return rings, lons, nil
}

// BoxSeries returns the area-weighted mean over the grid points inside
// box for every step in [t0, t1) of (member, scenario). The mean is
// linear in the field, so for archived scenarios the whole box is one
// weight row (sht.NewMeanEvaluator: O(L^2) per ring to build, then one
// dot product per step however many points the box holds); live
// scenarios average the emulated grid directly.
func (s *Server) BoxSeries(ctx context.Context, member, scenario int, box Box, t0, t1 int) ([]float64, error) {
	if err := s.checkRange(member, scenario, t0, t1); err != nil {
		return nil, err
	}
	g := s.h.Grid
	rings, lons, err := boxPoints(g, box)
	if err != nil {
		return nil, err
	}
	// Area weights, renormalized over the box.
	aw := g.AreaWeights()
	wsum := 0.0
	for _, i := range rings {
		wsum += aw[i] * float64(len(lons))
	}
	out, esp, err := s.series(ctx, member, scenario, t0, t1, seriesQuery{
		n: 1,
		sample: func(data, vals []float64) {
			sum := 0.0
			for _, i := range rings {
				row := data[i*g.NLon:]
				for _, j := range lons {
					sum += aw[i] * row[j]
				}
			}
			vals[0] = sum / wsum
		},
		rows: func(int, int) *sht.Evaluator {
			thetas := make([]float64, len(rings))
			weights := make([]float64, len(rings))
			for k, i := range rings {
				thetas[k], weights[k] = g.Colatitude(i), aw[i]/wsum
			}
			phis := make([]float64, len(lons))
			for k, j := range lons {
				phis[k] = g.Longitude(j)
			}
			return sht.NewMeanEvaluator(s.h.L, thetas, weights, phis)
		},
	})
	if err != nil {
		return nil, err
	}
	esp.SetAttr("points", int64(len(rings)*len(lons)))
	return out[0], nil
}

// EnsembleStats returns the per-pixel ensemble mean and spread (sample
// standard deviation across members) of scenario at step t, served
// through the field cache so repeated statistics queries share decodes.
// Batched range decode does not apply here: the walk varies the member
// at a fixed step, so consecutive reads never share a chunk, and the
// field-cache path already deduplicates the decode that matters.
func (s *Server) EnsembleStats(ctx context.Context, scenario, t int) (mean, spread []float64, err error) {
	if err := s.check(0, scenario, t); err != nil {
		return nil, nil, err
	}
	s.requests.Add(1)
	n := s.h.Members
	pts := s.h.Grid.Points()
	mean = make([]float64, pts)
	m2 := make([]float64, pts)
	for m := 0; m < n; m++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		data, err := s.field(ctx, m, scenario, t)
		if err != nil {
			return nil, nil, err
		}
		// Welford across members, vectorized over pixels.
		inv := 1 / float64(m+1)
		for p, v := range data {
			d := v - mean[p]
			mean[p] += d * inv
			m2[p] += d * (v - mean[p])
		}
	}
	spread = m2
	if n > 1 {
		inv := 1 / float64(n-1)
		for p := range spread {
			spread[p] = math.Sqrt(spread[p] * inv)
		}
	} else {
		for p := range spread {
			spread[p] = 0
		}
	}
	return mean, spread, nil
}

// bilinear samples a row-major grid field at (theta, phi) by bilinear
// interpolation, periodic in longitude and clamped at the poles — the
// sampling rule for live-emulated fields, whose pixel-space nugget noise
// puts them outside the band-limited space spectral evaluation assumes.
func bilinear(g sphere.Grid, data []float64, theta, phi float64) float64 {
	fi := theta / math.Pi * float64(g.NLat-1)
	i0 := int(math.Floor(fi))
	if i0 < 0 {
		i0 = 0
	}
	if i0 > g.NLat-2 {
		i0 = g.NLat - 2
	}
	ti := fi - float64(i0)
	if ti < 0 {
		ti = 0
	}
	if ti > 1 {
		ti = 1
	}
	fj := math.Mod(math.Mod(phi, 2*math.Pi)+2*math.Pi, 2*math.Pi) / (2 * math.Pi) * float64(g.NLon)
	j0 := int(math.Floor(fj)) % g.NLon
	tj := fj - math.Floor(fj)
	j1 := (j0 + 1) % g.NLon
	top := data[i0*g.NLon+j0]*(1-tj) + data[i0*g.NLon+j1]*tj
	bot := data[(i0+1)*g.NLon+j0]*(1-tj) + data[(i0+1)*g.NLon+j1]*tj
	return top*(1-ti) + bot*ti
}
