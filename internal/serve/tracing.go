package serve

import (
	"context"
	"net/http"
	"time"

	"exaclim/internal/obs/trace"
)

// Per-request tracing: every hot-path stage runs between a beginStage /
// end pair (or reports an aggregated recordStage for loop-shaped
// endpoints). Stage time always accumulates into the request's
// requestInfo — that feeds the exaclim_stage_duration_seconds
// histograms on every instrumented request — while span capture is
// sampled: only requests the head sampler (or the slow-trace trigger,
// or an inbound sampled traceparent) selects carry a span tree, and
// only those pay any allocation. Unsampled requests ride the nil-span
// fast path end to end (pinned by TestTracingUnsampledZeroAlloc).

// stage enumerates the serving stages latency is attributed to. The
// names are the `stage` label values of exaclim_stage_duration_seconds
// and the span names under a request's root span.
type stage int

const (
	// stageCache is the field-cache lookup, including the load it runs
	// on a miss (decode+synthesis or emulation nest inside it).
	stageCache stage = iota
	// stageCacheWait is time spent blocked on another request's
	// single-flight load.
	stageCacheWait
	// stageDecode is archive chunk read + packed-coefficient decode.
	stageDecode
	// stageSynthesis is spectral synthesis onto the serving grid.
	stageSynthesis
	// stageEval is point-wise spectral evaluation (evaluator build +
	// one EvalBlock product per block of decoded steps).
	stageEval
	// stageEmulate is on-demand live VAR emulation.
	stageEmulate
	// stageEncode is response encoding: JSON or raw f32, plus gzip.
	stageEncode
	numStages
)

// stageNames are the exposition label values, indexed by stage.
var stageNames = [numStages]string{
	"cache", "cache_wait", "decode", "synthesis", "eval", "emulate", "encode",
}

// stageDurationBuckets is the bucket layout of the per-stage histogram:
// stages start two decades below whole requests (a warm cache lookup is
// microseconds), so DefLatencyBuckets would collapse them into its
// first bucket.
var stageDurationBuckets = []float64{
	0.00001, 0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
	0.01, 0.025, 0.05, 0.1, 0.25, 1, 5,
}

// tracer is the server's tracing state: the sampling policy, the
// slow-trace trigger, and the ring store /debug/traces reads.
type tracer struct {
	sampler trace.Sampler
	slow    time.Duration
	store   *trace.Store
}

// traceStoreCapacity bounds the ring of kept traces /debug/traces
// serves; the oldest are evicted first.
const traceStoreCapacity = 256

// newTracer builds the tracer, or returns nil when no tracing knob is
// set — the nil tracer keeps the wholly-untraced configuration at
// literal zero cost.
func newTracer(cfg Config) *tracer {
	if cfg.TraceSampleRate <= 0 && cfg.SlowTraceThreshold <= 0 && !cfg.EnableTraceDebug {
		return nil
	}
	return &tracer{
		sampler: trace.NewSampler(cfg.TraceSampleRate),
		slow:    cfg.SlowTraceThreshold,
		store:   trace.NewStore(traceStoreCapacity),
	}
}

// stageInfo returns the request's annotation slot, nil outside an
// instrumented request.
func stageInfo(ctx context.Context) *requestInfo {
	info, _ := ctx.Value(requestInfoKey{}).(*requestInfo)
	return info
}

// currentSpan returns the span new stage spans should nest under: a
// narrower span installed by ctx (the cache stage around a load), else
// the request's root. Nil when the request is untraced.
func currentSpan(ctx context.Context, info *requestInfo) *trace.Span {
	if sp := trace.FromContext(ctx); sp != nil {
		return sp
	}
	if info == nil {
		return nil
	}
	return info.span
}

// stageTimer times one stage occurrence. It is a value type: beginning
// and ending a stage on an instrumented-but-unsampled request costs two
// clock reads and one atomic add, and allocates nothing.
type stageTimer struct {
	info  *requestInfo
	st    stage
	span  *trace.Span
	start time.Time
}

// beginStage opens a stage timer for the current request; end() closes
// it. Outside an instrumented request the returned timer (and its
// end/attr methods) are no-ops. Must never be called with a cache-shard
// mutex held — like metric observation, it is part of the lockedcall
// forbidden set.
func beginStage(ctx context.Context, st stage) stageTimer {
	info := stageInfo(ctx)
	if info == nil {
		return stageTimer{}
	}
	return stageTimer{
		info:  info,
		st:    st,
		span:  currentSpan(ctx, info).Child(stageNames[st]),
		start: time.Now(),
	}
}

// end closes the stage: accumulates its duration for the stage
// histograms and ends the span, if one is being captured.
func (t stageTimer) end() {
	if t.info == nil {
		return
	}
	t.info.stages[t.st].Add(int64(time.Since(t.start)))
	t.span.End()
}

// ctx returns ctx with the stage's span as the current span, so stages
// opened inside nest under it. Untraced requests get ctx back unchanged
// (no allocation).
func (t stageTimer) ctx(ctx context.Context) context.Context {
	return trace.ContextWithSpan(ctx, t.span)
}

// attr records an integer attribute on the stage's span, if captured.
func (t stageTimer) attr(key string, v int64) { t.span.SetAttr(key, v) }

// attrStr records a string attribute on the stage's span, if captured.
func (t stageTimer) attrStr(key, v string) { t.span.SetAttrString(key, v) }

// recordStage reports one aggregated stage occurrence — the shape
// loop-heavy series endpoints use: they accumulate stage time across
// steps with a loopClock and report one span per stage with a steps
// attribute, instead of thousands of per-step spans. It returns the
// span (nil when untraced) so callers can attach more attributes.
func recordStage(ctx context.Context, st stage, start time.Time, d time.Duration, steps int64) *trace.Span {
	info := stageInfo(ctx)
	if info == nil || d <= 0 {
		return nil
	}
	info.stages[st].Add(int64(d))
	sp := currentSpan(ctx, info).Child(stageNames[st])
	sp.SetAttr("steps", steps)
	sp.EndAggregate(start, d)
	return sp
}

// loopClock accumulates per-iteration time for recordStage: two clock
// reads per instrumented iteration, none when the request is not
// instrumented.
type loopClock struct {
	on   bool
	mark time.Time
}

// newLoopClock returns a clock that ticks only for instrumented
// requests.
func newLoopClock(ctx context.Context) loopClock {
	return loopClock{on: stageInfo(ctx) != nil}
}

// tick marks the start of a timed section.
func (c *loopClock) tick() {
	if c.on {
		c.mark = time.Now()
	}
}

// tock adds the time since the last tick to acc.
func (c *loopClock) tock(acc *time.Duration) {
	if c.on {
		*acc += time.Since(c.mark)
	}
}

// handleTraces serves /debug/traces: the trace store's JSON export,
// newest first. Gated like pprof (Config.EnableTraceDebug) — an admin
// surface, not a public one.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	s.tracer.store.WriteJSON(w)
}
