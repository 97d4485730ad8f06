package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"exaclim/internal/obs/trace"
)

// RequestIDHeader carries the request ID: inbound values are honored
// (so gateway-assigned IDs propagate through shard fan-out), otherwise
// the server assigns one, and either way the response echoes it.
const RequestIDHeader = "X-Request-ID"

// requestInfo is the per-request annotation slot the middleware installs
// in the request context. Handlers deeper in the stack (the field cache)
// write into it; the middleware reads it when emitting the request log.
// The cache outcome is an atomic.Value because http.TimeoutHandler runs
// the inner handler on its own goroutine — a timed-out request's load
// can still be annotating while the middleware writes the log line.
type requestInfo struct {
	cache atomic.Value // string: outcome of the last field-cache access

	// span is the request's root span, nil unless this request's span
	// tree is being captured (sampled, inbound-sampled, or slow-armed).
	// Written once by the middleware before the handler runs.
	span *trace.Span

	// stages accumulates per-stage time in nanoseconds. Atomic for the
	// same reason cache is: a timed-out request's load may still be
	// adding stage time while the middleware reads the totals.
	stages [numStages]atomic.Int64
}

// requestInfoKey is the context key for *requestInfo.
type requestInfoKey struct{}

// noteCacheOutcome records the field-cache outcome ("hit", "miss",
// "coalesced") of the current request, when one is being traced. Must
// never be called with a cache-shard mutex held (the lockedcall
// invariant — it shares the forbidden set with metric observation).
func noteCacheOutcome(ctx context.Context, outcome string) {
	if info, ok := ctx.Value(requestInfoKey{}).(*requestInfo); ok {
		info.cache.Store(outcome)
	}
}

// nextRequestID assigns a server-generated request ID: a per-process
// random-ish base (startup clock) plus an atomic sequence number, unique
// within the deployment without coordination.
func (s *Server) nextRequestID() string {
	return fmt.Sprintf("%s-%06d", s.reqIDBase, s.reqIDSeq.Add(1))
}

// statusWriter captures the status code and body size of a response.
// WriteHeader-less handlers surface as the implicit 200.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// endpointLabel normalizes a request path onto the server's known
// endpoints so metric label cardinality stays bounded no matter what
// paths clients probe.
func endpointLabel(path string) string {
	switch path {
	case "/v1/info", "/v1/field", "/v1/point", "/v1/points", "/v1/box", "/v1/stats":
		return path
	}
	return "other"
}

// requestLogLine is the JSON schema of one structured request-log line.
type requestLogLine struct {
	Time     string  `json:"time"` // RFC3339Nano, request start
	ID       string  `json:"id"`   // X-Request-ID (inbound or assigned)
	Method   string  `json:"method"`
	Path     string  `json:"path"`
	Status   int     `json:"status"`
	Bytes    int64   `json:"bytes"`
	Duration float64 `json:"duration_ms"`
	// Cache is the outcome of the request's last field-cache access:
	// "hit", "miss", "coalesced", or "" for queries that never touched
	// the field cache (point/box series over archived scenarios).
	Cache string `json:"cache,omitempty"`
	// TraceID joins this line to the request's span tree in
	// /debug/traces (and to exemplars on the stage histograms). Empty
	// when the request was not captured.
	TraceID string `json:"trace_id,omitempty"`
	// Slow marks requests the slow-trace trigger captured: duration at
	// or above Config.SlowTraceThreshold.
	Slow bool `json:"slow,omitempty"`
	// Stages attributes the request's time to serving stages, in
	// milliseconds — the log-side mirror of
	// exaclim_stage_duration_seconds. Only stages that ran appear.
	Stages map[string]float64 `json:"stage_ms,omitempty"`
}

// logRequest emits one JSON line to the configured request log (or, for
// slow-trace lines on a server with no request log configured, to
// stderr — a slow request must leave evidence somewhere). Lines are
// marshaled outside the log mutex; the lock covers only the write,
// keeping concurrent lines whole without serializing formatting.
func (s *Server) logRequest(line requestLogLine) {
	buf, err := json.Marshal(line)
	if err != nil {
		return
	}
	buf = append(buf, '\n')
	w := s.cfg.RequestLog
	if w == nil {
		w = os.Stderr
	}
	s.logMu.Lock()
	w.Write(buf)
	s.logMu.Unlock()
}

// stageMillis snapshots the request's nonzero stage accumulators as a
// name → milliseconds map for the request log (nil when no stage ran).
func stageMillis(info *requestInfo) map[string]float64 {
	var m map[string]float64
	for st := stage(0); st < numStages; st++ {
		if ns := info.stages[st].Load(); ns > 0 {
			if m == nil {
				m = make(map[string]float64, int(numStages))
			}
			m[stageNames[st]] = float64(ns) / 1e6
		}
	}
	return m
}

// startTrace decides one request's tracing disposition: it parses an
// inbound W3C traceparent (joining the caller's trace and honoring its
// sampled flag), applies the head sampler to the trace ID, and builds
// the span tree when the request is sampled — or when the slow-trace
// trigger is armed, so a request that turns out slow has a full tree to
// keep. Returns (nil, nil) for requests that carry no spans; stage
// timing still accumulates for those. This is the only place in the
// serving layer that may create a trace (the ctxflow invariant): every
// span anywhere below derives from the request context this root is
// installed into.
func (s *Server) startTrace(r *http.Request) (*trace.Trace, *trace.Span) {
	if s.tracer == nil {
		return nil, nil
	}
	var opts trace.Options
	if h := r.Header.Get(trace.Header); h != "" {
		if id, parent, flags, err := trace.ParseTraceparent(h); err == nil {
			opts.TraceID = id
			opts.Remote = parent
			opts.Sampled = flags&trace.FlagSampled != 0
		}
	}
	if opts.TraceID.IsZero() {
		opts.TraceID = trace.NewTraceID()
	}
	opts.Sampled = opts.Sampled || s.tracer.sampler.Sample(opts.TraceID)
	if !opts.Sampled && s.tracer.slow <= 0 {
		return nil, nil
	}
	return trace.New(r.Method+" "+endpointLabel(r.URL.Path), opts)
}

// instrument is the tracing middleware: it assigns (or propagates) the
// request ID, opens the request's root span and echoes its traceparent,
// counts and times the request per endpoint and status code, tracks the
// in-flight gauge, records per-stage latency, and emits the structured
// request log. It wraps the limiter/timeout stack from the outside, so
// shed and timed-out requests are counted with their real latency — and
// because it stays outside http.TimeoutHandler, this goroutine is the
// only writer to the statusWriter.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		id := r.Header.Get(RequestIDHeader)
		if id == "" {
			id = s.nextRequestID()
		}
		w.Header().Set(RequestIDHeader, id)
		info := &requestInfo{}
		tr, root := s.startTrace(r)
		if tr != nil {
			info.span = root
			// Echo the (possibly newly assigned) trace identity so
			// callers can join their records to ours, whether or not
			// they sent a traceparent.
			flags := byte(0)
			if tr.Sampled() {
				flags |= trace.FlagSampled
			}
			w.Header().Set(trace.Header, trace.FormatTraceparent(tr.ID(), root.SpanID(), flags))
		}
		r = r.WithContext(context.WithValue(r.Context(), requestInfoKey{}, info))
		sw := &statusWriter{ResponseWriter: w}
		s.metrics.inFlight.Add(1)
		next.ServeHTTP(sw, r)
		s.metrics.inFlight.Add(-1)
		dur := time.Since(start)
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		path := endpointLabel(r.URL.Path)
		s.metrics.reqTotal.With(path, strconv.Itoa(status)).Inc()
		s.metrics.reqLatency.With(path).Observe(dur.Seconds())
		// Settle the trace before the metrics/log tail so both can link
		// to it: keep it if it was sampled, or if it crossed the
		// slow-trace threshold (the always-on trigger).
		traceID, slow := "", false
		if tr != nil {
			root.SetAttr("http.status", int64(status))
			root.SetAttr("http.bytes", sw.bytes)
			root.End()
			keep := tr.Sampled()
			if s.tracer.slow > 0 && dur >= s.tracer.slow {
				tr.SetSlow()
				slow = true
				keep = true
			}
			if keep {
				traceID = tr.ID().String()
				s.tracer.store.Add(tr)
			}
		}
		for st := stage(0); st < numStages; st++ {
			if ns := info.stages[st].Load(); ns > 0 {
				// Kept traces ride along as exemplars, linking the
				// histogram bucket to the span tree that filled it; an
				// empty trace ID degrades to a plain observation.
				s.metrics.stageDuration.With(stageNames[st]).
					ObserveExemplar(float64(ns)/1e9, traceID)
			}
		}
		if s.cfg.RequestLog != nil || slow {
			outcome, _ := info.cache.Load().(string)
			s.logRequest(requestLogLine{
				Time:     start.UTC().Format(time.RFC3339Nano),
				ID:       id,
				Method:   r.Method,
				Path:     r.URL.Path,
				Status:   status,
				Bytes:    sw.bytes,
				Duration: float64(dur) / float64(time.Millisecond),
				Cache:    outcome,
				TraceID:  traceID,
				Slow:     slow,
				Stages:   stageMillis(info),
			})
		}
	})
}
