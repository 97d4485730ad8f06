// Package serve is golden-test input for the ctxflow and lockedcall
// analyzers: its package name puts it inside both scopes.
package serve

import (
	"compress/flate"
	"compress/gzip"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sync"

	"vetdata/obs"
	"vetdata/sht"
	"vetdata/trace"
)

type handler struct {
	mu      sync.Mutex
	plan    *sht.Plan
	data    []float64
	hits    *obs.Counter
	latency *obs.Histogram
	sink    obs.Sink
	span    *trace.Span
	traces  *trace.Store
	body    []byte
}

// A detached context escapes the request's timeout/shedding layer.
func (h *handler) bad(w http.ResponseWriter, r *http.Request) {
	ctx := context.Background() // want:ctxflow "context.Background in the serving tier"
	h.serveWith(ctx, w)
}

// TODO contexts are just as detached.
func (h *handler) stub(w http.ResponseWriter, r *http.Request) {
	h.serveWith(context.TODO(), w) // want:ctxflow "context.TODO in the serving tier"
}

// Deriving from the request is the sanctioned form.
func (h *handler) good(w http.ResponseWriter, r *http.Request) {
	h.serveWith(r.Context(), w)
}

func (h *handler) serveWith(ctx context.Context, w http.ResponseWriter) {
	_ = ctx
	w.Write(nil)
}

// Synthesis under the shard lock serializes every other request.
func (h *handler) badSynthesize() {
	h.mu.Lock()
	h.plan.Synthesize(h.data) // want:lockedcall "while holding h.mu"
	h.mu.Unlock()
}

// A response write under the lock couples client I/O to the cache.
func (h *handler) badWrite(w http.ResponseWriter) {
	h.mu.Lock()
	defer h.mu.Unlock()
	w.Write(nil) // want:lockedcall "while holding h.mu"
}

// The single-flight shape: copy under the lock, work outside it.
func (h *handler) goodFlight() {
	h.mu.Lock()
	data := h.data
	h.mu.Unlock()
	h.plan.Synthesize(data)
}

// Every form of the transforms is as heavy as the one above: the float32
// method, the generic packed entry point (inferred or explicitly
// instantiated) and the packed forward transform.
func (h *handler) badPackedTransforms(dst, packed []float32) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.plan.SynthesizeIntoF32(dst, packed)           // want:lockedcall "SynthesizeIntoF32 .SHT transform."
	sht.SynthesizePacked(h.plan, dst, packed)       // want:lockedcall "SynthesizePacked .SHT transform."
	sht.SynthesizePacked[float64](h.plan, nil, nil) // want:lockedcall "SynthesizePacked .SHT transform."
	h.data = h.plan.AnalyzePacked(h.data, h.data)   // want:lockedcall "AnalyzePacked .SHT transform."
}

// Building an evaluator is a Legendre recursion per row and a step is a
// rows x L^2 product: neither belongs under the lock that guards the
// evaluator cache's list.
func (h *handler) badEvaluators(thetas, phis []float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	ev := sht.NewPointBatchEvaluator(8, thetas, phis) // want:lockedcall "NewPointBatchEvaluator .SHT transform."
	h.data = ev.EvalPacked(h.data, h.data)            // want:lockedcall "EvalPacked .SHT transform."
	h.data = ev.EvalBlock(h.data, h.data, 4)          // want:lockedcall "EvalBlock .SHT transform."
	_ = sht.NewPointEvaluator(8, 0.5, 1.5)            // want:lockedcall "NewPointEvaluator .SHT transform."
	_ = sht.NewMeanEvaluator(8, thetas, thetas, phis) // want:lockedcall "NewMeanEvaluator .SHT transform."
}

// The evaluator cache's shape: look up under the lock, build outside it.
func (h *handler) goodEvaluator(thetas, phis []float64) []float64 {
	h.mu.Lock()
	data := h.data
	h.mu.Unlock()
	return sht.NewPointBatchEvaluator(8, thetas, phis).EvalPacked(nil, data)
}

// Metric observation under the shard lock couples every request on the
// shard to the recording path's latency.
func (h *handler) badCountUnderLock() {
	h.mu.Lock()
	h.hits.Inc() // want:lockedcall "metric observation"
	h.mu.Unlock()
}

// Histogram recording under a deferred unlock is held to function end.
func (h *handler) badObserveUnderLock(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.latency.Observe(v) // want:lockedcall "metric observation"
}

// Reporting through the pluggable sink interface is recording too.
func (h *handler) badSinkUnderLock() {
	h.mu.Lock()
	h.sink.Add("hits", 1) // want:lockedcall "metric observation"
	h.mu.Unlock()
}

func (h *handler) logRequest() {}

// Request logging serializes on the log mutex; not under a shard lock.
func (h *handler) badLogUnderLock() {
	h.mu.Lock()
	h.logRequest() // want:lockedcall "request logging"
	h.mu.Unlock()
}

// Counting after the unlock is the sanctioned shape.
func (h *handler) goodCountAfterUnlock() {
	h.mu.Lock()
	data := h.data
	h.mu.Unlock()
	h.hits.Inc()
	h.latency.Observe(float64(len(data)))
	h.logRequest()
}

// Finalizing a span under the shard lock puts the tracer's clock stamp
// and child-list append inside the critical section.
func (h *handler) badSpanEndUnderLock() {
	h.mu.Lock()
	h.span.End() // want:lockedcall "trace operation"
	h.mu.Unlock()
}

// Publishing to the trace store takes the stripe lock while the shard
// lock is held — lock nesting the invariant exists to prevent.
func (h *handler) badStoreAddUnderLock(tr *trace.Trace) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.traces.Add(tr) // want:lockedcall "trace operation"
}

func beginStage() {}

// The stage-instrumentation entry points are trace operations by name.
func (h *handler) badBeginStageUnderLock() {
	h.mu.Lock()
	beginStage() // want:lockedcall "trace operation"
	h.mu.Unlock()
}

// Tracing after the unlock is the sanctioned shape.
func (h *handler) goodTraceAfterUnlock(tr *trace.Trace) {
	h.mu.Lock()
	data := h.data
	h.mu.Unlock()
	h.span.SetAttr("len", int64(len(data)))
	h.span.End()
	h.traces.Add(tr)
	beginStage()
}

// A root span minted outside the middleware detaches from the request's
// trace; child spans must come from the request context.
func (h *handler) badRootSpan() {
	_, sp := trace.New("detached", trace.Options{}) // want:ctxflow "trace.New outside middleware.go"
	sp.End()
}

func encodeBody(data []float64) []byte { return nil }

func gzipBody(identity []byte) []byte { return identity }

// Encoding a response body is O(grid) of formatting and deflate: a fill
// under the shard lock serializes the shard behind it.
func (h *handler) badEncodeUnderLock(w io.Writer, zw *gzip.Writer, fw *flate.Writer) {
	h.mu.Lock()
	defer h.mu.Unlock()
	b, _ := json.Marshal(h.data)      // want:lockedcall "json.Marshal .response body encoding."
	json.NewEncoder(w).Encode(h.data) // want:lockedcall "Encode .response body encoding."
	zw.Write(b)                       // want:lockedcall "zw.Write .response body encoding."
	zw.Close()                        // want:lockedcall "zw.Close .response body encoding."
	fw.Flush()                        // want:lockedcall "fw.Flush .response body encoding."
	_ = gzip.NewWriter(w)             // want:lockedcall "gzip.NewWriter .response body encoding."
	h.body = encodeBody(h.data)       // want:lockedcall "encodeBody .response body encoding."
	h.body = gzipBody(b)              // want:lockedcall "gzipBody .response body encoding."
	_ = h.keepBody(gzipBody(h.body))  // want:lockedcall "gzipBody .response body encoding."
	h.body = h.fieldBody()            // want:lockedcall "h.fieldBody .response body encoding."
}

func (h *handler) fieldBody() []byte { return gzipBody(encodeBody(h.data)) }

func (h *handler) keepBody(b []byte) []byte { return b }

// The kept-body shape: read the grid under the lock, encode outside it,
// store the finished bytes under it again. Decoding JSON and reading a
// gzip stream are not body encoding.
func (h *handler) goodEncodeThenKeep(zw *gzip.Writer, zr *gzip.Reader) {
	h.mu.Lock()
	data := h.data
	h.mu.Unlock()
	b, _ := json.Marshal(data)
	zw.Write(b)
	zw.Close()
	body := gzipBody(encodeBody(data))
	h.mu.Lock()
	h.body = h.keepBody(body)
	_ = json.Unmarshal(b, &h.data)
	zr.Close()
	h.mu.Unlock()
}
