// Package obs is exaclim's dependency-free observability core: atomic
// counters and gauges, fixed-bucket latency histograms, labeled metric
// families, and a registry that exposes everything in the Prometheus
// text exposition format — the substrate the serving tier's /metrics
// endpoint (and, later, the shard/gateway split) stands on.
//
// Design constraints, in order:
//
//   - No dependencies beyond the standard library, so instrumenting a
//     layer never pulls a metrics client into the reproducibility-audited
//     build.
//   - Recording is wait-free on the hot path: Counter.Add, Gauge.Set
//     and Histogram.Observe are single atomic operations (the histogram
//     adds one CAS loop for the sum); labeled lookups through
//     CounterVec.With take one RWMutex read-lock and should be hoisted
//     out of loops when the label set is known (With returns a stable
//     pointer).
//   - Exposition never does response I/O under a lock: WriteText
//     snapshots the registered families under the registry mutex, then
//     formats and writes with no locks held, so a slow scrape client
//     cannot block registration or recording.
//
// The package records values it is handed and reads ambient process
// state only in the runtime collector (RegisterRuntime); it never reads
// wall clocks, so instrumented deterministic packages stay clock-free —
// all timing happens at the serving layer, which owns the clocks.
package obs

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n (n < 0 is a programming error and is
// ignored to keep counters monotone).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an atomic value that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current gauge value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket histogram: observation counts per upper
// bound plus a running sum, the Prometheus cumulative-bucket model.
// Observe is wait-free except for one CAS loop on the float sum.
type Histogram struct {
	upper  []float64      // ascending upper bounds; +Inf is implicit
	counts []atomic.Int64 // len(upper)+1, last is the +Inf bucket
	sum    atomic.Uint64  // float64 bits
	// exemplars[i] is the most recent trace-linked observation that
	// landed in bucket i (OpenMetrics exemplars); nil until one is
	// recorded. Last-writer-wins is the intended semantic: exemplars
	// point at *recent* traces, not extremes.
	exemplars []atomic.Pointer[Exemplar]
}

// Exemplar links one recorded observation to the trace that produced
// it, rendered as an OpenMetrics-style `# {trace_id="..."} v` suffix on
// bucket lines so dashboards can jump from a latency bucket to a
// concrete trace in /debug/traces.
type Exemplar struct {
	TraceID string
	Value   float64
}

// newHistogram validates the bucket layout.
func newHistogram(buckets []float64) *Histogram {
	if len(buckets) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	upper := append([]float64(nil), buckets...)
	for i, b := range upper {
		if math.IsNaN(b) || (i > 0 && b <= upper[i-1]) {
			panic(fmt.Sprintf("obs: histogram buckets must be ascending, got %v", buckets))
		}
	}
	if math.IsInf(upper[len(upper)-1], +1) {
		upper = upper[:len(upper)-1] // +Inf is always implicit
	}
	return &Histogram{
		upper:     upper,
		counts:    make([]atomic.Int64, len(upper)+1),
		exemplars: make([]atomic.Pointer[Exemplar], len(upper)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) { h.observe(v) }

// ObserveExemplar records one value and attaches the trace that
// produced it to the bucket the value lands in. An empty traceID
// degrades to a plain Observe.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	i := h.observe(v)
	if traceID != "" && h.exemplars != nil {
		h.exemplars[i].Store(&Exemplar{TraceID: traceID, Value: v})
	}
}

// observe records one value and returns its bucket index.
func (h *Histogram) observe(v float64) int {
	// Linear scan: latency bucket layouts are short (~15 bounds) and the
	// common case lands early, so this beats a binary search in practice.
	i := 0
	for i < len(h.upper) && v > h.upper[i] {
		i++
	}
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return i
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	var n int64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// snapshot returns cumulative bucket counts aligned with upper (the
// final entry is the +Inf bucket == total count) and the sum. Buckets
// and sum are read without a global lock, so a snapshot taken during
// concurrent recording may straddle an observation; cumulative counts
// stay monotone because they are summed from the same per-bucket reads.
func (h *Histogram) snapshot() (cum []int64, sum float64) {
	cum = make([]int64, len(h.counts))
	var total int64
	for i := range h.counts {
		total += h.counts[i].Load()
		cum[i] = total
	}
	return cum, h.Sum()
}

// DefLatencyBuckets is the default request-latency layout in seconds:
// half-millisecond dashboard hits through ten-second live emulations.
var DefLatencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10,
}

// Metric family types, as exposed on the TYPE line.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// family is one registered metric family: a name, help text, a type,
// and either a single unlabeled metric, a func metric sampled at scrape
// time, or a set of labeled children.
type family struct {
	name   string
	help   string
	typ    string
	labels []string       // label names; empty for unlabeled families
	fn     func() float64 // scrape-time value; nil for stored metrics

	buckets []float64 // histogram bucket layout shared by children

	mu       sync.RWMutex
	children map[string]*child // key: joined label values
}

// child is one labeled series of a family.
type child struct {
	values []string
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Registry holds metric families and renders them as Prometheus text.
// Registration methods panic on invalid or duplicate names — metric
// registration happens once at construction time, so a bad name is a
// programming error, not a runtime condition.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

var (
	nameRE  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelRE = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

// register validates and installs a family.
func (r *Registry) register(f *family) *family {
	if !nameRE.MatchString(f.name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", f.name))
	}
	for _, l := range f.labels {
		if !labelRE.MatchString(l) {
			panic(fmt.Sprintf("obs: invalid label name %q on %q", l, f.name))
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[f.name]; dup {
		panic(fmt.Sprintf("obs: duplicate metric name %q", f.name))
	}
	if f.children == nil && f.fn == nil {
		f.children = make(map[string]*child)
	}
	r.families[f.name] = f
	return f
}

// Counter registers and returns an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	f := &family{name: name, help: help, typ: typeCounter}
	f.children = map[string]*child{"": {c: c}}
	r.register(f)
	return c
}

// Gauge registers and returns an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	f := &family{name: name, help: help, typ: typeGauge}
	f.children = map[string]*child{"": {g: g}}
	r.register(f)
	return g
}

// Histogram registers and returns an unlabeled fixed-bucket histogram
// (nil buckets use DefLatencyBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefLatencyBuckets
	}
	h := newHistogram(buckets)
	f := &family{name: name, help: help, typ: typeHistogram, buckets: h.upper}
	f.children = map[string]*child{"": {h: h}}
	r.register(f)
	return h
}

// CounterFunc registers a counter sampled by fn at scrape time — the
// bridge from instrumentation that already lives in atomic fields
// (Server.Stats counters) to the exposition, with no double counting.
// fn must be safe for concurrent use and monotone.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(&family{name: name, help: help, typ: typeCounter, fn: fn})
}

// GaugeFunc registers a gauge sampled by fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(&family{name: name, help: help, typ: typeGauge, fn: fn})
}

// CounterVec registers a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if len(labels) == 0 {
		panic(fmt.Sprintf("obs: CounterVec %q needs at least one label", name))
	}
	return &CounterVec{f: r.register(&family{name: name, help: help, typ: typeCounter, labels: labels})}
}

// HistogramVec registers a labeled histogram family (nil buckets use
// DefLatencyBuckets).
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if len(labels) == 0 {
		panic(fmt.Sprintf("obs: HistogramVec %q needs at least one label", name))
	}
	if buckets == nil {
		buckets = DefLatencyBuckets
	}
	h := newHistogram(buckets) // validate once; children copy the layout
	return &HistogramVec{f: r.register(&family{
		name: name, help: help, typ: typeHistogram, labels: labels, buckets: h.upper,
	})}
}

// CounterVec is a counter family keyed by label values.
type CounterVec struct{ f *family }

// With returns the counter for the given label values (created on first
// use). The returned pointer is stable: hoist it out of hot loops.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.child(values).c
}

// HistogramVec is a histogram family keyed by label values.
type HistogramVec struct{ f *family }

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.child(values).h
}

// child resolves (creating on miss) the labeled series for values.
func (f *family) child(values []string) *child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := joinValues(values)
	f.mu.RLock()
	ch, ok := f.children[key]
	f.mu.RUnlock()
	if ok {
		return ch
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if ch, ok = f.children[key]; ok {
		return ch
	}
	ch = &child{values: append([]string(nil), values...)}
	switch f.typ {
	case typeCounter:
		ch.c = &Counter{}
	case typeGauge:
		ch.g = &Gauge{}
	case typeHistogram:
		ch.h = &Histogram{
			upper:     f.buckets,
			counts:    make([]atomic.Int64, len(f.buckets)+1),
			exemplars: make([]atomic.Pointer[Exemplar], len(f.buckets)+1),
		}
	}
	f.children[key] = ch
	return ch
}

// joinValues builds the child map key. 0x1f (unit separator) cannot
// collide with printable label values.
func joinValues(values []string) string {
	if len(values) == 1 {
		return values[0]
	}
	n := 0
	for _, v := range values {
		n += len(v) + 1
	}
	b := make([]byte, 0, n)
	for i, v := range values {
		if i > 0 {
			b = append(b, 0x1f)
		}
		b = append(b, v...)
	}
	return string(b)
}

// sortedFamilies snapshots the registered families in name order.
func (r *Registry) sortedFamilies() []*family {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}
