package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sync"
	"testing"
	"time"

	"exaclim/internal/obs"
	"exaclim/internal/obs/trace"
	"exaclim/internal/sphere"
)

// tracedServer builds a server over the standard test archive with the
// given config (tracing knobs set by the caller).
func tracedServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	grid := sphere.GridForBandLimit(fixL)
	r := buildArchive(t, grid, fixL)
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = fixCacheCap
	}
	s, err := New(r, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// fetchTraces scrapes /debug/traces and decodes the export document.
func fetchTraces(t *testing.T, srv *httptest.Server) trace.StoreJSON {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/traces status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("/debug/traces content type %q", ct)
	}
	var doc trace.StoreJSON
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("decoding /debug/traces: %v", err)
	}
	return doc
}

// TestTraceparentEchoAndSpanTree drives a sampled field request carrying
// a synthetic W3C traceparent over real HTTP and pins the whole
// round-trip: the response echoes our trace identity, and /debug/traces
// shows the span tree — root hanging under the caller's remote span,
// cache under root, decode and synthesis under cache, encode under root.
func TestTraceparentEchoAndSpanTree(t *testing.T) {
	s := tracedServer(t, Config{TraceSampleRate: 1, EnableTraceDebug: true})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	const inbound = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	req, err := http.NewRequest("GET", srv.URL+"/v1/field?member=1&scenario=0&t=7", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(trace.Header, inbound)
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("field status %d", resp.StatusCode)
	}
	echo := resp.Header.Get(trace.Header)
	id, parent, flags, err := trace.ParseTraceparent(echo)
	if err != nil {
		t.Fatalf("echoed traceparent %q does not parse: %v", echo, err)
	}
	if id.String() != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("echo changed the trace id: %s", echo)
	}
	if parent.String() == "00f067aa0ba902b7" {
		t.Fatal("echo must carry our root span id, not reflect the inbound parent")
	}
	if flags&trace.FlagSampled == 0 {
		t.Fatalf("sampled request echoed flags %02x without the sampled bit", flags)
	}

	doc := fetchTraces(t, srv)
	if doc.Stored != 1 || len(doc.Traces) != 1 {
		t.Fatalf("stored %d traces, want 1", doc.Stored)
	}
	tr := doc.Traces[0]
	if tr.TraceID != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Fatalf("trace id %s", tr.TraceID)
	}
	if tr.RemoteParent != "00f067aa0ba902b7" {
		t.Fatalf("remote parent %q, want the inbound parent-id", tr.RemoteParent)
	}
	if !tr.Sampled || tr.Slow {
		t.Fatalf("sampled=%v slow=%v, want sampled, not slow", tr.Sampled, tr.Slow)
	}
	byName := map[string]trace.SpanJSON{}
	for _, sp := range tr.Spans {
		if sp.InFlight {
			t.Fatalf("span %s still in flight after the request completed", sp.Name)
		}
		if sp.DurationMS < 0 || sp.StartMS < 0 {
			t.Fatalf("span %s has negative timing: %+v", sp.Name, sp)
		}
		byName[sp.Name] = sp
	}
	root, ok := byName["GET /v1/field"]
	if !ok {
		t.Fatalf("no root span; spans: %v", names(tr.Spans))
	}
	if root.SpanID != parent.String() {
		t.Fatalf("root span %s does not match the echoed parent-id %s", root.SpanID, parent)
	}
	if root.ParentID != tr.RemoteParent {
		t.Fatalf("root parent %q, want the remote parent", root.ParentID)
	}
	for child, wantParent := range map[string]string{
		"cache":     root.SpanID,
		"decode":    byName["cache"].SpanID,
		"synthesis": byName["cache"].SpanID,
		"encode":    root.SpanID,
	} {
		sp, ok := byName[child]
		if !ok {
			t.Fatalf("missing %s span; spans: %v", child, names(tr.Spans))
		}
		if sp.ParentID != wantParent {
			t.Fatalf("%s span parent %s, want %s", child, sp.ParentID, wantParent)
		}
	}
	if v, ok := byName["synthesis"].Attrs["block"]; !ok || v == nil {
		t.Fatalf("synthesis span lacks the block attr: %+v", byName["synthesis"])
	}
}

// TestLiveF32FieldHasOneCacheSpan pins the shape of a live
// `format=f32` field request's trace: the float32 response narrows the
// float64-cached field, so the tree holds one cache span (with the
// emulation under it on a miss) — not an f32 cache span wrapping a second,
// nested f64 cache span, which is what the retired loader recorded.
func TestLiveF32FieldHasOneCacheSpan(t *testing.T) {
	model := liveModel(t)
	r := buildArchive(t, model.Grid, fixL)
	s, err := New(r, model, Config{
		CacheBytes: fixCacheCap, LiveScenarios: 1, LiveSteps: 8, BaseSeed: 3,
		TraceSampleRate: 1, EnableTraceDebug: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	for _, wantEmulate := range []int{1, 0} { // a miss, then a hit
		url := fmt.Sprintf("%s/v1/field?member=0&scenario=%d&t=5&format=f32", srv.URL, r.Header().Scenarios)
		resp, err := srv.Client().Get(url)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("live f32 field status %d", resp.StatusCode)
		}
		doc := fetchTraces(t, srv)
		count := map[string]int{}
		for _, sp := range doc.Traces[0].Spans { // newest first
			count[sp.Name]++
		}
		if count["cache"] != 1 || count["emulate"] != wantEmulate || count["encode"] != 1 {
			t.Fatalf("live f32 field spans %v: want one cache span, %d emulate, one encode", names(doc.Traces[0].Spans), wantEmulate)
		}
	}
	if st := s.Stats(); st.CacheF32.Hits+st.CacheF32.Misses != 0 || st.Cache.Hits != 1 || st.Cache.Misses != 1 {
		t.Fatalf("live f32 fields must ride the float64 cache alone: f32 %+v, f64 %+v", st.CacheF32, st.Cache)
	}
}

func names(spans []trace.SpanJSON) []string {
	out := make([]string, len(spans))
	for i, sp := range spans {
		out[i] = sp.Name
	}
	return out
}

// TestSlowTraceCapture pins the always-on net: with sampling off and a
// nanosecond threshold, every request is captured as slow and logged
// with its trace id and per-stage breakdown.
func TestSlowTraceCapture(t *testing.T) {
	log := &syncBuffer{}
	s := tracedServer(t, Config{
		SlowTraceThreshold: time.Nanosecond,
		EnableTraceDebug:   true,
		RequestLog:         log,
	})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/v1/field?member=0&scenario=1&t=5")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	echo := resp.Header.Get(trace.Header)
	_, _, flags, err := trace.ParseTraceparent(echo)
	if err != nil {
		t.Fatalf("slow-armed request must still echo a traceparent, got %q: %v", echo, err)
	}
	if flags&trace.FlagSampled != 0 {
		t.Fatal("unsampled slow capture must not claim the sampled flag")
	}

	doc := fetchTraces(t, srv)
	if doc.Stored != 1 {
		t.Fatalf("stored %d traces, want 1", doc.Stored)
	}
	tr := doc.Traces[0]
	if !tr.Slow || tr.Sampled {
		t.Fatalf("slow=%v sampled=%v, want slow and unsampled", tr.Slow, tr.Sampled)
	}

	var line struct {
		TraceID string             `json:"trace_id"`
		Slow    bool               `json:"slow"`
		Stages  map[string]float64 `json:"stage_ms"`
	}
	if err := json.Unmarshal([]byte(log.String()), &line); err != nil {
		t.Fatalf("request log line %q: %v", log.String(), err)
	}
	if line.TraceID != tr.TraceID {
		t.Fatalf("log trace_id %q != stored trace %q", line.TraceID, tr.TraceID)
	}
	if !line.Slow {
		t.Fatal("log line must mark the request slow")
	}
	for _, stage := range []string{"cache", "decode", "synthesis", "encode"} {
		if line.Stages[stage] <= 0 {
			t.Fatalf("stage_ms[%s] = %g, want > 0 (stages: %v)", stage, line.Stages[stage], line.Stages)
		}
	}
}

// TestSlowTraceThresholdFiltersFast: a generous threshold keeps fast
// requests out of the store entirely, sampling being off.
func TestSlowTraceThresholdFiltersFast(t *testing.T) {
	s := tracedServer(t, Config{SlowTraceThreshold: time.Hour, EnableTraceDebug: true})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/v1/field?member=0&scenario=0&t=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if doc := fetchTraces(t, srv); doc.Stored != 0 {
		t.Fatalf("fast unsampled request stored %d traces, want 0", doc.Stored)
	}
}

// TestNoTracerNoSurface: with every tracing knob off the server has no
// tracer, echoes no traceparent, and does not mount /debug/traces.
func TestNoTracerNoSurface(t *testing.T) {
	s, _ := testServer(t)
	if s.tracer != nil {
		t.Fatal("tracer built with no tracing knob set")
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/v1/field?member=0&scenario=0&t=0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h := resp.Header.Get(trace.Header); h != "" {
		t.Fatalf("untraced server echoed traceparent %q", h)
	}
	resp, err = srv.Client().Get(srv.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("/debug/traces mounted without EnableTraceDebug")
	}
}

// TestTracingUnsampledZeroAlloc pins the acceptance bar on the
// unsampled fast path: an instrumented request whose span tree is not
// being captured must drive the whole stage machinery — begin/end,
// context threading, attrs, the aggregated loop recorder — without a
// single allocation.
func TestTracingUnsampledZeroAlloc(t *testing.T) {
	info := &requestInfo{} // span == nil: instrumented but not captured
	ctx := context.WithValue(context.Background(), requestInfoKey{}, info)
	allocs := testing.AllocsPerRun(200, func() {
		ct := beginStage(ctx, stageCache)
		inner := ct.ctx(ctx)
		dt := beginStage(inner, stageDecode)
		dt.attr("coeffs", 144)
		dt.end()
		st := beginStage(inner, stageSynthesis)
		st.attrStr("mode", "f32")
		st.end()
		ct.end()

		clk := newLoopClock(ctx)
		var d time.Duration
		clk.tick()
		clk.tock(&d)
		esp := recordStage(ctx, stageEval, time.Now(), d+1, 32)
		esp.SetAttr("points", 64)
	})
	if allocs != 0 {
		t.Fatalf("unsampled stage path allocates %.1f times per request, want 0", allocs)
	}
	// Sanity: the stage time still accumulated for the histograms.
	if info.stages[stageCache].Load() <= 0 || info.stages[stageEval].Load() <= 0 {
		t.Fatal("stage accumulators did not advance")
	}
}

// TestTracedConcurrentScrape hammers a fully traced server: concurrent
// clients across every traced endpoint while other goroutines scrape
// /debug/traces and /metrics mid-flight. Run under -race this pins the
// publish-while-active span synchronization end to end; afterwards the
// store must hold exactly one trace per request.
func TestTracedConcurrentScrape(t *testing.T) {
	s := tracedServer(t, Config{
		TraceSampleRate:    1,
		SlowTraceThreshold: time.Hour,
		EnableTraceDebug:   true,
	})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	const workers, perG = 8, 20
	paths := []string{
		"/v1/field?member=%d&scenario=0&t=%d",
		"/v1/field?member=%d&scenario=1&t=%d&format=f32",
		"/v1/point?member=%d&scenario=0&lat=40&lon=%d&t0=0&t1=6",
		"/v1/box?member=%d&scenario=1&lat0=-30&lat1=30&lon0=%d&lon1=200&t0=0&t1=4",
	}
	stop := make(chan struct{})
	var scrapers sync.WaitGroup
	for i := 0; i < 2; i++ {
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, p := range []string{"/debug/traces", "/metrics"} {
					resp, err := srv.Client().Get(srv.URL + p)
					if err != nil {
						t.Error(err)
						return
					}
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}()
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				p := fmt.Sprintf(paths[(w+i)%len(paths)], (w+i)%fixMembers, i%fixSteps)
				resp, err := srv.Client().Get(srv.URL + p)
				if err != nil {
					t.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("%s status %d", p, resp.StatusCode)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	scrapers.Wait()
	if t.Failed() {
		return
	}
	doc := fetchTraces(t, srv)
	if doc.Stored != workers*perG || doc.Dropped != 0 {
		t.Fatalf("stored %d traces (dropped %d), want %d", doc.Stored, doc.Dropped, workers*perG)
	}
	for _, tr := range doc.Traces {
		if len(tr.Spans) == 0 {
			t.Fatalf("trace %s has no spans", tr.TraceID)
		}
		for _, sp := range tr.Spans {
			if sp.InFlight {
				t.Fatalf("trace %s span %s in flight after all requests returned", tr.TraceID, sp.Name)
			}
		}
	}
}

// TestStageHistogramExemplars scrapes /metrics after traced traffic and
// pins the stage-duration family: well-formed histogram, one series per
// exercised stage, and trace-ID exemplars linking buckets to captured
// traces.
func TestStageHistogramExemplars(t *testing.T) {
	s := tracedServer(t, Config{TraceSampleRate: 1, EnableTraceDebug: true})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	for _, path := range []string{
		"/v1/field?member=0&scenario=0&t=2",
		"/v1/point?member=0&scenario=0&lat=12&lon=34&t0=0&t1=8",
	} {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s status %d", path, resp.StatusCode)
		}
	}

	fams := metricFamilies(t, srv)
	f := fams["exaclim_stage_duration_seconds"]
	if f == nil {
		t.Fatal("missing exaclim_stage_duration_seconds family")
	}
	if err := obs.CheckHistogram(f); err != nil {
		t.Fatal(err)
	}
	counted := map[string]float64{}
	for _, smp := range f.Samples {
		if smp.Name == f.Name+"_count" {
			counted[smp.Labels["stage"]] = smp.Value
		}
	}
	for _, stage := range []string{"cache", "decode", "synthesis", "encode", "eval"} {
		if counted[stage] < 1 {
			t.Fatalf("stage %q has count %g, want >= 1 (series: %v)", stage, counted[stage], counted)
		}
	}
	hexID := regexp.MustCompile(`^[0-9a-f]{32}$`)
	sawExemplar := false
	for _, smp := range f.Samples {
		if smp.Exemplar == nil {
			continue
		}
		sawExemplar = true
		if !hexID.MatchString(smp.Exemplar.Labels["trace_id"]) {
			t.Fatalf("exemplar trace_id %q is not 32 hex chars", smp.Exemplar.Labels["trace_id"])
		}
	}
	if !sawExemplar {
		t.Fatal("no stage bucket carries a trace-ID exemplar")
	}
	p50, err := obs.HistogramQuantile(f, map[string]string{"stage": "cache"}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if p50 <= 0 {
		t.Fatalf("cache p50 = %g, want > 0", p50)
	}
}
