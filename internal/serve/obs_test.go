package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"exaclim/internal/obs"
)

// syncBuffer is a concurrency-safe request-log sink for tests.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.b.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.b.String()
}

// metricFamilies scrapes /metrics of srv and parses the exposition.
func metricFamilies(t *testing.T, srv *httptest.Server) map[string]*obs.ParsedFamily {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.TextContentType {
		t.Fatalf("/metrics content type %q, want %q", ct, obs.TextContentType)
	}
	fams, err := obs.ParseText(resp.Body)
	if err != nil {
		t.Fatalf("parsing /metrics: %v", err)
	}
	return fams
}

// TestMetricsEndpoint drives real traffic through the handler and pins
// the exposed families: request counters with endpoint and status-code
// labels, latency histograms with sound buckets, cache and archive
// counters that agree with Stats(), and the runtime collector.
func TestMetricsEndpoint(t *testing.T) {
	s, _ := testServer(t)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	get := func(path string) int {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/v1/field?member=0&scenario=0&t=3"); code != 200 {
		t.Fatalf("field request status %d", code)
	}
	get("/v1/field?member=0&scenario=0&t=3") // cache hit
	if code := get("/v1/field?member=999&scenario=0&t=0"); code != 400 {
		t.Fatalf("bad field request status %d, want 400", code)
	}
	if code := get("/v1/point?member=0&scenario=0&lat=12&lon=34&t0=0&t1=4"); code != 200 {
		t.Fatalf("point request status %d", code)
	}

	fams := metricFamilies(t, srv)
	// Every family the distributed-serving dashboards will stand on.
	for name, typ := range map[string]string{
		"exaclim_http_requests_total":           "counter",
		"exaclim_http_request_duration_seconds": "histogram",
		"exaclim_http_in_flight_requests":       "gauge",
		"exaclim_requests_total":                "counter",
		"exaclim_rejected_total":                "counter",
		"exaclim_field_loads_total":             "counter",
		"exaclim_live_loads_total":              "counter",
		"exaclim_cache_hits_total":              "counter",
		"exaclim_cache_misses_total":            "counter",
		"exaclim_cache_coalesced_total":         "counter",
		"exaclim_cache_evictions_total":         "counter",
		"exaclim_cache_bytes":                   "gauge",
		"exaclim_cache_entries":                 "gauge",
		"exaclim_archive_step_decodes_total":    "counter",
		"exaclim_archive_read_bytes_total":      "counter",
		"exaclim_archive_chunk_hits_total":      "counter",
		"exaclim_archive_chunk_misses_total":    "counter",
		"exaclim_archive_chunk_amortized_total": "counter",
		"exaclim_goroutines":                    "gauge",
		"exaclim_heap_alloc_bytes":              "gauge",
		"exaclim_gc_cycles_total":               "counter",
	} {
		f := fams[name]
		if f == nil {
			t.Errorf("missing metric family %s", name)
			continue
		}
		if f.Type != typ {
			t.Errorf("%s type = %q, want %q", name, f.Type, typ)
		}
	}
	if err := obs.CheckHistogram(fams["exaclim_http_request_duration_seconds"]); err != nil {
		t.Error(err)
	}

	// Per-endpoint, per-code counters: 200s and the 400 land separately.
	counts := map[[2]string]float64{}
	for _, smp := range fams["exaclim_http_requests_total"].Samples {
		counts[[2]string{smp.Labels["path"], smp.Labels["code"]}] = smp.Value
	}
	if got := counts[[2]string{"/v1/field", "200"}]; got != 2 {
		t.Errorf(`requests{/v1/field,200} = %g, want 2`, got)
	}
	if got := counts[[2]string{"/v1/field", "400"}]; got != 1 {
		t.Errorf(`requests{/v1/field,400} = %g, want 1`, got)
	}
	if got := counts[[2]string{"/v1/point", "200"}]; got != 1 {
		t.Errorf(`requests{/v1/point,200} = %g, want 1`, got)
	}

	// The reader's archive counts surface in Stats() too, and the
	// exposition agrees with the snapshot.
	st := s.Stats()
	if st.Archive.StepDecodes == 0 || st.Archive.ReadBytes == 0 {
		t.Errorf("Stats().Archive not populated: %+v", st.Archive)
	}
	var expDecodes float64
	for _, smp := range fams["exaclim_archive_step_decodes_total"].Samples {
		expDecodes = smp.Value
	}
	if expDecodes != float64(st.Archive.StepDecodes) {
		t.Errorf("exposed step decodes %g != Stats %d", expDecodes, st.Archive.StepDecodes)
	}

	// Cache bridge: one miss and one hit from the duplicate field fetch.
	if st.Cache.Hits < 1 || st.Cache.Misses < 1 {
		t.Errorf("cache stats not populated: %+v", st.Cache)
	}
}

// archiveDecodes scrapes exaclim_archive_step_decodes_total of srv.
func archiveDecodes(t *testing.T, srv *httptest.Server) float64 {
	t.Helper()
	f := metricFamilies(t, srv)["exaclim_archive_step_decodes_total"]
	if f == nil || len(f.Samples) != 1 {
		t.Fatalf("exaclim_archive_step_decodes_total: %+v", f)
	}
	return f.Samples[0].Value
}

// TestArchiveCountsSurviveSecondServer pins Stats().Archive and the
// exaclim_archive_* families as the reader's totals: a second server
// built over the same reader leaves the first one's counts advancing
// with the reads served through it.
func TestArchiveCountsSurviveSecondServer(t *testing.T) {
	first, r := testServer(t)
	if _, err := New(r, nil, Config{CacheBytes: fixCacheCap}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(first.Handler())
	defer srv.Close()
	st0, exp0 := first.Stats().Archive, archiveDecodes(t, srv)
	if _, err := first.PointSeries(context.Background(), 0, 0, 12, 34, 0, 9); err != nil {
		t.Fatal(err)
	}
	st1, exp1 := first.Stats().Archive, archiveDecodes(t, srv)
	if d := st1.StepDecodes - st0.StepDecodes; d != 9 {
		t.Errorf("Stats().Archive.StepDecodes advanced by %d, want 9", d)
	}
	if d := exp1 - exp0; d != 9 {
		t.Errorf("exaclim_archive_step_decodes_total advanced by %g, want 9", d)
	}
	if st1 != r.Counts() {
		t.Errorf("Stats().Archive = %+v, want the reader's counts %+v", st1, r.Counts())
	}
}

// TestInfoArchiveStatsKeys pins the JSON keys of /v1/info's
// stats.Archive object, which clients decode by name.
func TestInfoArchiveStatsKeys(t *testing.T) {
	s, _ := testServer(t)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	var info map[string]any
	httpGetJSON(t, srv.URL+"/v1/info", &info)
	stats, _ := info["stats"].(map[string]any)
	arch, ok := stats["Archive"].(map[string]any)
	if !ok {
		t.Fatalf("/v1/info stats.Archive missing or not an object: %v", stats)
	}
	want := []string{"StepDecodes", "ReadBytes", "ChunkHits", "ChunkMisses", "ChunkAmortized"}
	for _, k := range want {
		if _, ok := arch[k].(float64); !ok {
			t.Errorf("stats.Archive[%q] = %v, want a number", k, arch[k])
		}
	}
	if len(arch) != len(want) {
		t.Errorf("stats.Archive has keys %v, want exactly %v", arch, want)
	}
}

// TestRequestIDRoundTrip asserts the tracing contract: a
// server-assigned X-Request-ID on plain requests, inbound IDs honored
// verbatim, and the structured request log carrying ID, status, and
// cache outcome.
func TestRequestIDRoundTrip(t *testing.T) {
	logBuf := &syncBuffer{}
	s, _ := testServer(t)
	s.cfg.RequestLog = logBuf
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// Server-assigned ID.
	resp, err := srv.Client().Get(srv.URL + "/v1/field?member=0&scenario=0&t=0")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	assigned := resp.Header.Get(RequestIDHeader)
	if assigned == "" {
		t.Fatal("no X-Request-ID assigned")
	}

	// Inbound ID honored and echoed.
	req, err := http.NewRequest("GET", srv.URL+"/v1/field?member=0&scenario=0&t=0", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(RequestIDHeader, "gateway-abc-123")
	resp, err = srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get(RequestIDHeader); got != "gateway-abc-123" {
		t.Fatalf("inbound request ID not honored: got %q", got)
	}

	// The log has one JSON line per request with the right IDs and
	// cache outcomes (first request missed, second hit).
	lines := strings.Split(strings.TrimSpace(logBuf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("request log has %d lines, want 2:\n%s", len(lines), logBuf.String())
	}
	var first, second requestLogLine
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("log line 1: %v", err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &second); err != nil {
		t.Fatalf("log line 2: %v", err)
	}
	if first.ID != assigned {
		t.Errorf("log line 1 id = %q, want %q", first.ID, assigned)
	}
	if second.ID != "gateway-abc-123" {
		t.Errorf("log line 2 id = %q, want gateway-abc-123", second.ID)
	}
	for i, line := range []requestLogLine{first, second} {
		if line.Method != "GET" || line.Path != "/v1/field" || line.Status != 200 {
			t.Errorf("log line %d = %+v, want GET /v1/field 200", i+1, line)
		}
		if line.Bytes == 0 {
			t.Errorf("log line %d has zero bytes", i+1)
		}
		if line.Time == "" {
			t.Errorf("log line %d has no timestamp", i+1)
		}
	}
	if first.Cache != "miss" {
		t.Errorf("first request cache outcome %q, want miss", first.Cache)
	}
	if second.Cache != "hit" {
		t.Errorf("second request cache outcome %q, want hit", second.Cache)
	}
}

// TestReadyz pins the readiness split: /readyz answers 200 on an idle
// server and 503 at the in-flight cap, while /healthz stays 200
// throughout (alive but not ready).
func TestReadyz(t *testing.T) {
	s, _ := testServer(t)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	check := func(path string, want int) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("%s status %d, want %d", path, resp.StatusCode, want)
		}
	}
	check("/healthz", 200)
	check("/readyz", 200)

	// Saturate the in-flight limiter and re-probe: alive, not ready.
	s.cfg.MaxInFlight = 2
	s.inFlight = make(chan struct{}, 2)
	s.inFlight <- struct{}{}
	s.inFlight <- struct{}{}
	check("/healthz", 200)
	check("/readyz", 503)
	<-s.inFlight
	check("/readyz", 200)
}

// TestPprofGate asserts pprof is absent by default and mounted behind
// the flag.
func TestPprofGate(t *testing.T) {
	s, _ := testServer(t)
	srv := httptest.NewServer(s.Handler())
	resp, err := srv.Client().Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	// Routed to the guarded mux, which has no such endpoint.
	if resp.StatusCode == http.StatusOK {
		t.Error("pprof reachable without EnablePprof")
	}
	srv.Close()

	admin, err := New(s.r, nil, Config{CacheBytes: fixCacheCap, EnablePprof: true})
	if err != nil {
		t.Fatal(err)
	}
	srv = httptest.NewServer(admin.Handler())
	defer srv.Close()
	resp, err = srv.Client().Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof index with EnablePprof: status %d", resp.StatusCode)
	}
}
