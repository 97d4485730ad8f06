package serve

// Tests for the raw-speed serving paths: the float32 end-to-end field
// pipeline, the batched multi-point endpoint, gzip response round-trips,
// and the allocation discipline of a kept field body's hit path.

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"exaclim/internal/archive"
	"exaclim/internal/sht"
	"exaclim/internal/sphere"
	"exaclim/internal/tile"
)

// TestPointsSeriesMatchesPointSeries checks the batched multi-point path
// against P independent PointSeries calls at the 1e-10 acceptance bound
// it has carried since the batch evaluator folded coefficients in its own
// association order. Every location is now one weight row, so the two
// agree exactly: TestPointsRowsBitIdenticalToPoint pins that.
func TestPointsSeriesMatchesPointSeries(t *testing.T) {
	s, _ := testServer(t)
	lats := []float64{0, 30, 30, -72.5, 89.9, -89.9, 45}
	lons := []float64{0, 100, 250.25, 359, 10, 180, 100}
	const t0, t1 = 2, 20
	series, err := s.PointsSeries(context.Background(), 1, 1, lats, lons, t0, t1)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != len(lats) {
		t.Fatalf("got %d series, want %d", len(series), len(lats))
	}
	for p := range lats {
		want, err := s.PointSeries(context.Background(), 1, 1, lats[p], lons[p], t0, t1)
		if err != nil {
			t.Fatal(err)
		}
		if len(series[p]) != t1-t0 {
			t.Fatalf("series %d has %d steps, want %d", p, len(series[p]), t1-t0)
		}
		for i := range want {
			if diff := math.Abs(series[p][i] - want[i]); diff > 1e-10*(1+math.Abs(want[i])) {
				t.Fatalf("point %d t=%d: batched %g vs per-point %g (diff %g)",
					p, t0+i, series[p][i], want[i], diff)
			}
		}
	}
	if st := s.Stats(); st.FieldLoads != 0 {
		t.Fatalf("multi-point query ran %d full-grid loads; the batch path must never materialize a grid", st.FieldLoads)
	}

	// Validation surface.
	bad := [][2][]float64{
		{{1, 2}, {3}},    // length mismatch
		{{}, {}},         // empty
		{nil, {1, 2, 3}}, // nil lats
	}
	for i, c := range bad {
		if _, err := s.PointsSeries(context.Background(), 0, 0, c[0], c[1], 0, 1); err == nil {
			t.Errorf("case %d: expected a validation error", i)
		}
	}
	big := make([]float64, maxBatchPoints+1)
	if _, err := s.PointsSeries(context.Background(), 0, 0, big, big, 0, 1); err == nil {
		t.Error("expected an error beyond the point limit")
	}
}

// TestPointsSeriesLive checks the live-scenario batch path against the
// single-point bilinear sampler, which it must match exactly (both
// sample the same cached emulated fields).
func TestPointsSeriesLive(t *testing.T) {
	model := liveModel(t)
	r := buildArchive(t, model.Grid, fixL)
	s, err := New(r, model, Config{
		CacheBytes: fixCacheCap, LiveScenarios: 1, LiveSteps: 12, BaseSeed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	liveScen := r.Header().Scenarios
	lats := []float64{-40, 0, 61.7}
	lons := []float64{12, 200, 340}
	series, err := s.PointsSeries(context.Background(), 0, liveScen, lats, lons, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	for p := range lats {
		want, err := s.PointSeries(context.Background(), 0, liveScen, lats[p], lons[p], 0, 10)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if series[p][i] != want[i] {
				t.Fatalf("live point %d t=%d: %g != %g", p, i, series[p][i], want[i])
			}
		}
	}
}

// serveField sends one /v1/field request through h and returns the body;
// f32 selects the raw float32 format.
func serveField(t *testing.T, h http.Handler, member, scenario, step int, f32 bool) []byte {
	t.Helper()
	url := fmt.Sprintf("/v1/field?member=%d&scenario=%d&t=%d", member, scenario, step)
	if f32 {
		url += "&format=f32"
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("%s -> %d: %s", url, rec.Code, rec.Body.Bytes())
	}
	return rec.Body.Bytes()
}

// checkNarrowed requires an f32 body to be want narrowed value by value,
// bit for bit.
func checkNarrowed(t *testing.T, body []byte, want []float64) {
	t.Helper()
	if len(body) != 4*len(want) {
		t.Fatalf("f32 body %d bytes, want %d", len(body), 4*len(want))
	}
	for p := range want {
		if got := binary.LittleEndian.Uint32(body[4*p:]); got != math.Float32bits(float32(want[p])) {
			t.Fatalf("pixel %d: f32 %g != float32(%g)", p, math.Float32frombits(got), want[p])
		}
	}
}

// TestFieldF32Path pins the f32 format against the one float64 field:
// the body is float32(Field) bit for bit, read from the same cache entry,
// so the JSON read and the repeated f32 request are both hits and no
// second cache ever fills.
func TestFieldF32Path(t *testing.T) {
	s, _ := testServer(t)
	h := s.Handler()
	first := serveField(t, h, 2, 1, 11, true)
	want, err := s.Field(context.Background(), 2, 1, 11)
	if err != nil {
		t.Fatal(err)
	}
	checkNarrowed(t, first, want)
	checkNarrowed(t, serveField(t, h, 2, 1, 11, true), want)
	st := s.Stats()
	if st.Cache.Misses != 1 || st.Cache.Hits != 2 || st.FieldLoads != 1 {
		t.Errorf("cache stats %+v with %d loads, want 1 miss + 2 hits and 1 load", st.Cache, st.FieldLoads)
	}
	if st.Cache.Bytes != int64(8*len(want)+4*len(want)) {
		t.Errorf("cache holds %d bytes, want %d: the grid and its kept f32 body", st.Cache.Bytes, 8*len(want)+4*len(want))
	}
	if st.CacheF32 != (CacheStats{}) {
		t.Errorf("CacheF32 %+v, want zero", st.CacheF32)
	}
}

// TestFieldFormatsShareOneLoad pins the one cache behind both formats:
// for an archived and for a live field, an f32 request followed by a
// JSON request loads the field once, and the f32 body is float32 of the
// JSON data bit for bit.
func TestFieldFormatsShareOneLoad(t *testing.T) {
	model := liveModel(t)
	r := buildArchive(t, model.Grid, fixL)
	liveScen := r.Header().Scenarios
	for _, c := range []struct {
		name     string
		scenario int
		loads    func(Stats) int64
	}{
		{"archived", 1, func(st Stats) int64 { return st.FieldLoads }},
		{"live", liveScen, func(st Stats) int64 { return st.LiveLoads }},
	} {
		s, err := New(r, model, Config{CacheBytes: fixCacheCap, LiveScenarios: 1, LiveSteps: 8, BaseSeed: 3})
		if err != nil {
			t.Fatal(err)
		}
		h := s.Handler()
		body := serveField(t, h, 1, c.scenario, 5, true)
		var fr FieldResponse
		if err := json.Unmarshal(serveField(t, h, 1, c.scenario, 5, false), &fr); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if n := c.loads(s.Stats()); n != 1 {
			t.Errorf("%s field loaded %d times for two formats, want 1", c.name, n)
		}
		checkNarrowed(t, body, fr.Data)
	}
}

// TestHTTPPointsEndpoint round-trips /v1/points and checks each series
// against the single-point endpoint.
func TestHTTPPointsEndpoint(t *testing.T) {
	s, _ := testServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func(path string, out any) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			body, _ := io.ReadAll(resp.Body)
			t.Fatalf("%s -> %d: %s", path, resp.StatusCode, body)
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
	}

	var pr PointsResponse
	get("/v1/points?member=1&scenario=0&lat=10,-45.5&lon=30,300&t0=1&t1=9", &pr)
	if pr.Member != 1 || pr.T0 != 1 || len(pr.Series) != 2 {
		t.Fatalf("points response header %+v with %d series", pr, len(pr.Series))
	}
	coords := [][2]string{{"10", "30"}, {"-45.5", "300"}}
	for p, c := range coords {
		var sr SeriesResponse
		get("/v1/point?member=1&scenario=0&lat="+c[0]+"&lon="+c[1]+"&t0=1&t1=9", &sr)
		if len(sr.Values) != len(pr.Series[p]) {
			t.Fatalf("point %d: %d steps vs %d", p, len(sr.Values), len(pr.Series[p]))
		}
		for i := range sr.Values {
			if diff := math.Abs(pr.Series[p][i] - sr.Values[i]); diff > 1e-10*(1+math.Abs(sr.Values[i])) {
				t.Fatalf("point %d t=%d: batched %g vs single %g", p, i, pr.Series[p][i], sr.Values[i])
			}
		}
	}

	for _, path := range []string{
		"/v1/points?lat=1,2&lon=3",   // length mismatch
		"/v1/points?lat=a,b&lon=1,2", // unparsable
		"/v1/points?lat=1,2",         // missing lon
	} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s -> %d, want 400", path, resp.StatusCode)
		}
	}
}

// TestPointsRejectsOversizedListBeforeParsing sends /v1/points a
// 100 000-location request: it must answer 400, and the handler must
// allocate less than one parsed list would (8 B per location), so the
// limit is enforced before either list is split or parsed.
func TestPointsRejectsOversizedListBeforeParsing(t *testing.T) {
	s, _ := testServer(t)
	h := s.Handler()
	const n = 100_000
	list := strings.Repeat("1,", n-1) + "1"
	req := httptest.NewRequest("GET", "/v1/points?lat="+list+"&lon="+list, nil)
	rec := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h.ServeHTTP(rec, req)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("%d-location request -> %d, want 400", n, rec.Code)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 8*n {
		t.Fatalf("refusing %d locations allocated %d B, want < %d", n, got, 8*n)
	}
}

// TestGzipRoundTrip requests each compressible endpoint twice over a
// real listener — identity and gzip — and checks the decompressed gzip
// body is byte-identical to the identity body. The transport disables
// its own transparent gzip so the Accept-Encoding header and the
// decompression are fully under test control.
func TestGzipRoundTrip(t *testing.T) {
	s, _ := testServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := &http.Client{Transport: &http.Transport{DisableCompression: true}}

	fetch := func(path string, gz bool) ([]byte, *http.Response) {
		t.Helper()
		req, err := http.NewRequest("GET", ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if gz {
			req.Header.Set("Accept-Encoding", "gzip")
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s -> %d", path, resp.StatusCode)
		}
		var body io.Reader = resp.Body
		if gz {
			if ce := resp.Header.Get("Content-Encoding"); ce != "gzip" {
				t.Fatalf("%s: Content-Encoding %q, want gzip", path, ce)
			}
			zr, err := gzip.NewReader(resp.Body)
			if err != nil {
				t.Fatal(err)
			}
			defer zr.Close()
			body = zr
		} else if ce := resp.Header.Get("Content-Encoding"); ce != "" {
			t.Fatalf("%s: unexpected Content-Encoding %q on identity request", path, ce)
		}
		raw, err := io.ReadAll(body)
		if err != nil {
			t.Fatal(err)
		}
		return raw, resp
	}

	for _, path := range []string{
		"/v1/field?member=0&scenario=1&t=7",
		"/v1/field?member=0&scenario=1&t=7&format=f32",
		"/v1/points?lat=10,20&lon=30,40&t1=5",
		"/v1/info",
	} {
		// Repeat the gzip request so the second run exercises a pooled,
		// Reset gzip.Writer rather than a fresh one.
		plain, _ := fetch(path, false)
		for i := 0; i < 2; i++ {
			zipped, _ := fetch(path, true)
			if string(zipped) != string(plain) {
				t.Fatalf("%s (run %d): gzip body differs from identity body (%d vs %d bytes)",
					path, i, len(zipped), len(plain))
			}
		}
	}

	// The f32 binary body compresses and keeps its dimension headers.
	_, resp := fetch("/v1/field?member=0&scenario=1&t=7&format=f32", true)
	if resp.Header.Get("X-Exaclim-NLat") == "" || resp.Header.Get("X-Exaclim-NLon") == "" {
		t.Error("gzip f32 response lost its dimension headers")
	}
}

// discardRW is a header-only ResponseWriter for allocation measurement.
type discardRW struct{ h http.Header }

func (d *discardRW) Header() http.Header {
	if d.h == nil {
		d.h = http.Header{}
	}
	return d.h
}
func (d *discardRW) Write(b []byte) (int, error) { return len(b), nil }
func (d *discardRW) WriteHeader(int)             {}

// TestFieldHitNoBodyAlloc pins the hit path of kept bodies: once a
// resident L = 64 field has kept its four bodies (33 KiB to 150 KiB
// each), serving any form again through the handler encodes nothing and
// copies no body — under 4 KiB a request, the request parsing and
// header-map noise. A miss allocates its body on purpose: the body is
// kept.
func TestFieldHitNoBodyAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector bookkeeping inflates the allocation count")
	}
	const L = 64
	var buf bytes.Buffer
	w, err := archive.NewWriter(&buf, archive.Header{
		Grid: sphere.GridForBandLimit(L), L: L, Members: 1, Scenarios: 1, Steps: 1, ChunkSteps: 1,
		Bands: []archive.Band{{Lo: 0, Hi: L, Prec: tile.FP64}},
	})
	if err != nil {
		t.Fatal(err)
	}
	packed := make([]float64, sht.PackDim(L))
	for i := range packed {
		packed[i] = 1 / float64(1+sht.PackDegree(i)+i%7)
	}
	if err := w.AddPacked(0, 0, 0, packed); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := archive.NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(r, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	for f := bodyJSON; f < bodyForms; f++ {
		body := serveForm(t, h, 0, 0, 0, f) // fill the kept body
		query, ae := formQuery(f)
		req := httptest.NewRequest("GET", "/v1/field?member=0&scenario=0&t=0"+query, nil)
		if ae != "" {
			req.Header.Set("Accept-Encoding", ae)
		}
		rw := &discardRW{}
		h.ServeHTTP(rw, req) // warm the header map and the pools
		const runs = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			h.ServeHTTP(rw, req)
		}
		runtime.ReadMemStats(&after)
		if n := (after.TotalAlloc - before.TotalAlloc) / runs; n >= 4096 {
			t.Errorf("form %d: a hit allocates %d B/op for a %d-byte body; the body is being encoded or copied again",
				f, n, len(body))
		}
	}
	if st := s.Stats(); st.FieldLoads != 1 {
		t.Fatalf("FieldLoads = %d, want 1", st.FieldLoads)
	}
}
