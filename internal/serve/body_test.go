package serve

// Tests for the kept /v1/field response bodies: byte accounting against
// the cache budget, racing first requests, content negotiation and the
// closed set of formats.

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
)

// formQuery is the query suffix and Accept-Encoding a request for form f
// carries.
func formQuery(f bodyForm) (query, acceptEncoding string) {
	if f.identity() == bodyF32 {
		query = "&format=f32"
	}
	if f.gzipped() {
		acceptEncoding = "gzip"
	}
	return query, acceptEncoding
}

// serveForm sends one /v1/field request for form f through h and returns
// the body, after checking the status and the framing headers every
// field answer carries.
func serveForm(t testing.TB, h http.Handler, member, scenario, step int, f bodyForm) []byte {
	t.Helper()
	query, ae := formQuery(f)
	url := fmt.Sprintf("/v1/field?member=%d&scenario=%d&t=%d%s", member, scenario, step, query)
	req := httptest.NewRequest("GET", url, nil)
	if ae != "" {
		req.Header.Set("Accept-Encoding", ae)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("%s (Accept-Encoding %q) -> %d: %s", url, ae, rec.Code, rec.Body.Bytes())
	}
	hd := rec.Header()
	if got, want := hd.Get("Content-Length"), strconv.Itoa(rec.Body.Len()); got != want {
		t.Fatalf("%s: Content-Length %q for a %s-byte body", url, got, want)
	}
	if hd.Get("Vary") != "Accept-Encoding" {
		t.Fatalf("%s: Vary %q, want Accept-Encoding", url, hd.Get("Vary"))
	}
	if gz := hd.Get("Content-Encoding") == "gzip"; gz != f.gzipped() {
		t.Fatalf("%s (Accept-Encoding %q): Content-Encoding %q", url, ae, hd.Get("Content-Encoding"))
	}
	return rec.Body.Bytes()
}

// evictAll drops every resident entry through the capacity bound's own
// eviction path.
func evictAll(c *fieldCache) {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		capacity := sh.capacity
		sh.capacity = 0
		sh.fit(c)
		sh.capacity = capacity
		sh.mu.Unlock()
	}
}

// TestFieldBodiesAccounting pins the byte accounting of kept bodies: after
// one request per form the cache holds the grid at 8 bytes a value plus
// exactly the four bodies it sent, for an archived and for a live field,
// and eviction takes grid and bodies out together, back to 0. A field
// larger than its shard is served from a body that is not kept.
func TestFieldBodiesAccounting(t *testing.T) {
	model := liveModel(t)
	r := buildArchive(t, model.Grid, fixL)
	var sent [bodyForms][]byte
	for _, scenario := range []int{1, r.Header().Scenarios} {
		s, err := New(r, model, Config{CacheBytes: fixCacheCap, LiveScenarios: 1, LiveSteps: 8, BaseSeed: 3})
		if err != nil {
			t.Fatal(err)
		}
		h := s.Handler()
		want := int64(8 * model.Grid.Points())
		for f := bodyJSON; f < bodyForms; f++ {
			body := serveForm(t, h, 2, scenario, 5, f)
			if scenario == 1 {
				sent[f] = body
			}
			want += int64(len(body))
		}
		if scenario == 1 {
			if st := s.Stats(); st.Cache.Bytes != want || st.Cache.Entries != 1 {
				t.Fatalf("archived field: cache holds %d bytes in %d entries, want %d in 1", st.Cache.Bytes, st.Cache.Entries, want)
			}
		} else {
			// The live run caches the steps before t on its way, grids only.
			want += int64(5 * 8 * model.Grid.Points())
			if st := s.Stats(); st.Cache.Bytes != want || st.Cache.Entries != 6 {
				t.Fatalf("live field: cache holds %d bytes in %d entries, want %d in 6", st.Cache.Bytes, st.Cache.Entries, want)
			}
		}
		// Repeats are hits on the kept bodies: nothing more is charged.
		for f := bodyJSON; f < bodyForms; f++ {
			serveForm(t, h, 2, scenario, 5, f)
		}
		if st := s.Stats(); st.Cache.Bytes != want {
			t.Fatalf("scenario %d: repeated forms moved the cache to %d bytes, want %d", scenario, st.Cache.Bytes, want)
		}
		evictAll(s.cache)
		if st := s.Stats(); st.Cache.Bytes != 0 || st.Cache.Entries != 0 {
			t.Fatalf("scenario %d: after eviction the cache holds %d bytes in %d entries, want 0", scenario, st.Cache.Bytes, st.Cache.Entries)
		}
	}

	// One byte a shard: every field is evicted as it is inserted.
	s, err := New(r, nil, Config{CacheBytes: 16})
	if err != nil {
		t.Fatal(err)
	}
	for f := bodyJSON; f < bodyForms; f++ {
		if body := serveForm(t, s.Handler(), 2, 1, 5, f); !bytes.Equal(body, sent[f]) {
			t.Fatalf("form %d: the body of a field too large to keep differs from the kept one", f)
		}
	}
	if st := s.Stats(); st.Cache.Bytes != 0 || st.Cache.Entries != 0 || st.FieldLoads != int64(bodyForms) {
		t.Fatalf("oversized field: %d bytes in %d entries after %d loads, want 0 bytes, 0 entries and %d loads",
			st.Cache.Bytes, st.Cache.Entries, st.FieldLoads, bodyForms)
	}
}

// TestFieldBodiesRacingFirstRequests hammers one cold field with 32
// goroutines per form. Every goroutine of a form gets the same bytes,
// the field loads once, and whichever racing encodes lose, the cache
// charges each form's body once. Run under -race in CI.
func TestFieldBodiesRacingFirstRequests(t *testing.T) {
	s, _ := testServer(t)
	h := s.Handler()
	const N = 32
	var bodies [bodyForms][N][]byte
	start := make(chan struct{})
	var wg sync.WaitGroup
	for f := bodyJSON; f < bodyForms; f++ {
		for i := 0; i < N; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				bodies[f][i] = serveForm(t, h, 1, 0, 9, f)
			}()
		}
	}
	close(start)
	wg.Wait()
	want := int64(8 * s.Grid().Points())
	for f := bodyJSON; f < bodyForms; f++ {
		for i := 1; i < N; i++ {
			if !bytes.Equal(bodies[f][i], bodies[f][0]) {
				t.Fatalf("form %d: goroutine %d got a different body", f, i)
			}
		}
		want += int64(len(bodies[f][0]))
	}
	st := s.Stats()
	if st.FieldLoads != 1 {
		t.Fatalf("FieldLoads = %d for %d racing requests, want 1", st.FieldLoads, 4*N)
	}
	if st.Cache.Bytes != want {
		t.Fatalf("cache holds %d bytes, want %d: a raced body was charged twice", st.Cache.Bytes, want)
	}
}

// TestAcceptEncodingNegotiation pins how Accept-Encoding is read: gzip
// is sent only for a gzip (or x-gzip) token, or a "*", whose q-value is
// above zero, and every negotiated /v1/* answer carries
// Vary: Accept-Encoding.
func TestAcceptEncodingNegotiation(t *testing.T) {
	for _, c := range []struct {
		header string
		gzip   bool
	}{
		{"", false},
		{"gzip", true},
		{"GZIP", true},
		{"x-gzip", true},
		{"deflate, gzip;q=0.5", true},
		{"gzip;q=1.0, identity", true},
		{" gzip ; q=0.001", true},
		{"gzip;q=0", false},
		{"gzip; q=0.000", false},
		{"gzip;Q=0", false},
		{"gzip;q=abc", false},
		{"gzip;q=NaN", false},
		{"identity", false},
		{"br, deflate", false},
		{"gzipx, xgzip", false},
		{"*", true},
		{"*;q=0", false},
		{"*, gzip;q=0", false},
		{"gzip;q=0, *", false},
		{"identity;q=0, *;q=0.1", true},
	} {
		if got := acceptsGzip(c.header); got != c.gzip {
			t.Errorf("acceptsGzip(%q) = %v, want %v", c.header, got, c.gzip)
		}
	}

	s, _ := testServer(t)
	h := s.Handler()
	for _, path := range []string{
		"/v1/field?member=0&scenario=1&t=7",
		"/v1/field?member=0&scenario=1&t=7&format=f32",
		"/v1/points?lat=10,20&lon=30,40&t1=5",
		"/v1/info",
	} {
		for _, ae := range []string{"gzip;q=0", "gzip"} {
			req := httptest.NewRequest("GET", path, nil)
			req.Header.Set("Accept-Encoding", ae)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s -> %d", path, rec.Code)
			}
			if got, want := rec.Header().Get("Content-Encoding") == "gzip", ae == "gzip"; got != want {
				t.Errorf("%s with Accept-Encoding %q: Content-Encoding %q", path, ae, rec.Header().Get("Content-Encoding"))
			}
			if v := rec.Header().Get("Vary"); v != "Accept-Encoding" {
				t.Errorf("%s with Accept-Encoding %q: Vary %q, want Accept-Encoding", path, ae, v)
			}
		}
	}
}

// TestFieldFormatClosedSet pins format as a closed set: absent or json
// answers the JSON body, f32 the float32 body, and any other value 400
// without loading the field.
func TestFieldFormatClosedSet(t *testing.T) {
	s, _ := testServer(t)
	h := s.Handler()
	get := func(query string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/field?member=1&scenario=0&t=3"+query, nil))
		return rec
	}
	for _, bad := range []string{"&format=f64", "&format=JSON", "&format=f32%20", "&format=csv"} {
		if rec := get(bad); rec.Code != http.StatusBadRequest {
			t.Errorf("%s -> %d, want 400", bad, rec.Code)
		}
	}
	if n := s.Stats().FieldLoads; n != 0 {
		t.Fatalf("rejected formats ran %d field loads, want 0", n)
	}
	json := serveForm(t, h, 1, 0, 3, bodyJSON)
	for query, want := range map[string][]byte{
		"":             json,
		"&format=json": json,
		"&format=f32":  serveForm(t, h, 1, 0, 3, bodyF32),
	} {
		rec := get(query)
		if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
			t.Errorf("%q -> %d with a %d-byte body, want 200 and the %d-byte body", query, rec.Code, rec.Body.Len(), len(want))
		}
	}
	data, err := s.Field(context.Background(), 1, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	checkNarrowed(t, serveForm(t, h, 1, 0, 3, bodyF32), data)
}
