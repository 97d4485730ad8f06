package serve

// Tests for how a /v1 request is read and answered: the one query
// reader's 400 messages, the framing every answer carries, and a fuzz
// target over any path, query and request header the handler reads.

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"exaclim/internal/sphere"
)

// TestQueryErrorMessages pins the 400 of each kind of bad parameter
// word for word, and that the first bad parameter, in the order the
// handler reads them, is the one reported.
func TestQueryErrorMessages(t *testing.T) {
	s, _ := testServer(t)
	h := s.Handler()
	for _, c := range []struct{ url, want string }{
		{"/v1/field?member=x&t=y", `serve: bad member="x": strconv.Atoi: parsing "x": invalid syntax`},
		{"/v1/field?t=1.5&format=csv", `serve: bad t="1.5": strconv.Atoi: parsing "1.5": invalid syntax`},
		{"/v1/field?format=csv", `serve: bad format="csv": want json or f32`},
		{"/v1/point?t0=a&lat=b", `serve: bad t0="a": strconv.Atoi: parsing "a": invalid syntax`},
		{"/v1/point?lon=1", `serve: missing required parameter lat`},
		{"/v1/point?lat=1&lon=east", `serve: bad lon="east": strconv.ParseFloat: parsing "east": invalid syntax`},
		{"/v1/points?lat=1,2,x&lon=q", `serve: bad lat="1,2,x": strconv.ParseFloat: parsing "x": invalid syntax`},
		{"/v1/points?lat=1,2&lon=", `serve: missing required parameter lon`},
		{"/v1/points?lat=1,2&lon=3", `serve: 2 latitudes but 1 longitudes`},
		{"/v1/box?lat0=1&lat1=2&lon1=4", `serve: missing required parameter lon0`},
		{"/v1/box?scenario=9&lat0=z", `serve: bad lat0="z": strconv.ParseFloat: parsing "z": invalid syntax`},
		{"/v1/stats?scenario=1&t=99999999999999999999", `serve: bad t="99999999999999999999": strconv.Atoi: parsing "99999999999999999999": value out of range`},
		{"/v1/stats?scenario=7", `serve: scenario 7 out of range [0,2) (2 archived + 0 live)`},
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", c.url, nil))
		if rec.Code != http.StatusBadRequest || rec.Body.String() != c.want+"\n" {
			t.Errorf("%s -> %d %q, want 400 %q", c.url, rec.Code, rec.Body.String(), c.want)
		}
	}
}

// TestQueryErrorQuotesAtMost64Bytes sends parameters far longer than a
// 400 may echo: the answer quotes at most 64 bytes of the value (and of
// the number strconv could not parse).
func TestQueryErrorQuotesAtMost64Bytes(t *testing.T) {
	s, _ := testServer(t)
	h := s.Handler()
	long := strings.Repeat("x", 100_000)
	digits := strings.Repeat("9", 100_000)
	for _, url := range []string{
		"/v1/point?lat=" + long + "&lon=1",
		"/v1/point?lat=1&lon=" + digits + "e9999",
		"/v1/points?lat=1," + long + "&lon=1,2",
		"/v1/field?member=" + digits,
		"/v1/field?format=" + long,
		"/v1/box?lat0=1&lat1=2&lon0=3&lon1=" + long,
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		body := rec.Body.String()
		if rec.Code != http.StatusBadRequest {
			t.Fatalf("%.40s... -> %d, want 400", url, rec.Code)
		}
		if strings.Contains(body, strings.Repeat("x", maxQuote+1)) || strings.Contains(body, strings.Repeat("9", maxQuote+1)) {
			t.Errorf("%.40s...: the 400 quotes more than %d bytes of the value: %.200s", url, maxQuote, body)
		}
		if len(body) > 512 {
			t.Errorf("%.40s...: %d-byte 400 body", url, len(body))
		}
	}
}

// TestV1AnswersFramed pins the framing every /v1 answer carries,
// identity and gzip alike: Content-Length equal to the body it sent,
// Vary: Accept-Encoding, and Content-Encoding exactly when gzipped.
func TestV1AnswersFramed(t *testing.T) {
	s, _ := testServer(t)
	h := s.Handler()
	for _, url := range []string{
		"/v1/info",
		"/v1/field?member=1&scenario=0&t=3",
		"/v1/field?member=1&scenario=0&t=3&format=f32",
		"/v1/point?member=2&scenario=1&lat=40&lon=15&t0=3&t1=20",
		"/v1/points?lat=10,20&lon=30,40&t1=5",
		"/v1/box?lat0=-30&lat1=30&lon0=300&lon1=20&t1=9",
		"/v1/stats?scenario=1&t=4",
	} {
		for _, ae := range []string{"", "gzip"} {
			req := httptest.NewRequest("GET", url, nil)
			req.Header.Set("Accept-Encoding", ae)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			hd := rec.Header()
			if rec.Code != http.StatusOK {
				t.Fatalf("%s -> %d: %s", url, rec.Code, rec.Body.Bytes())
			}
			if got, want := hd.Get("Content-Length"), strconv.Itoa(rec.Body.Len()); got != want {
				t.Errorf("%s (Accept-Encoding %q): Content-Length %q for a %s-byte body", url, ae, got, want)
			}
			if v := hd.Get("Vary"); v != "Accept-Encoding" {
				t.Errorf("%s (Accept-Encoding %q): Vary %q, want Accept-Encoding", url, ae, v)
			}
			if gz := hd.Get("Content-Encoding") == "gzip"; gz != (ae == "gzip") {
				t.Errorf("%s (Accept-Encoding %q): Content-Encoding %q", url, ae, hd.Get("Content-Encoding"))
			}
		}
	}
}

// FuzzQuery drives the handler of an archive-only server with any path,
// query, Accept-Encoding and Traceparent: it must never panic, never
// answer 5xx, and keep every 4xx body within 1 KiB. The seeds are the
// request shapes of the benchmark's load generator.
func FuzzQuery(f *testing.F) {
	grid := sphere.GridForBandLimit(fixL)
	s, err := New(buildArchive(f, grid, fixL), nil, Config{CacheBytes: fixCacheCap, TraceSampleRate: 0.5})
	if err != nil {
		f.Fatal(err)
	}
	h := s.Handler()
	const tp = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	for _, seed := range [][4]string{
		{"/v1/field", "member=1&scenario=0&t=3", "", ""},
		{"/v1/field", "member=2&scenario=1&t=39&format=f32", "", tp},
		{"/v1/field", "member=0&scenario=1&t=7", "gzip", ""},
		{"/v1/stats", "scenario=1&t=4", "", ""},
		{"/v1/point", "member=0&scenario=0&t0=2&t1=34&lat=12.34&lon=200.50", "", tp},
		{"/v1/points", "member=1&scenario=1&t0=0&t1=8&lat=10.00,-45.50,80.25&lon=30.00,200.00,359.99", "", ""},
		{"/v1/box", "member=2&scenario=0&t0=5&t1=21&lat0=-20.00&lat1=-10.00&lon0=100.00&lon1=110.00", "gzip;q=0", ""},
		{"/v1/info", "", "*", ""},
		{"/v1/point", "lat=" + strings.Repeat("9", 200) + "&lon=x", "", "00-zz"},
	} {
		f.Add(seed[0], seed[1], seed[2], seed[3])
	}
	f.Fuzz(func(t *testing.T, path, query, acceptEncoding, traceparent string) {
		req := httptest.NewRequest("GET", "/", nil)
		req.URL.Path = "/" + strings.TrimPrefix(path, "/")
		req.URL.RawQuery = query
		req.Header.Set("Accept-Encoding", acceptEncoding)
		req.Header.Set("Traceparent", traceparent)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code >= 500 {
			t.Fatalf("%q?%q -> %d: %s", req.URL.Path, query, rec.Code, rec.Body.Bytes())
		}
		if rec.Code >= 400 && rec.Body.Len() > 1024 {
			t.Fatalf("%q?%q -> %d with a %d-byte body", req.URL.Path, query, rec.Code, rec.Body.Len())
		}
	})
}
