package serve

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/pprof"
	"net/url"
	"strconv"
	"strings"
	"sync"

	"exaclim/internal/sphere"
)

// HTTP API. All endpoints are GET and return JSON unless noted:
//
//	/healthz                              liveness probe ("am I up")
//	/readyz                               readiness probe ("send me traffic")
//	/metrics                              Prometheus text exposition
//	/debug/pprof/                         profiling (Config.EnablePprof only)
//	/debug/traces                         captured span trees, newest first
//	                                      (Config.EnableTraceDebug only)
//	/v1/info                              archive + server metadata, cache stats
//	/v1/field?member=&scenario=&t=        full field; &format=f32 answers raw
//	                                      little-endian float32 (row-major),
//	                                      &format=json (the default) JSON
//	/v1/point?member=&scenario=&lat=&lon=&t0=&t1=   point time series
//	/v1/points?member=&scenario=&lat=&lon=&t0=&t1=  multi-point series; lat and
//	                                      lon are comma-separated lists
//	/v1/box?member=&scenario=&lat0=&lat1=&lon0=&lon1=&t0=&t1=  box-mean series
//	/v1/stats?scenario=&t=                ensemble mean/spread across members
//
// t1 defaults to the scenario's step count; t0 defaults to 0.
//
// A handler parses its query once and reads every parameter from it
// (params); the first missing or malformed one answers 400, quoting at
// most 64 bytes of its value. Every /v1 body leaves through writeBody:
// finished bytes with Content-Type, Vary: Accept-Encoding,
// Content-Encoding when gzipped and Content-Length, in one Write.
// Bodies compress with gzip when the request's Accept-Encoding admits
// it (a gzip token with a non-zero q) — grid-sized JSON bodies shrink
// several-fold, and the compressors are pooled so compression adds no
// per-request allocation of their 256 KiB state. A resident field's
// bodies are encoded once and kept in its cache entry (fieldBody), so a
// hot /v1/field answer is one write of finished bytes.

// FieldResponse is the JSON body of /v1/field.
type FieldResponse struct {
	Member   int       `json:"member"`
	Scenario int       `json:"scenario"`
	T        int       `json:"t"`
	NLat     int       `json:"nlat"`
	NLon     int       `json:"nlon"`
	Data     []float64 `json:"data"` // row-major, NLat x NLon
}

// SeriesResponse is the JSON body of /v1/point and /v1/box.
type SeriesResponse struct {
	Member   int       `json:"member"`
	Scenario int       `json:"scenario"`
	T0       int       `json:"t0"`
	Values   []float64 `json:"values"`
}

// PointsResponse is the JSON body of /v1/points: one series per
// requested location, in request order.
type PointsResponse struct {
	Member   int         `json:"member"`
	Scenario int         `json:"scenario"`
	T0       int         `json:"t0"`
	Series   [][]float64 `json:"series"`
}

// StatsResponse is the JSON body of /v1/stats.
type StatsResponse struct {
	Scenario     int       `json:"scenario"`
	T            int       `json:"t"`
	Members      int       `json:"members"`
	NLat         int       `json:"nlat"`
	NLon         int       `json:"nlon"`
	Mean         []float64 `json:"mean"`   // row-major ensemble mean
	Spread       []float64 `json:"spread"` // row-major sample std across members
	GlobalMean   float64   `json:"global_mean"`
	GlobalSpread float64   `json:"global_spread"`
}

// InfoResponse is the JSON body of /v1/info.
type InfoResponse struct {
	Grid          string `json:"grid"`
	NLat          int    `json:"nlat"`
	NLon          int    `json:"nlon"`
	L             int    `json:"L"`
	Members       int    `json:"members"`
	Scenarios     int    `json:"scenarios"`
	LiveScenarios int    `json:"live_scenarios"`
	Steps         int    `json:"steps"`
	// LiveSteps is the valid t-range of live scenarios, which may
	// differ from the archive's Steps.
	LiveSteps int `json:"live_steps,omitempty"`
	// LivePathways names the what-if forcing pathways assigned to live
	// scenarios, in live-scenario order.
	LivePathways []string `json:"live_pathways,omitempty"`
	ChunkSteps   int      `json:"chunk_steps"`
	Bands        []string `json:"bands"`
	StepBytes    int      `json:"step_bytes"`
	RawRatio     float64  `json:"raw_ratio"` // float32 raw grid bytes / archived bytes per step
	ArchiveBytes int64    `json:"archive_bytes"`
	Stats        Stats    `json:"stats"`
}

// Handler returns the server's HTTP API. Query endpoints run behind the
// hardening middleware: when Config.MaxInFlight requests are already
// being served, further ones shed with 503 instead of queueing without
// bound, and Config.RequestTimeout bounds each request's handling time.
// The instrument middleware (tracing, per-endpoint metrics, request
// log) wraps that stack from the outside, so shed and timed-out
// requests are observed too. The probes (/healthz, /readyz), /metrics
// and pprof bypass limiter and instrumentation alike: monitors must
// still see a fully loaded server, and probe traffic must not pollute
// endpoint metrics.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/info", s.handleInfo)
	mux.HandleFunc("GET /v1/field", s.handleField)
	mux.HandleFunc("GET /v1/point", s.handlePoint)
	mux.HandleFunc("GET /v1/points", s.handlePoints)
	mux.HandleFunc("GET /v1/box", s.handleBox)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	guarded := s.limitInFlight(mux)
	if s.cfg.RequestTimeout > 0 {
		guarded = http.TimeoutHandler(guarded, s.cfg.RequestTimeout,
			"serve: request exceeded the configured timeout\n")
	}
	guarded = s.instrument(guarded)
	outer := http.NewServeMux()
	outer.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("ok\n"))
	})
	outer.HandleFunc("GET /readyz", s.handleReady)
	outer.Handle("GET /metrics", s.metrics.reg.Handler())
	if s.tracer != nil && s.cfg.EnableTraceDebug {
		outer.HandleFunc("GET /debug/traces", s.handleTraces)
	}
	if s.cfg.EnablePprof {
		outer.HandleFunc("/debug/pprof/", pprof.Index)
		outer.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		outer.HandleFunc("/debug/pprof/profile", pprof.Profile)
		outer.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		outer.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	outer.Handle("/", guarded)
	return outer
}

// handleReady is the readiness probe: liveness (/healthz) answers "the
// process is up", readiness answers "send me traffic". A server that is
// saturated at its in-flight cap, or misconfigured for the scenarios it
// advertises, reports 503 so orchestrated deployments route around it
// until it drains.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	if reason := s.readyReason(); reason != "" {
		http.Error(w, "not ready: "+reason, http.StatusServiceUnavailable)
		return
	}
	w.Write([]byte("ready\n"))
}

// readyReason returns "" when the server should receive traffic, else
// why not.
func (s *Server) readyReason() string {
	if s.r == nil {
		return "no archive open"
	}
	if s.cfg.LiveScenarios > 0 && s.model == nil {
		return "live scenarios configured without a model"
	}
	if s.inFlight != nil && len(s.inFlight) >= cap(s.inFlight) {
		return "at the in-flight request cap"
	}
	return ""
}

// limitInFlight is the backpressure middleware: it admits at most
// Config.MaxInFlight requests at a time and answers 503 (with
// Retry-After) beyond that, keeping a loaded server's latency bounded
// instead of letting a request pile-up exhaust memory.
func (s *Server) limitInFlight(next http.Handler) http.Handler {
	if s.inFlight == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.inFlight <- struct{}{}:
			defer func() { <-s.inFlight }()
			next.ServeHTTP(w, r)
		default:
			s.rejected.Add(1)
			w.Header().Set("Retry-After", "1")
			http.Error(w, "serve: too many in-flight requests", http.StatusServiceUnavailable)
		}
	})
}

// httpError maps caller mistakes (QueryError: bad coordinates or
// parameters) to 400, cancelled or timed-out request contexts to 503
// (load shedding, not a data-plane fault), and everything else — I/O
// failures, corrupt chunks — to 500, so monitors can tell them apart.
func httpError(w http.ResponseWriter, err error) {
	var qe *QueryError
	if errors.As(err, &qe) {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	http.Error(w, err.Error(), http.StatusInternalServerError)
}

// maxQuote bounds how much of an offending parameter value a 400 quotes,
// so a hostile query of a megabyte is not echoed back.
const maxQuote = 64

// clip returns at most maxQuote bytes of v, marking a cut with "...".
func clip(v string) string {
	if len(v) <= maxQuote {
		return v
	}
	return v[:maxQuote] + "..."
}

// params reads one request's query parameters from a url.Values parsed
// once. The first missing or malformed parameter is kept as err, and
// reads after it return zero values, so a handler checks err once.
type params struct {
	q   url.Values
	err error
}

// queryParams parses the request's query.
func queryParams(r *http.Request) params { return params{q: r.URL.Query()} }

// fail keeps the first error of the request.
func (p *params) fail(format string, args ...any) {
	if p.err == nil {
		p.err = badQuery(format, args...)
	}
}

// bad records a value that did not parse, quoting at most maxQuote bytes
// of it (and of the number strconv quotes in err).
func (p *params) bad(name, v string, err error) {
	var ne *strconv.NumError
	if errors.As(err, &ne) {
		ne.Num = clip(ne.Num)
	}
	p.fail("serve: bad %s=%q: %v", name, clip(v), err)
}

// int reads an integer parameter with a default.
func (p *params) int(name string, def int) int {
	v := p.q.Get(name)
	if v == "" || p.err != nil {
		return def
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		p.bad(name, v, err)
	}
	return n
}

// float reads a required float parameter.
func (p *params) float(name string) float64 {
	v := p.q.Get(name)
	if p.err != nil {
		return 0
	}
	if v == "" {
		p.fail("serve: missing required parameter %s", name)
		return 0
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		p.bad(name, v, err)
	}
	return f
}

// floats reads a required comma-separated list of at most maxBatchPoints
// floats. The list is counted before it is split, so a hostile URL of a
// million separators is refused without allocating one value per entry.
func (p *params) floats(name string) []float64 {
	v := p.q.Get(name)
	if p.err != nil {
		return nil
	}
	if v == "" {
		p.fail("serve: missing required parameter %s", name)
		return nil
	}
	if n := strings.Count(v, ",") + 1; n > maxBatchPoints {
		p.fail("serve: %d %s values exceed the %d-point limit", n, name, maxBatchPoints)
		return nil
	}
	parts := strings.Split(v, ",")
	out := make([]float64, len(parts))
	for i, part := range parts {
		f, err := strconv.ParseFloat(part, 64)
		if err != nil {
			p.bad(name, v, err)
			return nil
		}
		out[i] = f
	}
	return out
}

// gzipPool recycles compressors across responses: a gzip.Writer carries
// ~256 KiB of window and huffman state, far too much to allocate per
// request on the hot serving path. BestSpeed keeps compression CPU well
// under the synthesis it fronts while still shrinking grid-sized JSON
// severalfold.
var gzipPool = sync.Pool{
	New: func() any {
		zw, err := gzip.NewWriterLevel(nil, gzip.BestSpeed)
		if err != nil { // only fires for an invalid level constant
			panic(err)
		}
		return zw
	},
}

// acceptsGzip reports whether an Accept-Encoding header admits gzip: a
// gzip (or x-gzip) token, or failing one a "*" token, whose q-value is
// not zero. A q-value that does not parse refuses the coding; identity
// is always acceptable, so refusing is the safe reading.
func acceptsGzip(header string) bool {
	star := false
	for header != "" {
		var tok string
		tok, header, _ = strings.Cut(header, ",")
		coding, params, _ := strings.Cut(tok, ";")
		switch coding = strings.TrimSpace(coding); {
		case strings.EqualFold(coding, "gzip"), strings.EqualFold(coding, "x-gzip"):
			return qNonZero(params)
		case coding == "*":
			star = qNonZero(params)
		}
	}
	return star
}

// qNonZero reports whether a coding's parameters leave its q-value above
// zero (absent q means 1).
func qNonZero(params string) bool {
	for params != "" {
		var p string
		p, params, _ = strings.Cut(params, ";")
		k, v, _ := strings.Cut(p, "=")
		if strings.EqualFold(strings.TrimSpace(k), "q") {
			q, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			return err == nil && q > 0
		}
	}
	return true
}

// writeBody is the one way a /v1 body leaves the server: it sets the
// framing headers (Content-Type, Vary: Accept-Encoding, Content-Encoding
// when gzipped, Content-Length) and writes the finished body in one
// Write. A failed write means the client is gone; nothing is left to do.
func writeBody(w http.ResponseWriter, contentType string, gzipped bool, body []byte) {
	hd := w.Header()
	hd.Set("Content-Type", contentType)
	hd.Set("Vary", "Accept-Encoding")
	if gzipped {
		hd.Set("Content-Encoding", "gzip")
	}
	hd.Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body)
}

// writeJSON encodes v into a pooled buffer, gzips it when the client
// accepts gzip, and writes it. Encoding, compression and the write are
// the request's encode stage.
func writeJSON(w http.ResponseWriter, r *http.Request, v any) {
	et := beginStage(r.Context(), stageEncode)
	defer et.end()
	buf := bodyScratch.Get().(*bytes.Buffer)
	defer bodyScratch.Put(buf)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		httpError(w, err)
		return
	}
	body, gzipped := buf.Bytes(), acceptsGzip(r.Header.Get("Accept-Encoding"))
	if gzipped {
		et.attrStr("encoding", "gzip")
		body = gzipBody(body)
	}
	writeBody(w, "application/json", gzipped, body)
}

// bodyScratch recycles the buffers bodies are encoded into; a kept
// field body is an exact-size copy, so the buffer's growth slack is
// never charged to the cache.
var bodyScratch = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// encodeBody renders an identity form of a /v1/field body: the JSON
// FieldResponse (newline-terminated, as json.Encoder writes it) or the
// grid as raw row-major little-endian float32 — the layout raw climate
// archives typically store; dimensions travel in headers.
func encodeBody(f bodyForm, resp FieldResponse) ([]byte, error) {
	if f == bodyF32 {
		b := make([]byte, 4*len(resp.Data))
		for i, v := range resp.Data {
			binary.LittleEndian.PutUint32(b[4*i:], math.Float32bits(float32(v)))
		}
		return b, nil
	}
	buf := bodyScratch.Get().(*bytes.Buffer)
	buf.Reset()
	err := json.NewEncoder(buf).Encode(resp)
	b := bytes.Clone(buf.Bytes())
	bodyScratch.Put(buf)
	return b, err
}

// gzipBody compresses an identity body with a pooled BestSpeed writer.
func gzipBody(identity []byte) []byte {
	buf := bodyScratch.Get().(*bytes.Buffer)
	buf.Reset()
	zw := gzipPool.Get().(*gzip.Writer)
	zw.Reset(buf)
	zw.Write(identity) // a bytes.Buffer write cannot fail
	zw.Close()
	gzipPool.Put(zw)
	b := bytes.Clone(buf.Bytes())
	bodyScratch.Put(buf)
	return b
}

// fieldBody returns form f of the field's response body: the body the
// cache entry keeps when it has one, else one encoded now and kept —
// a gzip form compresses its identity twin, which is looked up (or
// encoded and kept) the same way. cached reports whether f itself was
// kept already. Encoding runs outside every lock; two racing first
// requests may both encode, and keepBody keeps one.
func (s *Server) fieldBody(key cacheKey, f bodyForm, resp FieldResponse) (body []byte, cached bool, err error) {
	if b := s.cache.body(key, f); b != nil {
		return b, true, nil
	}
	if f.gzipped() {
		identity, _, err := s.fieldBody(key, f.identity(), resp)
		if err != nil {
			return nil, false, err
		}
		body = gzipBody(identity)
	} else if body, err = encodeBody(f, resp); err != nil {
		return nil, false, err
	}
	return s.cache.keepBody(key, f, body), false, nil
}

// fieldForm maps a /v1/field request onto its body form. format is a
// closed set: absent or "json" answers JSON, "f32" raw float32, and
// anything else is a bad query.
func fieldForm(p *params, r *http.Request) bodyForm {
	var f bodyForm
	switch v := p.q.Get("format"); v {
	case "", "json":
		f = bodyJSON
	case "f32":
		f = bodyF32
	default:
		p.fail("serve: bad format=%q: want json or f32", clip(v))
	}
	if acceptsGzip(r.Header.Get("Accept-Encoding")) {
		f |= 1
	}
	return f
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	h := s.h
	bands := make([]string, len(h.Bands))
	for i, b := range h.Bands {
		bands[i] = b.String()
	}
	rawPerStep := float64(h.Grid.Points() * 4)
	liveSteps := 0
	if s.cfg.LiveScenarios > 0 {
		liveSteps = s.cfg.LiveSteps
	}
	var livePathways []string
	for _, pw := range s.cfg.LivePathways {
		livePathways = append(livePathways, pw.Name)
	}
	writeJSON(w, r, InfoResponse{
		Grid: h.Grid.String(), NLat: h.Grid.NLat, NLon: h.Grid.NLon, L: h.L,
		Members: h.Members, Scenarios: h.Scenarios, LiveScenarios: s.cfg.LiveScenarios,
		Steps: h.Steps, ChunkSteps: h.ChunkSteps, Bands: bands, LiveSteps: liveSteps,
		LivePathways: livePathways,
		StepBytes:    h.StepBytes(),
		RawRatio:     rawPerStep / float64(h.StepBytes()),
		ArchiveBytes: s.r.Size(),
		Stats:        s.Stats(),
	})
}

func (s *Server) handleField(w http.ResponseWriter, r *http.Request) {
	p := queryParams(r)
	member, scenario, t := p.int("member", 0), p.int("scenario", 0), p.int("t", 0)
	form := fieldForm(&p, r)
	if p.err != nil {
		httpError(w, p.err)
		return
	}
	data, err := s.Field(r.Context(), member, scenario, t)
	if err != nil {
		httpError(w, err)
		return
	}
	g := s.h.Grid
	// The encode stage covers the body lookup, any fill, and the write.
	et := beginStage(r.Context(), stageEncode)
	defer et.end()
	body, cached, err := s.fieldBody(s.fieldKey(member, scenario, t), form, FieldResponse{
		Member: member, Scenario: scenario, T: t,
		NLat: g.NLat, NLon: g.NLon, Data: data,
	})
	if err != nil {
		httpError(w, err)
		return
	}
	if cached {
		et.attrStr("body", "cached")
	} else {
		et.attrStr("body", "encoded")
	}
	if form.gzipped() {
		et.attrStr("encoding", "gzip")
	}
	contentType := "application/json"
	if form.identity() == bodyF32 {
		contentType = "application/octet-stream"
		w.Header().Set("X-Exaclim-NLat", strconv.Itoa(g.NLat))
		w.Header().Set("X-Exaclim-NLon", strconv.Itoa(g.NLon))
	}
	writeBody(w, contentType, form.gzipped(), body)
}

// answer writes v as the JSON response, or err as the error answer.
func answer(w http.ResponseWriter, r *http.Request, v any, err error) {
	if err != nil {
		httpError(w, err)
		return
	}
	writeJSON(w, r, v)
}

// seriesParams reads the member/scenario/t0/t1 parameters the series
// endpoints share; t1 defaults to the scenario's step count.
func (s *Server) seriesParams(p *params) (member, scenario, t0, t1 int) {
	member, scenario, t0 = p.int("member", 0), p.int("scenario", 0), p.int("t0", 0)
	return member, scenario, t0, p.int("t1", s.Steps(scenario))
}

func (s *Server) handlePoint(w http.ResponseWriter, r *http.Request) {
	p := queryParams(r)
	member, scenario, t0, t1 := s.seriesParams(&p)
	lat, lon := p.float("lat"), p.float("lon")
	if p.err != nil {
		httpError(w, p.err)
		return
	}
	values, err := s.PointSeries(r.Context(), member, scenario, lat, lon, t0, t1)
	answer(w, r, SeriesResponse{Member: member, Scenario: scenario, T0: t0, Values: values}, err)
}

func (s *Server) handlePoints(w http.ResponseWriter, r *http.Request) {
	p := queryParams(r)
	member, scenario, t0, t1 := s.seriesParams(&p)
	lats, lons := p.floats("lat"), p.floats("lon")
	if p.err != nil {
		httpError(w, p.err)
		return
	}
	series, err := s.PointsSeries(r.Context(), member, scenario, lats, lons, t0, t1)
	answer(w, r, PointsResponse{Member: member, Scenario: scenario, T0: t0, Series: series}, err)
}

func (s *Server) handleBox(w http.ResponseWriter, r *http.Request) {
	p := queryParams(r)
	member, scenario, t0, t1 := s.seriesParams(&p)
	box := Box{LatMin: p.float("lat0"), LatMax: p.float("lat1"), LonMin: p.float("lon0"), LonMax: p.float("lon1")}
	if p.err != nil {
		httpError(w, p.err)
		return
	}
	values, err := s.BoxSeries(r.Context(), member, scenario, box, t0, t1)
	answer(w, r, SeriesResponse{Member: member, Scenario: scenario, T0: t0, Values: values}, err)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	p := queryParams(r)
	scenario, t := p.int("scenario", 0), p.int("t", 0)
	if p.err != nil {
		httpError(w, p.err)
		return
	}
	mean, spread, err := s.EnsembleStats(r.Context(), scenario, t)
	if err != nil {
		httpError(w, err)
		return
	}
	g := s.h.Grid
	gm := sphere.Field{Grid: g, Data: mean}.Mean()
	gs := sphere.Field{Grid: g, Data: spread}.Mean()
	writeJSON(w, r, StatsResponse{
		Scenario: scenario, T: t, Members: s.h.Members,
		NLat: g.NLat, NLon: g.NLon, Mean: mean, Spread: spread,
		GlobalMean: gm, GlobalSpread: gs,
	})
}
