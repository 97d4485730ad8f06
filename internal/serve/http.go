package serve

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"net/http/pprof"
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
// Responses compress with gzip when the request's Accept-Encoding admits
// it (a gzip token with a non-zero q) — grid-sized JSON bodies shrink
// several-fold, and the writers are pooled so compression adds no
// per-request allocation of its 256 KiB state. A resident field's bodies
// are encoded once and kept in its cache entry (fieldBody), so a hot
// /v1/field answer is one write of finished bytes.

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
	if s.metrics != nil {
		outer.Handle("GET /metrics", s.metrics.reg.Handler())
	}
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

// queryInt parses an integer query parameter with a default.
func queryInt(r *http.Request, name string, def int) (int, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return def, nil
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0, badQuery("serve: bad %s=%q: %v", name, v, err)
	}
	return n, nil
}

// queryFloat parses a float query parameter; it is required.
func queryFloat(r *http.Request, name string) (float64, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return 0, badQuery("serve: missing required parameter %s", name)
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, badQuery("serve: bad %s=%q: %v", name, v, err)
	}
	return f, nil
}

// queryFloatList parses a required comma-separated list of at most
// maxBatchPoints floats. The list is counted before it is split, so a
// hostile URL of a million separators is refused without allocating
// one value per entry.
func queryFloatList(r *http.Request, name string) ([]float64, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return nil, badQuery("serve: missing required parameter %s", name)
	}
	if n := strings.Count(v, ",") + 1; n > maxBatchPoints {
		return nil, badQuery("serve: %d %s values exceed the %d-point limit", n, name, maxBatchPoints)
	}
	parts := strings.Split(v, ",")
	out := make([]float64, len(parts))
	for i, p := range parts {
		f, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return nil, badQuery("serve: bad %s=%q: %v", name, v, err)
		}
		out[i] = f
	}
	return out, nil
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

// compressResponse returns the writer the response body should go
// through: a pooled gzip writer when the client accepts gzip, else w
// itself. done must be called exactly once after the body is fully
// written — it flushes the gzip footer and returns the writer to the
// pool. Decompressed bytes are byte-identical to the uncompressed
// response (pinned by the round-trip test over a real listener). The
// response varies on Accept-Encoding either way, and says so to caches.
func compressResponse(w http.ResponseWriter, r *http.Request) (body io.Writer, done func()) {
	w.Header().Set("Vary", "Accept-Encoding")
	if !acceptsGzip(r.Header.Get("Accept-Encoding")) {
		return w, func() {}
	}
	w.Header().Set("Content-Encoding", "gzip")
	zw := gzipPool.Get().(*gzip.Writer)
	zw.Reset(w)
	return zw, func() {
		zw.Close()
		gzipPool.Put(zw)
	}
}

// writeJSON encodes v as the response body, gzip-compressed when the
// client accepts it. Encoding (and the gzip flush inside done) is the
// request's encode stage.
func writeJSON(w http.ResponseWriter, r *http.Request, v any) {
	w.Header().Set("Content-Type", "application/json")
	et := beginStage(r.Context(), stageEncode)
	defer et.end()
	body, done := compressResponse(w, r)
	defer done()
	if w.Header().Get("Content-Encoding") == "gzip" {
		et.attrStr("encoding", "gzip")
	}
	json.NewEncoder(body).Encode(v)
}

// bodyScratch recycles the buffers field bodies are encoded into; a
// kept body is an exact-size copy, so the buffer's growth slack is
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
func fieldForm(r *http.Request) (bodyForm, error) {
	var f bodyForm
	switch v := r.URL.Query().Get("format"); v {
	case "", "json":
		f = bodyJSON
	case "f32":
		f = bodyF32
	default:
		return 0, badQuery("serve: bad format=%q: want json or f32", v)
	}
	if acceptsGzip(r.Header.Get("Accept-Encoding")) {
		f |= 1
	}
	return f, nil
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
	member, err := queryInt(r, "member", 0)
	if err != nil {
		httpError(w, err)
		return
	}
	scenario, err := queryInt(r, "scenario", 0)
	if err != nil {
		httpError(w, err)
		return
	}
	t, err := queryInt(r, "t", 0)
	if err != nil {
		httpError(w, err)
		return
	}
	form, err := fieldForm(r)
	if err != nil {
		httpError(w, err)
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
	hd := w.Header()
	if form.identity() == bodyF32 {
		hd.Set("Content-Type", "application/octet-stream")
		hd.Set("X-Exaclim-NLat", strconv.Itoa(g.NLat))
		hd.Set("X-Exaclim-NLon", strconv.Itoa(g.NLon))
	} else {
		hd.Set("Content-Type", "application/json")
	}
	if form.gzipped() {
		hd.Set("Content-Encoding", "gzip")
		et.attrStr("encoding", "gzip")
	}
	hd.Set("Vary", "Accept-Encoding")
	hd.Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body) // a failed write means the client is gone; nothing is left to do
}

// seriesParams parses the shared member/scenario/t0/t1 parameters.
func (s *Server) seriesParams(r *http.Request) (member, scenario, t0, t1 int, err error) {
	if member, err = queryInt(r, "member", 0); err != nil {
		return
	}
	if scenario, err = queryInt(r, "scenario", 0); err != nil {
		return
	}
	if t0, err = queryInt(r, "t0", 0); err != nil {
		return
	}
	t1, err = queryInt(r, "t1", s.Steps(scenario))
	return
}

// handleSeries is the shape the three series endpoints share: parse the
// common member/scenario/t0/t1 parameters, let query parse its own and
// run, and write its response — or the first error on the way.
func (s *Server) handleSeries(w http.ResponseWriter, r *http.Request, query func(member, scenario, t0, t1 int) (any, error)) {
	member, scenario, t0, t1, err := s.seriesParams(r)
	if err == nil {
		var resp any
		if resp, err = query(member, scenario, t0, t1); err == nil {
			writeJSON(w, r, resp)
			return
		}
	}
	httpError(w, err)
}

func (s *Server) handlePoint(w http.ResponseWriter, r *http.Request) {
	s.handleSeries(w, r, func(member, scenario, t0, t1 int) (any, error) {
		lat, err := queryFloat(r, "lat")
		if err != nil {
			return nil, err
		}
		lon, err := queryFloat(r, "lon")
		if err != nil {
			return nil, err
		}
		values, err := s.PointSeries(r.Context(), member, scenario, lat, lon, t0, t1)
		return SeriesResponse{Member: member, Scenario: scenario, T0: t0, Values: values}, err
	})
}

func (s *Server) handlePoints(w http.ResponseWriter, r *http.Request) {
	s.handleSeries(w, r, func(member, scenario, t0, t1 int) (any, error) {
		lats, err := queryFloatList(r, "lat")
		if err != nil {
			return nil, err
		}
		lons, err := queryFloatList(r, "lon")
		if err != nil {
			return nil, err
		}
		series, err := s.PointsSeries(r.Context(), member, scenario, lats, lons, t0, t1)
		return PointsResponse{Member: member, Scenario: scenario, T0: t0, Series: series}, err
	})
}

func (s *Server) handleBox(w http.ResponseWriter, r *http.Request) {
	s.handleSeries(w, r, func(member, scenario, t0, t1 int) (resp any, err error) {
		var box Box
		for _, p := range []struct {
			name string
			dst  *float64
		}{{"lat0", &box.LatMin}, {"lat1", &box.LatMax}, {"lon0", &box.LonMin}, {"lon1", &box.LonMax}} {
			if *p.dst, err = queryFloat(r, p.name); err != nil {
				return nil, err
			}
		}
		values, err := s.BoxSeries(r.Context(), member, scenario, box, t0, t1)
		return SeriesResponse{Member: member, Scenario: scenario, T0: t0, Values: values}, err
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	scenario, err := queryInt(r, "scenario", 0)
	if err != nil {
		httpError(w, err)
		return
	}
	t, err := queryInt(r, "t", 0)
	if err != nil {
		httpError(w, err)
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
