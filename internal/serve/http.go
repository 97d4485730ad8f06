package serve

import (
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
//	/v1/field?member=&scenario=&t=        full field; &format=f32 streams raw
//	                                      little-endian float32 (row-major)
//	/v1/point?member=&scenario=&lat=&lon=&t0=&t1=   point time series
//	/v1/points?member=&scenario=&lat=&lon=&t0=&t1=  multi-point series; lat and
//	                                      lon are comma-separated lists
//	/v1/box?member=&scenario=&lat0=&lat1=&lon0=&lon1=&t0=&t1=  box-mean series
//	/v1/stats?scenario=&t=                ensemble mean/spread across members
//
// t1 defaults to the scenario's step count; t0 defaults to 0.
//
// Responses compress with gzip when the request carries
// Accept-Encoding: gzip — grid-sized JSON bodies shrink several-fold,
// and the writers are pooled so compression adds no per-request
// allocation of its 256 KiB state.

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

// compressResponse returns the writer the response body should go
// through: a pooled gzip writer when the client accepts gzip, else w
// itself. done must be called exactly once after the body is fully
// written — it flushes the gzip footer and returns the writer to the
// pool. Decompressed bytes are byte-identical to the uncompressed
// response (pinned by the round-trip test over a real listener).
func compressResponse(w http.ResponseWriter, r *http.Request) (body io.Writer, done func()) {
	if !strings.Contains(r.Header.Get("Accept-Encoding"), "gzip") {
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

// f32ChunkBytes is the pooled encode-buffer size of the raw float32
// body writer: big enough to amortize Write syscalls, small enough to
// stay cache-resident.
const f32ChunkBytes = 32 << 10

var f32ChunkPool = sync.Pool{
	New: func() any {
		b := make([]byte, f32ChunkBytes)
		return &b
	},
}

// writeF32 streams data as raw row-major little-endian float32 — the
// layout raw climate archives typically store; dimensions travel in
// headers. Each value is narrowed as it encodes into a pooled chunk
// buffer, so neither a float32 grid nor a grid-sized byte buffer is
// allocated per request (pinned by the handler alloc test), and the body
// compresses when the client accepts gzip.
func writeF32(w http.ResponseWriter, r *http.Request, g sphere.Grid, data []float64) {
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Exaclim-NLat", strconv.Itoa(g.NLat))
	w.Header().Set("X-Exaclim-NLon", strconv.Itoa(g.NLon))
	et := beginStage(r.Context(), stageEncode)
	defer et.end()
	body, done := compressResponse(w, r)
	defer done()
	if w.Header().Get("Content-Encoding") == "gzip" {
		et.attrStr("encoding", "gzip")
	}
	bp := f32ChunkPool.Get().(*[]byte)
	defer f32ChunkPool.Put(bp)
	buf := *bp
	for off := 0; off < len(data); {
		n := len(data) - off
		if n > len(buf)/4 {
			n = len(buf) / 4
		}
		for i := 0; i < n; i++ {
			binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(float32(data[off+i])))
		}
		if _, err := body.Write(buf[:4*n]); err != nil {
			return // client gone; the remaining chunks have no reader
		}
		off += n
	}
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
	g := s.h.Grid
	data, err := s.Field(r.Context(), member, scenario, t)
	if err != nil {
		httpError(w, err)
		return
	}
	if r.URL.Query().Get("format") == "f32" {
		writeF32(w, r, g, data)
		return
	}
	writeJSON(w, r, FieldResponse{
		Member: member, Scenario: scenario, T: t,
		NLat: g.NLat, NLon: g.NLon, Data: data,
	})
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
