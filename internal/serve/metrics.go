package serve

import (
	"exaclim/internal/archive"
	"exaclim/internal/obs"
	"exaclim/internal/obs/trace"
)

// serveMetrics is the server's registered metric surface: the hot-path
// families the HTTP middleware records into (request counts, latency
// histograms, in-flight gauge), and scrape-time bridges over the
// counters the layers that count already own — the Server's atomics,
// the field cache's, and the archive reader's (Reader.Counts). The
// bridges sample at scrape time, so nothing is double-counted and the
// serving hot path pays no extra recording cost for them.
type serveMetrics struct {
	reg *obs.Registry

	// Recorded by the instrument middleware (http.go).
	reqTotal      *obs.CounterVec   // exaclim_http_requests_total{path,code}
	reqLatency    *obs.HistogramVec // exaclim_http_request_duration_seconds{path}
	inFlight      *obs.Gauge        // exaclim_http_in_flight_requests
	stageDuration *obs.HistogramVec // exaclim_stage_duration_seconds{stage}
}

// newServeMetrics builds the registry for one server. Families are
// registered once here; a duplicate or invalid name panics at server
// construction, never at serving time.
func newServeMetrics(s *Server) *serveMetrics {
	reg := obs.NewRegistry()
	m := &serveMetrics{reg: reg}

	m.reqTotal = reg.CounterVec("exaclim_http_requests_total",
		"HTTP requests served, by endpoint and status code.", "path", "code")
	m.reqLatency = reg.HistogramVec("exaclim_http_request_duration_seconds",
		"HTTP request latency in seconds, by endpoint.", obs.DefLatencyBuckets, "path")
	m.inFlight = reg.Gauge("exaclim_http_in_flight_requests",
		"HTTP requests currently being served.")
	m.stageDuration = reg.HistogramVec("exaclim_stage_duration_seconds",
		"Per-request time attributed to each serving stage (cache, decode, synthesis, eval, emulate, encode); sampled requests attach trace-ID exemplars.",
		stageDurationBuckets, "stage")

	// Scrape-time bridges over the counters the layers that count
	// already keep: the archive reader's, the server's, the field cache's.
	reg.CounterFunc("exaclim_archive_step_decodes_total",
		"Coefficient records decoded from the archive.",
		func() float64 { return float64(s.r.Counts().StepDecodes) })
	reg.CounterFunc("exaclim_archive_read_bytes_total",
		"Raw bytes read from the archive file by chunk I/O.",
		func() float64 { return float64(s.r.Counts().ReadBytes) })
	reg.CounterFunc("exaclim_archive_chunk_hits_total",
		"Archive reads served from a cached chunk.",
		func() float64 { return float64(s.r.Counts().ChunkHits) })
	reg.CounterFunc("exaclim_archive_chunk_misses_total",
		"Archive reads that had to fetch a chunk.",
		func() float64 { return float64(s.r.Counts().ChunkMisses) })
	reg.CounterFunc("exaclim_archive_chunk_amortized_total",
		"Step decodes that skipped per-step chunk lookups because a batched range walk kept the chunk in hand.",
		func() float64 { return float64(s.r.Counts().ChunkAmortized) })

	reg.CounterFunc("exaclim_requests_total",
		"Queries answered, of any kind.",
		func() float64 { return float64(s.requests.Load()) })
	reg.CounterFunc("exaclim_rejected_total",
		"HTTP requests shed with 503 by the in-flight cap.",
		func() float64 { return float64(s.rejected.Load()) })
	reg.CounterFunc("exaclim_field_loads_total",
		"Underlying archive decode+synthesis runs (single-flight keeps this at one per distinct field).",
		func() float64 { return float64(s.fieldLoads.Load()) })
	reg.CounterFunc("exaclim_live_loads_total",
		"On-demand live emulation runs.",
		func() float64 { return float64(s.liveLoads.Load()) })

	reg.CounterFunc("exaclim_cache_hits_total",
		"Field-cache requests answered from resident entries.",
		func() float64 { return float64(s.cache.hits.Load()) })
	reg.CounterFunc("exaclim_cache_misses_total",
		"Field-cache requests that ran the underlying load.",
		func() float64 { return float64(s.cache.misses.Load()) })
	reg.CounterFunc("exaclim_cache_coalesced_total",
		"Field-cache requests that waited on another request's load.",
		func() float64 { return float64(s.cache.coalesced.Load()) })
	reg.CounterFunc("exaclim_cache_evictions_total",
		"Field-cache entries dropped by the LRU capacity bound.",
		func() float64 { return float64(s.cache.evictions.Load()) })
	reg.GaugeFunc("exaclim_cache_bytes",
		"Resident field-cache bytes.",
		func() float64 { return float64(s.cache.stats().Bytes) })
	reg.GaugeFunc("exaclim_cache_entries",
		"Resident field-cache entries.",
		func() float64 { return float64(s.cache.stats().Entries) })

	obs.RegisterRuntime(reg, "exaclim_")
	return m
}

// ArchiveStats is the archive reader's read counts (step decodes,
// bytes read, chunk-cache hits, misses and amortized decodes). In
// Stats it is the reader's totals since it was opened, whichever server
// or caller read through it.
type ArchiveStats = archive.Counts

// annotateArchive copies a series walk's archive counts onto its decode
// span.
func annotateArchive(sp *trace.Span, c archive.Counts) {
	sp.SetAttr("decodes", c.StepDecodes)
	sp.SetAttr("read_bytes", c.ReadBytes)
	sp.SetAttr("chunk_hits", c.ChunkHits)
	sp.SetAttr("chunk_misses", c.ChunkMisses)
	sp.SetAttr("chunk_amortized", c.ChunkAmortized)
}
