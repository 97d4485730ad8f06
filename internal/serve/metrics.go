package serve

import (
	"exaclim/internal/archive"
	"exaclim/internal/obs"
	"exaclim/internal/obs/trace"
)

// serveMetrics is the server's registered metric surface: the hot-path
// families the HTTP middleware records into (request counts, latency
// histograms, in-flight gauge), stored counters fed by the archive
// reader's obs.Sink, and scrape-time bridges over the instrumentation
// that already lives in atomic Server fields — the bridges sample at
// scrape time, so nothing is double-counted and the serving hot path
// pays no extra recording cost for them.
//
// serveMetrics implements obs.Sink for the archive reader: the reader
// reports metric-name constants, and the mapping onto registered
// families lives here, at the layer that owns the registry.
type serveMetrics struct {
	reg *obs.Registry

	// Recorded by the instrument middleware (http.go).
	reqTotal      *obs.CounterVec   // exaclim_http_requests_total{path,code}
	reqLatency    *obs.HistogramVec // exaclim_http_request_duration_seconds{path}
	inFlight      *obs.Gauge        // exaclim_http_in_flight_requests
	stageDuration *obs.HistogramVec // exaclim_stage_duration_seconds{stage}

	// Fed by the archive reader through the Sink interface.
	archStepDecodes    *obs.Counter
	archReadBytes      *obs.Counter
	archChunkHits      *obs.Counter
	archChunkMisses    *obs.Counter
	archChunkAmortized *obs.Counter
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

	m.archStepDecodes = reg.Counter("exaclim_archive_step_decodes_total",
		"Coefficient records decoded from the archive.")
	m.archReadBytes = reg.Counter("exaclim_archive_read_bytes_total",
		"Raw bytes read from the archive file by chunk I/O.")
	m.archChunkHits = reg.Counter("exaclim_archive_chunk_hits_total",
		"Archive reads served from a cached chunk.")
	m.archChunkMisses = reg.Counter("exaclim_archive_chunk_misses_total",
		"Archive reads that had to fetch a chunk.")
	m.archChunkAmortized = reg.Counter("exaclim_archive_chunk_amortized_total",
		"Step decodes that skipped per-step chunk lookups because a batched range walk kept the chunk in hand.")

	// Scrape-time bridges over the server's existing atomic counters.
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

// Add implements obs.Sink for the archive reader. Unknown metric names
// are dropped: an older serving layer fronting a newer archive package
// must not panic on a constant it does not know.
func (m *serveMetrics) Add(metric string, delta int64) {
	switch metric {
	case archive.MetricStepDecodes:
		m.archStepDecodes.Add(delta)
	case archive.MetricReadBytes:
		m.archReadBytes.Add(delta)
	case archive.MetricChunkHits:
		m.archChunkHits.Add(delta)
	case archive.MetricChunkMisses:
		m.archChunkMisses.Add(delta)
	case archive.MetricChunkAmortized:
		m.archChunkAmortized.Add(delta)
	}
}

// ArchiveStats is the archive reader's metric snapshot as observed
// through the server's sink. It is an obs.Sink itself: a traced series
// request's cursor reports into one, so the request's decode span can
// carry chunk and I/O attribution. A cursor is single-goroutine by
// contract and is unhooked before another request can borrow it, so
// plain fields suffice.
type ArchiveStats struct {
	// StepDecodes counts coefficient records decoded.
	StepDecodes int64
	// ReadBytes counts raw bytes read from the archive file.
	ReadBytes int64
	// ChunkHits and ChunkMisses count reads served from, respectively
	// past, the per-series chunk cache.
	ChunkHits   int64
	ChunkMisses int64
	// ChunkAmortized counts step decodes amortized onto an
	// already-loaded chunk by batched range reads.
	ChunkAmortized int64
}

// Add implements obs.Sink.
func (a *ArchiveStats) Add(metric string, delta int64) {
	switch metric {
	case archive.MetricStepDecodes:
		a.StepDecodes += delta
	case archive.MetricReadBytes:
		a.ReadBytes += delta
	case archive.MetricChunkHits:
		a.ChunkHits += delta
	case archive.MetricChunkMisses:
		a.ChunkMisses += delta
	case archive.MetricChunkAmortized:
		a.ChunkAmortized += delta
	}
}

// annotate copies the counts onto a decode span.
func (a *ArchiveStats) annotate(sp *trace.Span) {
	if a == nil || sp == nil {
		return
	}
	sp.SetAttr("decodes", a.StepDecodes)
	sp.SetAttr("read_bytes", a.ReadBytes)
	sp.SetAttr("chunk_hits", a.ChunkHits)
	sp.SetAttr("chunk_misses", a.ChunkMisses)
	sp.SetAttr("chunk_amortized", a.ChunkAmortized)
}

// archiveStats snapshots the sink-fed archive counters.
func (m *serveMetrics) archiveStats() ArchiveStats {
	return ArchiveStats{
		StepDecodes:    m.archStepDecodes.Value(),
		ReadBytes:      m.archReadBytes.Value(),
		ChunkHits:      m.archChunkHits.Value(),
		ChunkMisses:    m.archChunkMisses.Value(),
		ChunkAmortized: m.archChunkAmortized.Value(),
	}
}
