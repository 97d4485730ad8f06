package archive

import "exaclim/internal/obs"

// Metric names the reader reports through its obs.Sink. The archive
// package stays deterministic and clock-free: it only counts events and
// leaves registration, labeling and timing to the serving layer, which
// maps these constants onto registered metrics.
const (
	// MetricStepDecodes counts coefficient records decoded (one per
	// successful ReadPacked, on either the Reader or a Series cursor).
	MetricStepDecodes = "archive_step_decodes"
	// MetricReadBytes counts raw bytes read from the underlying file by
	// chunk I/O.
	MetricReadBytes = "archive_read_bytes"
	// MetricChunkHits counts ReadPacked calls served from a cached chunk.
	MetricChunkHits = "archive_chunk_hits"
	// MetricChunkMisses counts ReadPacked calls that had to read a chunk.
	MetricChunkMisses = "archive_chunk_misses"
	// MetricChunkAmortized counts steps whose decode was amortized onto
	// an already-loaded chunk by a batched ReadPackedBlocks walk: each
	// chunk visited contributes its step count minus one. A series query
	// that decodes 64 steps from one chunk reports 63.
	MetricChunkAmortized = "archive_chunk_amortized"
)

// sinkBox wraps the Sink so atomic.Pointer has one concrete type even
// when callers swap between different Sink implementations.
type sinkBox struct{ s obs.Sink }

// SetObserver installs (or, with nil, removes) the sink receiving the
// reader's metric events. Safe to call concurrently with reads; Series
// cursors report through their parent reader's sink.
func (r *Reader) SetObserver(s obs.Sink) {
	if s == nil {
		r.sink.Store(nil)
		return
	}
	r.sink.Store(&sinkBox{s: s})
}

// observe reports one metric event to the installed sink, if any.
func (r *Reader) observe(metric string, delta int64) {
	if box := r.sink.Load(); box != nil {
		box.s.Add(metric, delta)
	}
}
