package archive

import "sync/atomic"

// Counts tallies archive read events — the chunk reads and coefficient
// decodes that are the cost of serving from an archive in place of the
// raw output. Reader.Counts returns the totals since the reader was
// opened, over every cursor; Series.Counts returns one cursor's since
// it was opened. The archive package stays deterministic and clock-free:
// it only counts, and leaves registration, labeling and timing to the
// serving layer, which reads these snapshots at scrape time.
type Counts struct {
	// StepDecodes counts coefficient records decoded (one per
	// successful per-step read, one per step of a range walk).
	StepDecodes int64
	// ReadBytes counts raw bytes read from the archive file by chunk I/O.
	ReadBytes int64
	// ChunkHits counts chunk lookups served by the resident chunk.
	ChunkHits int64
	// ChunkMisses counts chunk lookups that had to read the chunk.
	ChunkMisses int64
	// ChunkAmortized counts steps whose decode was amortized onto an
	// already-loaded chunk by a batched ReadPackedBlocks walk: each
	// chunk visited contributes its decoded step count minus one. A
	// series query that decodes 64 steps from one chunk adds 63.
	ChunkAmortized int64
}

// Sub returns c minus o, field by field: the events between two
// snapshots.
func (c Counts) Sub(o Counts) Counts {
	return Counts{
		StepDecodes:    c.StepDecodes - o.StepDecodes,
		ReadBytes:      c.ReadBytes - o.ReadBytes,
		ChunkHits:      c.ChunkHits - o.ChunkHits,
		ChunkMisses:    c.ChunkMisses - o.ChunkMisses,
		ChunkAmortized: c.ChunkAmortized - o.ChunkAmortized,
	}
}

// totals is Counts kept as atomics: the reader's share, added to by
// every cursor on whatever goroutine drives it.
type totals struct {
	stepDecodes, readBytes, chunkHits, chunkMisses, chunkAmortized atomic.Int64
}

// Counts returns the reader's read events since it was opened, summed
// over all its cursors (parked or not). Each field is read atomically;
// the snapshot as a whole is not, so fields may disagree by the events
// of reads still running.
func (r *Reader) Counts() Counts {
	t := &r.totals
	return Counts{
		StepDecodes:    t.stepDecodes.Load(),
		ReadBytes:      t.readBytes.Load(),
		ChunkHits:      t.chunkHits.Load(),
		ChunkMisses:    t.chunkMisses.Load(),
		ChunkAmortized: t.chunkAmortized.Load(),
	}
}

// Counts returns the cursor's read events since it was opened. A parked
// cursor keeps counting across borrowers (Reader.WithSeries), so a
// borrower attributes its own reads by the difference of the snapshots
// it takes before and after them.
func (s *Series) Counts() Counts { return s.counts }

// count adds n events to a cursor's count c and its reader's total t.
func count(c *int64, t *atomic.Int64, n int64) {
	*c += n
	t.Add(n)
}
