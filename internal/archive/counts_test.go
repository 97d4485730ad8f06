package archive

import (
	"testing"

	"exaclim/internal/tile"
)

// TestReaderCounts pins the reader's read counts for a known
// access pattern: the test header has 7 steps in chunks of 3, so one
// sequential pass over a series crosses three chunks.
func TestReaderCounts(t *testing.T) {
	r, h, _ := openTestArchive(t, 8, UniformBands(8, tile.FP64))
	before := r.Counts()
	for tt := 0; tt < h.Steps; tt++ {
		if _, err := r.ReadPacked(0, 0, tt, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Steps 0..6 with ChunkSteps=3: misses at t=0,3,6, hits elsewhere.
	got := r.Counts().Sub(before)
	if got.ChunkMisses != 3 {
		t.Errorf("chunk misses = %d, want 3", got.ChunkMisses)
	}
	if got.ChunkHits != 4 {
		t.Errorf("chunk hits = %d, want 4", got.ChunkHits)
	}
	if got.StepDecodes != int64(h.Steps) {
		t.Errorf("step decodes = %d, want %d", got.StepDecodes, h.Steps)
	}
	if got.ReadBytes <= 0 {
		t.Errorf("read bytes = %d, want > 0", got.ReadBytes)
	}

	// A Series cursor counts the same pattern for the same pass, and
	// adds exactly its own counts to the reader's totals.
	before = r.Counts()
	s, err := r.Series(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for tt := 0; tt < h.Steps; tt++ {
		if _, err := s.ReadPacked(tt, nil); err != nil {
			t.Fatal(err)
		}
	}
	cursor := s.Counts()
	if cursor.ChunkMisses != 3 {
		t.Errorf("cursor chunk misses = %d, want 3", cursor.ChunkMisses)
	}
	if cursor.ChunkHits != 4 {
		t.Errorf("cursor chunk hits = %d, want 4", cursor.ChunkHits)
	}
	if cursor.StepDecodes != int64(h.Steps) {
		t.Errorf("cursor step decodes = %d, want %d", cursor.StepDecodes, h.Steps)
	}
	if total := r.Counts().Sub(before); total != cursor {
		t.Errorf("reader totals moved by %+v, want the cursor's %+v", total, cursor)
	}
}
