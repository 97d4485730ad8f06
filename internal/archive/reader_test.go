package archive

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"exaclim/internal/tile"
)

// openTestArchive writes a deterministic campaign and opens a reader
// over it, returning both the reader and the original packed vectors.
func openTestArchive(t *testing.T, L int, bands []Band) (*Reader, Header, [][][][]float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(17))
	h := testHeader(L, bands)
	data := campaignData(rng, h, 10, 1.2)
	enc := writeArchive(t, h, data)
	r, err := NewReader(bytes.NewReader(enc), int64(len(enc)))
	if err != nil {
		t.Fatal(err)
	}
	return r, r.Header(), data
}

// TestSeriesCursorMatchesReader pins the Series cursor against the
// reader's shared-cache random access, across chunk boundaries, in
// forward, backward and repeated order.
func TestSeriesCursorMatchesReader(t *testing.T) {
	r, h, _ := openTestArchive(t, 8, UniformBands(8, tile.FP64))
	for s := 0; s < h.Scenarios; s++ {
		for m := 0; m < h.Members; m++ {
			cur, err := r.Series(m, s)
			if err != nil {
				t.Fatal(err)
			}
			if cur.Member() != m || cur.Scenario() != s || cur.Steps() != h.Steps {
				t.Fatalf("cursor identity %d/%d/%d, want %d/%d/%d",
					cur.Member(), cur.Scenario(), cur.Steps(), m, s, h.Steps)
			}
			for _, tt := range []int{0, 6, 3, 3, 1, 5, 2, 4, 0} {
				got, err := cur.ReadPacked(tt, nil)
				if err != nil {
					t.Fatal(err)
				}
				want, err := r.ReadPacked(m, s, tt, nil)
				if err != nil {
					t.Fatal(err)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("member %d scenario %d step %d coeff %d: %g, want %g",
							m, s, tt, i, got[i], want[i])
					}
				}
				wf, err := r.ReadField(m, s, tt)
				if err != nil {
					t.Fatal(err)
				}
				gf := wf.Copy()
				for pix := range gf.Data {
					gf.Data[pix] = 0
				}
				if err := cur.ReadFieldInto(gf, tt); err != nil {
					t.Fatal(err)
				}
				for pix := range gf.Data {
					if gf.Data[pix] != wf.Data[pix] {
						t.Fatalf("field mismatch at member %d scenario %d step %d pixel %d", m, s, tt, pix)
					}
				}
			}
		}
	}
	if _, err := r.Series(h.Members, 0); err == nil {
		t.Error("expected error for out-of-range member")
	}
	if _, err := r.Series(0, h.Scenarios); err == nil {
		t.Error("expected error for out-of-range scenario")
	}
}

// TestReadPackedNoCacheAliasing is the regression test for the chunk
// cache handing out memory that aliases internal state: coefficients
// returned by ReadPacked (reader or cursor, allocated or caller-buffer)
// must stay intact across any sequence of later reads that recycle the
// cache, including reads of other chunks and other series.
func TestReadPackedNoCacheAliasing(t *testing.T) {
	r, h, _ := openTestArchive(t, 8, UniformBands(8, tile.FP32))
	first, err := r.ReadPacked(0, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	saved := append([]float64(nil), first...)
	cur, err := r.Series(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	firstCur, err := cur.ReadPacked(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	savedCur := append([]float64(nil), firstCur...)
	// Churn every cache layer: all chunks of all series through both the
	// shared path and the originating cursor.
	for s := 0; s < h.Scenarios; s++ {
		for m := 0; m < h.Members; m++ {
			for tt := 0; tt < h.Steps; tt++ {
				if _, err := r.ReadPacked(m, s, tt, nil); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	for tt := 0; tt < h.Steps; tt++ {
		if _, err := cur.ReadPacked(tt, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := range saved {
		if first[i] != saved[i] {
			t.Fatalf("reader-decoded coefficients overwritten by later reads at index %d", i)
		}
	}
	for i := range savedCur {
		if firstCur[i] != savedCur[i] {
			t.Fatalf("cursor-decoded coefficients overwritten by later reads at index %d", i)
		}
	}
}

// TestFailedReadDoesNotPoisonCache pins the failure path of the reused
// chunk buffer: a read that fails CRC verification clobbers the buffer
// in place, so the cache entry must be invalidated — a later read of the
// previously cached chunk has to re-fetch, not decode the corrupt
// chunk's bytes under the old key.
func TestFailedReadDoesNotPoisonCache(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	h := testHeader(8, UniformBands(8, tile.FP64))
	data := campaignData(rng, h, 10, 1.2)
	enc := writeArchive(t, h, data)
	r, err := NewReader(bytes.NewReader(enc), int64(len(enc)))
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte inside chunk 1 of series (member 0,
	// scenario 0); chunk 0 stays intact.
	ref := r.index[r.h.seriesID(0, 0)][1]
	corrupt := append([]byte(nil), enc...)
	corrupt[ref.off+int64(chunkHeaderLen)+5] ^= 0xff
	r, err = NewReader(bytes.NewReader(corrupt), int64(len(corrupt)))
	if err != nil {
		t.Fatal(err)
	}
	tGood, tBad := 0, h.ChunkSteps // steps in chunk 0 and chunk 1

	check := func(read func(tt int) ([]float64, error)) {
		t.Helper()
		first, err := read(tGood)
		if err != nil {
			t.Fatal(err)
		}
		want := append([]float64(nil), first...)
		if _, err := read(tBad); err == nil {
			t.Fatal("expected CRC error reading the corrupted chunk")
		}
		again, err := read(tGood)
		if err != nil {
			t.Fatalf("re-read of intact chunk after failed read: %v", err)
		}
		for i := range want {
			if again[i] != want[i] {
				t.Fatalf("cache poisoned by failed read: coeff %d = %g, want %g", i, again[i], want[i])
			}
		}
	}
	check(func(tt int) ([]float64, error) { return r.ReadPacked(0, 0, tt, nil) })
	cur, err := r.Series(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	check(func(tt int) ([]float64, error) { return cur.ReadPacked(tt, nil) })
}

// TestReaderConcurrentAccess hammers one Reader from many goroutines —
// shared-path reads of every series interleaved with independent Series
// cursors over the same series — and checks every decode against the
// stored truth. Run with -race this pins the sharded-cache and cursor
// concurrency contracts.
func TestReaderConcurrentAccess(t *testing.T) {
	r, h, data := openTestArchive(t, 8, UniformBands(8, tile.FP64))
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			buf := make([]float64, h.Dim())
			for iter := 0; iter < 40; iter++ {
				m := rng.Intn(h.Members)
				s := rng.Intn(h.Scenarios)
				tt := rng.Intn(h.Steps)
				var got []float64
				var err error
				if iter%2 == 0 {
					got, err = r.ReadPacked(m, s, tt, buf)
				} else {
					var cur *Series
					if cur, err = r.Series(m, s); err == nil {
						got, err = cur.ReadPacked(tt, buf)
					}
				}
				if err != nil {
					errs[g] = err
					return
				}
				for i, v := range got {
					if v != data[s][m][tt][i] {
						t.Errorf("goroutine %d: member %d scenario %d step %d coeff %d: %g, want %g",
							g, m, s, tt, i, v, data[s][m][tt][i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
}

// TestWithSeriesParksBorrowedCursor pins the parked cursor's hygiene:
// a borrower attributes its own reads by the difference of the cursor's
// counts, the cursor parked is the one borrowed, chunk buffer included,
// and the next read runs on it.
func TestWithSeriesParksBorrowedCursor(t *testing.T) {
	r, h, data := openTestArchive(t, 8, UniformBands(8, tile.FP64))
	var borrowed *Series
	var walk Counts
	err := r.WithSeries(1, 0, func(cur *Series) error {
		borrowed = cur
		c0 := cur.Counts()
		err := cur.ReadPackedRange(0, h.Steps, func(int, []float64) error { return nil })
		walk = cur.Counts().Sub(c0)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if walk.StepDecodes != int64(h.Steps) {
		t.Fatalf("borrower counted %d decodes, want %d", walk.StepDecodes, h.Steps)
	}
	parked := r.idle[h.seriesID(1, 0)].Load()
	if parked != borrowed {
		t.Fatalf("parked cursor %p, want the borrowed %p", parked, borrowed)
	}
	before := parked.Counts()
	got, err := r.ReadPacked(1, 0, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != data[0][1][2][i] {
			t.Fatalf("coeff %d: %g, want %g", i, v, data[0][1][2][i])
		}
	}
	if d := parked.Counts().Sub(before); d.StepDecodes != 1 {
		t.Fatalf("a later read decoded %d steps on the parked cursor, want 1", d.StepDecodes)
	}
	if err := r.WithSeries(h.Members, 0, func(*Series) error { return nil }); err == nil {
		t.Fatal("out-of-range member did not error")
	}
}

// TestWithSeriesFailedReadDoesNotPoisonCursor is the series-path twin of
// TestFailedReadDoesNotPoisonCache: a chunk read that fails its CRC
// inside WithSeries clobbers the parked cursor's buffer, and the cursor
// parked afterwards must re-read rather than decode the corrupt bytes
// under the old chunk's key.
func TestWithSeriesFailedReadDoesNotPoisonCursor(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	h := testHeader(8, UniformBands(8, tile.FP64))
	data := campaignData(rng, h, 10, 1.2)
	enc := writeArchive(t, h, data)
	r, err := NewReader(bytes.NewReader(enc), int64(len(enc)))
	if err != nil {
		t.Fatal(err)
	}
	ref := r.index[r.h.seriesID(0, 1)][1]
	enc[ref.off+int64(chunkHeaderLen)+3] ^= 0xff // chunk 1 of (member 0, scenario 1)
	walk := func(t0, t1 int) ([][]float64, error) {
		var got [][]float64
		err := r.WithSeries(0, 1, func(cur *Series) error {
			return cur.ReadPackedBlocks(t0, t1, 2, func(_ int, block []float64, n int) error {
				for i := 0; i < n; i++ {
					got = append(got, append([]float64(nil), block[i*h.Dim():(i+1)*h.Dim()]...))
				}
				return nil
			})
		})
		return got, err
	}
	if _, err := walk(0, h.ChunkSteps); err != nil { // chunk 0 resident
		t.Fatal(err)
	}
	if got, err := walk(1, h.Steps); err == nil {
		t.Fatal("expected a CRC error walking into the corrupted chunk")
	} else if len(got) != h.ChunkSteps-1 {
		t.Fatalf("walk saw %d steps before the corrupt chunk, want %d", len(got), h.ChunkSteps-1)
	}
	got, err := walk(0, h.ChunkSteps)
	if err != nil {
		t.Fatalf("walk of the intact chunk after a failed read: %v", err)
	}
	for tt, packed := range got {
		for i, v := range packed {
			if v != data[1][0][tt][i] {
				t.Fatalf("parked cursor poisoned by failed read: step %d coeff %d = %g, want %g", tt, i, v, data[1][0][tt][i])
			}
		}
	}
}
