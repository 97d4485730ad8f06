package archive

import (
	"math"
	"sync"
	"testing"

	"exaclim/internal/half"
	"exaclim/internal/sphere"
	"exaclim/internal/tile"
)

// mixedBands is the three-precision layout the batch decode must cover:
// every branch of decodeStep, including the FP16 lookup table.
func mixedBands(L int) []Band {
	return []Band{{0, 2, tile.FP64}, {2, L / 2, tile.FP32}, {L / 2, L, tile.FP16}}
}

// TestFP16TableExact pins the lookup table against the arithmetic
// conversion for every one of the 65536 float16 bit patterns — the
// invariant that makes LUT decode and per-step decode byte-identical.
func TestFP16TableExact(t *testing.T) {
	tab := fp16Table()
	if len(tab) != 1<<16 {
		t.Fatalf("table has %d entries, want %d", len(tab), 1<<16)
	}
	for i := 0; i < 1<<16; i++ {
		want := half.Float16(uint16(i)).Float64()
		if math.Float64bits(tab[i]) != math.Float64bits(want) {
			t.Fatalf("bits %#04x: table %v (%x) != conversion %v (%x)",
				i, tab[i], math.Float64bits(tab[i]), want, math.Float64bits(want))
		}
	}
}

// TestReadPackedRangeMatchesReadPacked pins the batch decode against
// the single-step path bit for bit, over ranges that cover chunk
// interiors, chunk boundaries, the short final chunk, single steps and
// the empty range, on a mixed FP64/FP32/FP16 band layout.
func TestReadPackedRangeMatchesReadPacked(t *testing.T) {
	const L = 8
	r, h, _ := openTestArchive(t, L, mixedBands(L))
	want := make([][]float64, h.Steps)
	ref, err := r.Series(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for tt := 0; tt < h.Steps; tt++ {
		want[tt], err = ref.ReadPacked(tt, nil)
		if err != nil {
			t.Fatal(err)
		}
	}
	// Steps=7, ChunkSteps=3: [0,7) crosses all three chunks, [1,5) both
	// boundaries mid-chunk, [6,7) is the short final chunk alone.
	for _, rg := range [][2]int{{0, 7}, {1, 5}, {3, 6}, {6, 7}, {4, 5}, {2, 2}} {
		s, err := r.Series(1, 0)
		if err != nil {
			t.Fatal(err)
		}
		seen := rg[0]
		err = s.ReadPackedRange(rg[0], rg[1], func(tt int, packed []float64) error {
			if tt != seen {
				t.Fatalf("range %v: got step %d, want %d", rg, tt, seen)
			}
			seen++
			for i := range packed {
				if math.Float64bits(packed[i]) != math.Float64bits(want[tt][i]) {
					t.Fatalf("range %v step %d coeff %d: batch %x != per-step %x",
						rg, tt, i, math.Float64bits(packed[i]), math.Float64bits(want[tt][i]))
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if seen != rg[1] {
			t.Fatalf("range %v: visited up to %d", rg, seen)
		}
	}
	// A warm cursor alternating between per-step and range reads stays
	// consistent (shared chunk cache state).
	s, err := r.Series(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.ReadPacked(4, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.ReadPackedRange(3, 6, func(tt int, packed []float64) error {
		for i := range packed {
			if packed[i] != want[tt][i] {
				t.Fatalf("warm cursor step %d coeff %d differs", tt, i)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestReadPackedRangeErrors pins the error contract: inverted and
// out-of-bounds ranges fail up front, and an fn error stops the walk.
func TestReadPackedRangeErrors(t *testing.T) {
	const L = 8
	r, h, _ := openTestArchive(t, L, mixedBands(L))
	s, err := r.Series(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ReadPackedRange(3, 2, nil); err == nil {
		t.Fatal("inverted range did not error")
	}
	if err := s.ReadPackedRange(-1, 2, nil); err == nil {
		t.Fatal("negative start did not error")
	}
	if err := s.ReadPackedRange(0, h.Steps+1, nil); err == nil {
		t.Fatal("past-the-end range did not error")
	}
	calls := 0
	errStop := errTest("stop")
	if err := s.ReadPackedRange(0, h.Steps, func(tt int, _ []float64) error {
		calls++
		if tt == 2 {
			return errStop
		}
		return nil
	}); err != errStop {
		t.Fatalf("fn error not propagated: %v", err)
	}
	if calls != 3 {
		t.Fatalf("fn called %d times after early stop, want 3", calls)
	}
}

type errTest string

func (e errTest) Error() string { return string(e) }

// TestReadPackedRangeObserves pins the amortization accounting: a full
// series walk loads each chunk once and reports one amortized decode
// per step beyond each chunk's first.
func TestReadPackedRangeObserves(t *testing.T) {
	const L = 8
	r, h, _ := openTestArchive(t, L, mixedBands(L))
	s, err := r.Series(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ReadPackedRange(0, h.Steps, func(int, []float64) error { return nil }); err != nil {
		t.Fatal(err)
	}
	// Steps=7 in chunks of 3/3/1: three chunk loads, 7 decodes, and
	// (3-1)+(3-1)+(1-1) = 4 amortized steps.
	got := s.Counts()
	if got.ChunkMisses != 3 {
		t.Errorf("chunk misses = %d, want 3", got.ChunkMisses)
	}
	if got.ChunkHits != 0 {
		t.Errorf("chunk hits = %d, want 0", got.ChunkHits)
	}
	if got.StepDecodes != 7 {
		t.Errorf("step decodes = %d, want 7", got.StepDecodes)
	}
	if got.ChunkAmortized != 4 {
		t.Errorf("chunk amortized = %d, want 4", got.ChunkAmortized)
	}
	if got.ReadBytes <= 0 {
		t.Errorf("read bytes = %d, want > 0", got.ReadBytes)
	}
}

// TestReadPackedRangeCountsAbandonedWalk pins the accounting of a walk
// its callback abandons (a cancelled request): the steps decoded before
// the stop — the one handed to the failing call included — are counted,
// on the cursor and in the reader's totals alike. Before the fix the early
// return skipped the whole chunk's count, so a series cancelled mid-chunk
// under-reported by up to ChunkSteps decodes.
func TestReadPackedRangeCountsAbandonedWalk(t *testing.T) {
	const L = 8
	r, h, _ := openTestArchive(t, L, mixedBands(L))
	before := r.Counts()
	s, err := r.Series(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	cancelled := errTest("cancelled")
	// Chunks of 3: stopping at step 4 abandons the second chunk after its
	// second step. Decoded: 0 1 2 | 3 4.
	err = s.ReadPackedRange(0, h.Steps, func(tt int, _ []float64) error {
		if tt == 4 {
			return cancelled
		}
		return nil
	})
	if err != cancelled {
		t.Fatalf("walk returned %v, want the callback's error", err)
	}
	for name, c := range map[string]Counts{"cursor": s.Counts(), "reader": r.Counts().Sub(before)} {
		if c.StepDecodes != 5 {
			t.Errorf("%s: step decodes = %d, want 5", name, c.StepDecodes)
		}
		if c.ChunkAmortized != 3 {
			t.Errorf("%s: chunk amortized = %d, want (3-1)+(2-1) = 3", name, c.ChunkAmortized)
		}
		if c.ChunkMisses != 2 {
			t.Errorf("%s: chunk misses = %d, want 2", name, c.ChunkMisses)
		}
	}
}

// TestSeriesEachFieldMatchesReadFieldInto pins the batched field replay
// against per-step synthesis: same plan tables, same decode values, so
// the fields must be bit-identical.
func TestSeriesEachFieldMatchesReadFieldInto(t *testing.T) {
	const L = 8
	r, h, _ := openTestArchive(t, L, mixedBands(L))
	ref, err := r.Series(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]sphere.Field, h.Steps)
	for tt := 0; tt < h.Steps; tt++ {
		want[tt] = sphere.NewField(h.Grid)
		if err := ref.ReadFieldInto(want[tt], tt); err != nil {
			t.Fatal(err)
		}
	}
	s, err := r.Series(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	if err := s.EachField(0, h.Steps, func(tt int, f sphere.Field) error {
		steps++
		for i := range f.Data {
			if math.Float64bits(f.Data[i]) != math.Float64bits(want[tt].Data[i]) {
				t.Fatalf("step %d pixel %d: batched field differs", tt, i)
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if steps != h.Steps {
		t.Fatalf("visited %d steps, want %d", steps, h.Steps)
	}
}

// TestReadPackedRangeConcurrent is the -race hammer: many goroutines
// walk the same series through independent cursors — batch ranges,
// per-step cursor reads, and shared-shard Reader reads — all of which
// must agree byte for byte with no data races.
func TestReadPackedRangeConcurrent(t *testing.T) {
	const L = 8
	r, h, _ := openTestArchive(t, L, mixedBands(L))
	ref, err := r.Series(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]float64, h.Steps)
	for tt := 0; tt < h.Steps; tt++ {
		want[tt], err = ref.ReadPacked(tt, nil)
		if err != nil {
			t.Fatal(err)
		}
	}
	const goroutines = 12
	const rounds = 20
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			check := func(tt int, packed []float64) error {
				for i := range packed {
					if math.Float64bits(packed[i]) != math.Float64bits(want[tt][i]) {
						t.Errorf("goroutine %d step %d coeff %d differs", g, tt, i)
					}
				}
				return nil
			}
			switch g % 3 {
			case 0: // batched range walks on a private cursor
				s, err := r.Series(0, 0)
				if err != nil {
					errs[g] = err
					return
				}
				for i := 0; i < rounds; i++ {
					lo := (g + i) % h.Steps
					hi := h.Steps - (i % 2)
					if lo > hi {
						lo, hi = hi, lo
					}
					if err := s.ReadPackedRange(lo, hi, check); err != nil {
						errs[g] = err
						return
					}
				}
			case 1: // per-step reads on a private cursor
				s, err := r.Series(0, 0)
				if err != nil {
					errs[g] = err
					return
				}
				var buf []float64
				for i := 0; i < rounds; i++ {
					for tt := 0; tt < h.Steps; tt++ {
						buf, err = s.ReadPacked(tt, buf)
						if err != nil {
							errs[g] = err
							return
						}
						if err := check(tt, buf); err != nil {
							return
						}
					}
				}
			default: // shared-shard reader reads
				var buf []float64
				var err error
				for i := 0; i < rounds; i++ {
					for tt := h.Steps - 1; tt >= 0; tt-- {
						buf, err = r.ReadPacked(0, 0, tt, buf)
						if err != nil {
							errs[g] = err
							return
						}
						if err := check(tt, buf); err != nil {
							return
						}
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

// TestReadPackedBlocksMatchesReadPacked pins the block walk (its
// one-step form is TestReadPackedRangeMatchesReadPacked's): for block
// lengths from two steps to more than a chunk, every step of every block
// is the per-step decode bit for bit, blocks arrive in order with the
// documented layout, no block spans a chunk seam, and a block stops
// short only at a chunk's end or the range's.
func TestReadPackedBlocksMatchesReadPacked(t *testing.T) {
	const L = 8
	r, h, _ := openTestArchive(t, L, mixedBands(L))
	want := make([][]float64, h.Steps)
	for tt := range want {
		var err error
		if want[tt], err = r.ReadPacked(0, 1, tt, nil); err != nil {
			t.Fatal(err)
		}
	}
	dim := h.Dim()
	for _, k := range []int{2, 3, 5} {
		for _, rg := range [][2]int{{0, 7}, {1, 5}, {2, 4}, {4, 5}, {5, 7}} {
			s, err := r.Series(0, 1)
			if err != nil {
				t.Fatal(err)
			}
			seen := rg[0]
			err = s.ReadPackedBlocks(rg[0], rg[1], k, func(t0 int, block []float64, n int) error {
				if t0 != seen || n < 1 || n > k || len(block) != n*dim {
					t.Fatalf("k=%d range %v: block at %d of %d steps (%d values), want it at %d", k, rg, t0, n, len(block), seen)
				}
				if last := t0 + n - 1; last/h.ChunkSteps != t0/h.ChunkSteps {
					t.Fatalf("k=%d range %v: block [%d, %d] spans a chunk seam", k, rg, t0, last)
				}
				if end := t0 + n; n < k && end != rg[1] && end%h.ChunkSteps != 0 {
					t.Fatalf("k=%d range %v: block [%d, %d) stops short mid-chunk", k, rg, t0, end)
				}
				for i := 0; i < n; i++ {
					for j, v := range block[i*dim : (i+1)*dim] {
						if math.Float64bits(v) != math.Float64bits(want[t0+i][j]) {
							t.Fatalf("k=%d step %d coeff %d: block %x != per-step %x", k, t0+i, j,
								math.Float64bits(v), math.Float64bits(want[t0+i][j]))
						}
					}
				}
				seen += n
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if seen != rg[1] {
				t.Fatalf("k=%d range %v: visited up to %d", k, rg, seen)
			}
		}
	}
	s, err := r.Series(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.ReadPackedBlocks(0, 2, 0, nil); err == nil {
		t.Fatal("blocks of zero steps did not error")
	}
}
