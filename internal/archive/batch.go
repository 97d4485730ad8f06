package archive

import (
	"fmt"
	"sync"

	"exaclim/internal/half"
	"exaclim/internal/sht"
	"exaclim/internal/sphere"
)

// Chunk-granular batch decode: series queries (/v1/point, /v1/points,
// /v1/box) and replay cursors iterate many consecutive steps that live
// in the same archive chunk. ReadPackedBlocks walks a step range one
// chunk at a time — coordinate checks, chunk bookkeeping and metric
// events amortize to once per chunk instead of once per step — and
// hands decodeStep a float16 lookup table that stays hot across the
// steps of a chunk. Every decoded value is bit-identical to the
// per-step ReadPacked path (pinned by TestReadPackedRangeMatchesReadPacked).

// fp16Vals is the lazily built table of every float16 bit pattern's
// float64 value (512 KiB). Direct indexing replaces the branchy
// bit-field conversion in the batch decode's inner loop; the table is
// exact by construction — each entry IS half.Float16(i).Float64() — so
// LUT decode and conversion decode agree bit for bit. It is built only
// when a batched range decode first runs: single-step decodes keep the
// arithmetic conversion, whose cache footprint is zero, because a lone
// step cannot amortize warming half a megabyte of table.
var fp16Vals struct {
	once sync.Once
	tab  *[1 << 16]float64 // an array, so a uint16 index needs no bounds check
}

func fp16Table() *[1 << 16]float64 {
	fp16Vals.once.Do(func() {
		tab := new([1 << 16]float64)
		for i := range tab {
			tab[i] = half.Float16(uint16(i)).Float64()
		}
		fp16Vals.tab = tab
	})
	return fp16Vals.tab
}

// ReadPackedRange is ReadPackedBlocks one step at a time: fn gets each
// step of [t0, t1) in ascending order as its packed coefficient vector,
// cursor-owned scratch valid only for the duration of the call.
func (s *Series) ReadPackedRange(t0, t1 int, fn func(t int, packed []float64) error) error {
	return s.ReadPackedBlocks(t0, t1, 1, func(t int, block []float64, _ int) error {
		return fn(t, block)
	})
}

// ReadPackedBlocks is the one range walk: it decodes steps [t0, t1) in
// ascending order, up to k consecutive steps at a time, back to back into
// cursor-owned scratch, and calls fn with the block's first step t, the
// n <= k packed vectors (n*Dim values, step t+i at offset i*Dim) and n.
// Consecutive steps of one chunk are served from a single chunk load
// with per-chunk (not per-step) bookkeeping, so a same-chunk range is
// substantially cheaper than t1-t0 ReadPacked calls; the decoded values
// are bit-identical to ReadPacked's. A block never spans two chunk
// loads, so one that reaches a chunk's end is shorter than k.
//
// Unlike ReadPacked, the block passed to fn is cursor-owned scratch,
// valid only for the duration of the call — copy it to retain it. A
// non-nil error from fn stops the walk and is returned; a corrupt record
// stops it after fn has seen the steps decoded before it. An empty range
// (t0 == t1) is a no-op.
//
// Counts: StepDecodes and ChunkHits/Misses count as for per-step reads,
// and every step beyond a chunk's first adds to ChunkAmortized — the
// count of decodes that skipped per-step chunk lookups because a batched
// walk kept the chunk in hand. A walk that fn (or a corrupt record)
// stops early still counts every step it decoded, the ones fn rejected
// included.
func (s *Series) ReadPackedBlocks(t0, t1, k int, fn func(t int, block []float64, n int) error) error {
	if t0 == t1 {
		return nil
	}
	if t1 < t0 || k < 1 {
		return fmt.Errorf("archive: invalid step range [%d, %d) in blocks of %d", t0, t1, k)
	}
	if err := s.r.h.checkCoord(s.member, s.scenario, t0); err != nil {
		return err
	}
	if err := s.r.h.checkCoord(s.member, s.scenario, t1-1); err != nil {
		return err
	}
	dim := s.r.dim
	if cap(s.block) < k*dim {
		s.block = make([]float64, k*dim)
	}
	f16 := fp16Table()
	cs := s.r.h.ChunkSteps
	for t := t0; t < t1; {
		c := t / cs
		if err := s.loadChunk(c); err != nil {
			return err
		}
		end := min((c+1)*cs, t1)
		var decoded int64
		var err error
		for t < end && err == nil {
			n := 0
			for ; n < k && t+n < end; n++ {
				if err = decodeStep(s.stepRecord(t+n), s.r.h.Bands, s.block[n*dim:(n+1)*dim], f16); err != nil {
					break
				}
			}
			decoded += int64(n)
			if n > 0 {
				if ferr := fn(t, s.block[:n*dim], n); ferr != nil {
					err = ferr
				}
			}
			t += n
		}
		if decoded > 0 {
			count(&s.counts.StepDecodes, &s.r.totals.stepDecodes, decoded)
			count(&s.counts.ChunkAmortized, &s.r.totals.chunkAmortized, decoded-1)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// EachField streams the fields of steps [t0, t1) through fn in step
// order over the batched range decode, reusing one decode and synthesis
// scratch set (copy the field to retain it). A non-nil error from fn
// stops the replay and is returned.
func (s *Series) EachField(t0, t1 int, fn func(t int, f sphere.Field) error) error {
	plan, err := s.ensurePlan()
	if err != nil {
		return err
	}
	field := sphere.NewField(s.r.h.Grid)
	return s.ReadPackedRange(t0, t1, func(t int, packed []float64) error {
		sht.SynthesizePacked(plan, field.Data, packed)
		return fn(t, field)
	})
}
