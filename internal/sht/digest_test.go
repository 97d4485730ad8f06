package sht

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"exaclim/internal/sphere"
)

// digest64 is the sha256 of the little-endian float64 bits of x.
func digest64(x []float64) string {
	h := sha256.New()
	var buf [8]byte
	for _, v := range x {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestSynthesizeDigestAcrossCommits pins float64 synthesis to the bytes
// it produced at the commit before the float32 fold, the calibration
// closure's copy and the call-site unpack were folded into one path
// (the PR 12/15 idiom: digests computed at the parent commit), and the
// packed entry point to the same bytes as the unpack + SynthesizeInto
// pair it replaced at five call sites.
func TestSynthesizeDigestAcrossCommits(t *testing.T) {
	want := map[int]string{
		16: "1b785ee1e5d52a6263704b6463a3e9286717160cc9ad0b5b8588678ee3071687",
		64: "fe9f54ee2dfbbcecbfca43abf2cb4188250bffd6019b522c22213764bece66a7",
	}
	for _, L := range []int{16, 64} {
		grid := sphere.GridForBandLimit(L)
		c := randomCoeffs(rand.New(rand.NewSource(int64(1000+L))), L)
		p, err := NewPlan(grid, L, WithWorkers(2))
		if err != nil {
			t.Fatal(err)
		}
		f := sphere.NewField(grid)
		p.SynthesizeInto(f, c)
		if got := digest64(f.Data); got != want[L] {
			t.Errorf("L=%d SynthesizeInto digest %s, want %s: an edit reordered the fold or the ring write", L, got, want[L])
		}
		// Packing scales by sqrt(2) and unpacking by its inverse, which is
		// not the identity in floating point, so the packed entry point is
		// held to the triangle it unpacks to rather than to c.
		packed := c.PackReal(nil)
		p.SynthesizeInto(f, UnpackReal(packed))
		g := sphere.NewField(grid)
		SynthesizePacked(p.Sequential(), g.Data, packed)
		if digest64(g.Data) != digest64(f.Data) {
			t.Errorf("L=%d: SynthesizePacked differs from UnpackReal + SynthesizeInto", L)
		}
		// The input may alias the output (the serving layer decodes into
		// the head of the grid), on the fanned-out plan too.
		clear(g.Data)
		copy(g.Data, packed)
		SynthesizePacked(p, g.Data, g.Data[:len(packed)])
		if digest64(g.Data) != digest64(f.Data) {
			t.Errorf("L=%d: SynthesizePacked with its input aliasing its output differs", L)
		}
	}
}
