package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"exaclim/internal/archive"
	"exaclim/internal/sht"
	"exaclim/internal/sphere"
	"exaclim/internal/tile"
)

// TestPointSeriesDigestAcrossCommits pins a 64-step archived
// PointSeries — range decode of FP64, FP32 and FP16 bands across chunk
// boundaries, then the point evaluation — to the bytes it produced at
// the commit before the three series loops and the evaluators were
// unified (digest computed at the parent commit).
func TestPointSeriesDigestAcrossCommits(t *testing.T) {
	const want = "494b78e1e04782989562a00bf1ecbc13af91fc0b606ce4ab9024a9e10813de84"
	const L, steps = 16, 80
	var buf bytes.Buffer
	w, err := archive.NewWriter(&buf, archive.Header{
		Grid: sphere.GridForBandLimit(L), L: L,
		Members: 2, Scenarios: 2, Steps: steps, ChunkSteps: 24,
		Bands: []archive.Band{
			{Lo: 0, Hi: 4, Prec: tile.FP64},
			{Lo: 4, Hi: 10, Prec: tile.FP32},
			{Lo: 10, Hi: L, Prec: tile.FP16},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(64))
	packed := make([]float64, sht.PackDim(L))
	for s := 0; s < 2; s++ {
		for m := 0; m < 2; m++ {
			for ts := 0; ts < steps; ts++ {
				for i := range packed {
					packed[i] = rng.NormFloat64() / float64(1+sht.PackDegree(i))
				}
				if err := w.AddPacked(m, s, ts, packed); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := archive.NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(r, nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	series, err := s.PointSeries(context.Background(), 1, 1, 37.25, -122.5, 9, 73)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var b [8]byte
	for _, v := range series {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); len(series) != 64 || got != want {
		t.Fatalf("%d-step PointSeries digest %s, want 64 steps and %s: decode or evaluation changed a bit", len(series), got, want)
	}
}
