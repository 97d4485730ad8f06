package serve

// Invariants of the one series loop: every /v1/points row is the
// /v1/point answer bit for bit, a request of any size holds one block of
// weight rows, and a box mean as one weight row agrees with the retired
// fold-then-gather order.

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"exaclim/internal/sht"
)

// TestPointsRowsBitIdenticalToPoint pins /v1/points row p == /v1/point
// at the same location, bit for bit: both are one accumulator over the
// packed vector in ascending index, whether the row runs alone (a plain
// dot) or in a block (the tiled product). 600 locations span three
// evaluator blocks, so the block seams are covered too.
func TestPointsRowsBitIdenticalToPoint(t *testing.T) {
	s, _ := testServer(t)
	rng := rand.New(rand.NewSource(91))
	const n, t0, t1 = 600, 5, 23
	lats, lons := make([]float64, n), make([]float64, n)
	for p := range lats {
		lats[p], lons[p] = -90+180*rng.Float64(), -180+540*rng.Float64()
	}
	lats[0], lats[1] = 90, -90 // the poles ride along
	series, err := s.PointsSeries(context.Background(), 2, 1, lats, lons, t0, t1)
	if err != nil {
		t.Fatal(err)
	}
	check := []int{0, 1, 2, evalBlockRows - 1, evalBlockRows, evalBlockRows + 1, 2*evalBlockRows - 1, 2 * evalBlockRows, n - 1}
	for p := 7; p < n; p += 41 {
		check = append(check, p)
	}
	for _, p := range check {
		want, err := s.PointSeries(context.Background(), 2, 1, lats[p], lons[p], t0, t1)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Float64bits(series[p][i]) != math.Float64bits(want[i]) {
				t.Fatalf("location %d (%g, %g) step %d: row %x, point %x", p, lats[p], lons[p], t0+i,
					math.Float64bits(series[p][i]), math.Float64bits(want[i]))
			}
		}
	}
}

// TestSeriesHoldsOneWeightBlock pins the bound on a request's weights:
// the 4096 locations /v1/points admits are evaluated in blocks of
// evalBlockRows rows, each block garbage by the time the next is built,
// so the request never holds the 4096 x L^2 matrix (16 blocks) at once.
func TestSeriesHoldsOneWeightBlock(t *testing.T) {
	s, _ := testServer(t)
	rng := rand.New(rand.NewSource(92))
	const n, t0, t1 = maxBatchPoints, 3, 7
	lats, lons := make([]float64, n), make([]float64, n)
	thetas, phis := make([]float64, n), make([]float64, n)
	for p := range lats {
		lats[p], lons[p] = -90+180*rng.Float64(), 360*rng.Float64()
		thetas[p], phis[p], _ = angles(lats[p], lons[p])
	}
	want, err := s.PointsSeries(context.Background(), 0, 0, lats, lons, t0, t1)
	if err != nil {
		t.Fatal(err)
	}

	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	base := heap()
	maxRows, blocks, peak := 0, 0, uint64(0)
	got, _, err := s.series(context.Background(), 0, 0, t0, t1, seriesQuery{
		n: n,
		rows: func(lo, hi int) *sht.Evaluator {
			maxRows, blocks = max(maxRows, hi-lo), blocks+1
			peak = max(peak, heap()) // the previous block is unreachable by now
			return sht.NewPointBatchEvaluator(fixL, thetas[lo:hi], phis[lo:hi])
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if maxRows > evalBlockRows || blocks != n/evalBlockRows {
		t.Fatalf("%d locations ran as %d blocks of up to %d rows; want %d blocks of at most %d",
			n, blocks, maxRows, n/evalBlockRows, evalBlockRows)
	}
	for p := range want {
		for i := range want[p] {
			if got[p][i] != want[p][i] {
				t.Fatalf("location %d step %d: blocked loop %g, PointsSeries %g", p, i, got[p][i], want[p][i])
			}
		}
	}
	if raceEnabled {
		return // the race detector's shadow memory inflates HeapAlloc
	}
	blockBytes := uint64(evalBlockRows * sht.PackDim(fixL) * 8)
	outBytes := uint64(n * ((t1-t0)*8 + 24))
	if grown := peak - min(peak, base); grown > outBytes+blockBytes {
		t.Fatalf("live heap grew by %d bytes between blocks; the result is %d and one block %d — earlier blocks are being retained",
			grown, outBytes, blockBytes)
	}
}

// TestBoxSeriesMatchesRingEvaluatorMean pins /v1/box — one weight row
// per box, built ring by ring before any step is decoded — against the
// area-weighted mean of the same grid points evaluated in the retired
// order (fold each ring of each step with sht.RingEvaluator, gather its
// longitudes, then weigh): <= 1e-12 of the field's scale, over boxes that
// span one ring, many rings, a pole, the date line and the full circle.
func TestBoxSeriesMatchesRingEvaluatorMean(t *testing.T) {
	s, r := testServer(t)
	g := s.Grid()
	aw := g.AreaWeights()
	boxes := []Box{
		{LatMin: -20, LatMax: 35, LonMin: 10, LonMax: 120},
		{LatMin: 60, LatMax: 90, LonMin: -30, LonMax: 30},    // north pole, wraps 0
		{LatMin: -90, LatMax: -50, LonMin: 300, LonMax: 40},  // south pole, LonMin > LonMax
		{LatMin: -1, LatMax: 1, LonMin: 0, LonMax: 360},      // one ring, full circle
		{LatMin: -90, LatMax: 90, LonMin: -180, LonMax: 180}, // the global mean
	}
	const member, scenario, t0, t1 = 1, 0, 4, 21
	for _, box := range boxes {
		got, err := s.BoxSeries(context.Background(), member, scenario, box, t0, t1)
		if err != nil {
			t.Fatalf("box %+v: %v", box, err)
		}
		rings, lons, err := boxPoints(g, box)
		if err != nil {
			t.Fatal(err)
		}
		evs := make([]*sht.RingEvaluator, len(rings))
		for k, i := range rings {
			evs[k] = sht.NewRingEvaluator(fixL, g.Colatitude(i))
		}
		for tt := t0; tt < t1; tt++ {
			packed, err := r.ReadPacked(member, scenario, tt, nil)
			if err != nil {
				t.Fatal(err)
			}
			sum, wsum, scale := 0.0, 0.0, 0.0
			for _, v := range packed {
				scale += v * v
			}
			for k, i := range rings {
				evs[k].SetPacked(packed)
				for _, j := range lons {
					sum += aw[i] * evs[k].EvalLon(g.Longitude(j))
					wsum += aw[i]
				}
			}
			want := sum / wsum
			if d := math.Abs(got[tt-t0] - want); d > 1e-12*math.Sqrt(scale) {
				t.Fatalf("box %+v step %d: one-row mean %.17g, ring evaluators %.17g (|d| = %g, field scale %g)",
					box, tt, got[tt-t0], want, d, math.Sqrt(scale))
			}
		}
	}
}
