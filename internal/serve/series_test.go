package serve

// Invariants of the one series loop: every /v1/points row is the
// /v1/point answer bit for bit, a request of any size holds one block of
// weight rows, a block of decoded steps answers as each step alone, the
// borrowed cursor carries nothing from one request to the next, and a
// box mean as one weight row agrees with the retired fold-then-gather
// order.

import (
	"bytes"
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"exaclim/internal/archive"
	"exaclim/internal/obs/trace"
	"exaclim/internal/sht"
	"exaclim/internal/sphere"
	"exaclim/internal/tile"
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

// TestSeriesBlocksAcrossChunkSeams pins the step-blocked walk against
// one EvalPacked per step over Reader.ReadPacked, bit for bit, for
// /v1/point, /v1/points and /v1/box. The archive's chunks hold 16 steps
// and a block holds evalSteps, so the ranges start and end mid-chunk and
// mid-block, cross one and two chunk seams, and include ranges shorter
// than a block and a single step.
func TestSeriesBlocksAcrossChunkSeams(t *testing.T) {
	s, r := testServer(t)
	g := s.Grid()
	lats := []float64{12.5, -80, 90, 33.3, -7}
	lons := []float64{200, 10, 0, -45, 359}
	thetas, phis := make([]float64, len(lats)), make([]float64, len(lats))
	for p := range lats {
		thetas[p], phis[p], _ = angles(lats[p], lons[p])
	}
	points := sht.NewPointBatchEvaluator(fixL, thetas, phis)
	box := Box{LatMin: -30, LatMax: 45, LonMin: 300, LonMax: 60}
	rings, boxLons, err := boxPoints(g, box)
	if err != nil {
		t.Fatal(err)
	}
	aw := g.AreaWeights()
	wsum := 0.0
	for _, i := range rings {
		wsum += aw[i] * float64(len(boxLons))
	}
	rt, rw := make([]float64, len(rings)), make([]float64, len(rings))
	for k, i := range rings {
		rt[k], rw[k] = g.Colatitude(i), aw[i]/wsum
	}
	bp := make([]float64, len(boxLons))
	for k, j := range boxLons {
		bp[k] = g.Longitude(j)
	}
	mean := sht.NewMeanEvaluator(fixL, rt, rw, bp)
	const member, scenario = 2, 0
	ranges := [][2]int{{3, 5}, {9, 10}, {13, 19}, {5, 30}, {15, 33}, {1, 39}, {0, fixSteps}, {16, 24}}
	for _, rg := range ranges {
		t0, t1 := rg[0], rg[1]
		ctx := context.Background()
		pts, err := s.PointsSeries(ctx, member, scenario, lats, lons, t0, t1)
		if err != nil {
			t.Fatal(err)
		}
		boxes, err := s.BoxSeries(ctx, member, scenario, box, t0, t1)
		if err != nil {
			t.Fatal(err)
		}
		pt, err := s.PointSeries(ctx, member, scenario, lats[0], lons[0], t0, t1)
		if err != nil {
			t.Fatal(err)
		}
		same := func(what string, tt int, got, want float64) {
			t.Helper()
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("range %v step %d %s: blocked %x, per step %x", rg, tt, what, math.Float64bits(got), math.Float64bits(want))
			}
		}
		for tt := t0; tt < t1; tt++ {
			packed, err := r.ReadPacked(member, scenario, tt, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := points.EvalPacked(nil, packed)
			for p := range lats {
				same("points row", tt, pts[p][tt-t0], want[p])
			}
			alone := sht.NewPointBatchEvaluator(fixL, thetas[:1], phis[:1]).EvalPacked(nil, packed)
			same("point", tt, pt[tt-t0], alone[0])
			same("box", tt, boxes[tt-t0], mean.EvalPacked(nil, packed)[0])
		}
	}
}

// TestSeriesCursorUnhookedAfterRequest pins the borrowed cursor's
// hygiene across requests: a traced request's cursorStats, hooked onto
// the series' parked cursor for its decode span, must not move once the
// request has returned, while untraced series and per-step reads on the
// same (member, scenario) borrow that cursor from other goroutines —
// under -race, a hand-over through the parking slot that is not
// synchronized is reported.
func TestSeriesCursorUnhookedAfterRequest(t *testing.T) {
	s, r := testServer(t)
	const member, scenario, t0, t1 = 1, 1, 2, 37
	_, root := trace.New("test", trace.Options{})
	info := &requestInfo{span: root}
	traced := context.WithValue(context.Background(), requestInfoKey{}, info)
	if _, err := s.PointSeries(traced, member, scenario, 20, 30, t0, t1); err != nil {
		t.Fatal(err)
	}
	first := info.cursor
	if first.decodes != t1-t0 || first.chunkMisses == 0 {
		t.Fatalf("traced request's cursor stats %+v: want %d decodes and a chunk read", first, t1-t0)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := s.BoxSeries(context.Background(), member, scenario, Box{LatMin: 0, LatMax: 40, LonMin: 0, LonMax: 90}, 0, fixSteps); err != nil {
				t.Error(err)
			}
			if _, err := r.ReadPacked(member, scenario, 5, nil); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if info.cursor != first {
		t.Fatalf("finished request's cursor stats moved from %+v to %+v", first, info.cursor)
	}
	// The same request again counts only its own walk.
	again := &requestInfo{span: root}
	if _, err := s.PointSeries(context.WithValue(context.Background(), requestInfoKey{}, again), member, scenario, 20, 30, t0, t1); err != nil {
		t.Fatal(err)
	}
	if again.cursor.decodes != t1-t0 {
		t.Fatalf("second traced request counted %d decodes, want %d", again.cursor.decodes, t1-t0)
	}
}

// decodeCounter is an obs.Sink counting archive step decodes.
type decodeCounter struct{ n atomic.Int64 }

func (c *decodeCounter) Add(metric string, delta int64) {
	if metric == archive.MetricStepDecodes {
		c.n.Add(delta)
	}
}

// cancelAfter is a context whose Err reports cancellation from its
// (after+1)-th call on, so a test can cancel a walk between two blocks.
type cancelAfter struct {
	context.Context
	after int64
	calls atomic.Int64
}

func (c *cancelAfter) Err() error {
	if c.calls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

// TestSeriesCancelStopsWithinOneBlock pins prompt cancellation of an
// archived series: a 512-step walk on a cancelled context returns
// context.Canceled having decoded at most one block, and a walk
// cancelled between blocks decodes at most one block past the last check
// that let it continue.
func TestSeriesCancelStopsWithinOneBlock(t *testing.T) {
	const L, steps = 8, 512
	var buf bytes.Buffer
	w, err := archive.NewWriter(&buf, archive.Header{
		Grid: sphere.GridForBandLimit(L), L: L,
		Members: 1, Scenarios: 1, Steps: steps, ChunkSteps: 32,
		Bands: []archive.Band{{Lo: 0, Hi: L, Prec: tile.FP32}},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(93))
	packed := make([]float64, sht.PackDim(L))
	for tt := 0; tt < steps; tt++ {
		for i := range packed {
			packed[i] = rng.NormFloat64()
		}
		if err := w.AddPacked(0, 0, tt, packed); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := archive.NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(r, nil, Config{CacheBytes: fixCacheCap})
	if err != nil {
		t.Fatal(err)
	}
	decodes := &decodeCounter{}
	r.SetObserver(decodes)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.PointsSeries(ctx, 0, 0, []float64{10, -40}, []float64{5, 100}, 0, steps); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled series: err = %v, want context.Canceled", err)
	}
	if n := decodes.n.Load(); n > evalSteps {
		t.Fatalf("cancelled series decoded %d steps, want at most %d", n, evalSteps)
	}

	for _, after := range []int64{1, 5} {
		before := decodes.n.Load()
		ctx := &cancelAfter{Context: context.Background(), after: after}
		if _, err := s.PointSeries(ctx, 0, 0, 10, 5, 0, steps); !errors.Is(err, context.Canceled) {
			t.Fatalf("series cancelled after %d checks: err = %v, want context.Canceled", after, err)
		}
		if n := decodes.n.Load() - before; n > (after+1)*evalSteps {
			t.Fatalf("series cancelled after %d checks decoded %d steps, want at most %d", after, n, (after+1)*evalSteps)
		}
	}
}
