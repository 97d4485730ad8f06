package sht

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"exaclim/internal/linalg"
	"exaclim/internal/sphere"
)

// Every row of an Evaluator is one accumulator over the packed vector in
// ascending index, whether it runs alone (a plain dot) or beside other
// rows (the tiled product), so multi-row evaluation is pinned to
// per-point evaluation bit for bit. Against full synthesis, EvalPoint and
// the retired fold-then-gather order (RingEvaluator) the same products
// are associated differently, so those agree to <= 1e-10 of the field
// scale — the analytic-agreement bound every evaluator here is held to.

// TestPointBatchMatchesPointEvaluator compares the multi-row evaluator
// against per-point evaluation (exactly) and full synthesis at grid
// points, including both poles and repeated colatitudes, across band
// limits (L=1 exercises the degenerate constant-field case).
func TestPointBatchMatchesPointEvaluator(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, L := range []int{1, 2, 5, 16, 33} {
		grid := sphere.GridForBandLimit(L)
		plan, err := NewPlan(grid, L)
		if err != nil {
			t.Fatal(err)
		}
		c := randomCoeffs(rng, L)
		f := plan.Synthesize(c)
		scale := fieldScale(f)
		packed := c.PackReal(nil)

		var thetas, phis []float64
		var wantIJ [][2]int
		for i := 0; i < grid.NLat; i += 2 {
			for j := 0; j < grid.NLon; j += 3 {
				thetas = append(thetas, grid.Colatitude(i))
				phis = append(phis, grid.Longitude(j))
				wantIJ = append(wantIJ, [2]int{i, j})
			}
		}
		e := NewPointBatchEvaluator(L, thetas, phis)
		if e.Rows() != len(thetas) {
			t.Fatalf("L=%d: Rows=%d want %d", L, e.Rows(), len(thetas))
		}
		got := e.EvalPacked(nil, packed)
		for k, ij := range wantIJ {
			want := f.At(ij[0], ij[1])
			if math.Abs(got[k]-want) > 1e-10*scale {
				t.Fatalf("L=%d loc %d (%d,%d): batch=%g synthesis=%g (scale %g)",
					L, k, ij[0], ij[1], got[k], want, scale)
			}
			pe := NewPointEvaluator(L, thetas[k], phis[k])
			if pp := pe.EvalPacked(packed); math.Float64bits(got[k]) != math.Float64bits(pp) {
				t.Fatalf("L=%d loc %d: row of %d = %x, alone = %x", L, k, len(thetas),
					math.Float64bits(got[k]), math.Float64bits(pp))
			}
		}
	}
}

// TestPointBatchPoles pins evaluation exactly at theta = 0 and pi,
// where every m > 0 Legendre function vanishes and the field reduces to
// the zonal sum — agreement with EvalPoint must hold there too.
func TestPointBatchPoles(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for _, L := range []int{1, 2, 16} {
		c := randomCoeffs(rng, L)
		packed := c.PackReal(nil)
		thetas := []float64{0, math.Pi, 0, math.Pi}
		phis := []float64{0, 0, 2.5, -1.0} // longitude is degenerate at a pole
		e := NewPointBatchEvaluator(L, thetas, phis)
		got := e.EvalPacked(nil, packed)
		for k := range thetas {
			want := EvalPoint(c, thetas[k], phis[k])
			if math.Abs(got[k]-want) > 1e-12*(1+math.Abs(want)) {
				t.Fatalf("L=%d pole loc %d: batch=%g EvalPoint=%g", L, k, got[k], want)
			}
		}
		// At theta = 0, sin(theta) is exactly zero so every m > 0 term
		// vanishes exactly and the value is longitude-independent to the
		// bit. At theta = pi, sin(pi) is ~1.2e-16, so the residual
		// longitude dependence is at the last-ulp level.
		if got[0] != got[2] {
			t.Fatalf("L=%d: north pole value varies with longitude: %v", L, got)
		}
		if math.Abs(got[1]-got[3]) > 1e-13*(1+math.Abs(got[1])) {
			t.Fatalf("L=%d: south pole value varies with longitude: %v", L, got)
		}
	}
}

// TestPointBatchLongitudeWraparound pins that phi and phi + 2 pi k give
// the same value up to the trig recurrence's rounding.
func TestPointBatchLongitudeWraparound(t *testing.T) {
	const L = 16
	rng := rand.New(rand.NewSource(33))
	c := randomCoeffs(rng, L)
	packed := c.PackReal(nil)
	theta := 1.1
	phis := []float64{-0.3, -0.3 + 2*math.Pi, 2.5, 2.5 - 2*math.Pi}
	thetas := []float64{theta, theta, theta, theta}
	e := NewPointBatchEvaluator(L, thetas, phis)
	got := e.EvalPacked(nil, packed)
	scale := 1 + math.Abs(got[0])
	if math.Abs(got[0]-got[1]) > 1e-11*scale {
		t.Fatalf("wraparound +2pi: %g vs %g", got[0], got[1])
	}
	if math.Abs(got[2]-got[3]) > 1e-11*scale {
		t.Fatalf("wraparound -2pi: %g vs %g", got[2], got[3])
	}
}

// TestMeanEvaluatorMatchesRingEvaluator pins the one-row box mean —
// weights summed ring by ring before any field is seen — against the
// retired order, which folded each ring of each field (RingEvaluator)
// and summed the gathered longitudes: <= 1e-12 of the field scale, on a
// box of several rings including a pole ring and uneven weights.
func TestMeanEvaluatorMatchesRingEvaluator(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for _, L := range []int{1, 4, 16, 33} {
		grid := sphere.GridForBandLimit(L)
		plan, err := NewPlan(grid, L)
		if err != nil {
			t.Fatal(err)
		}
		c := randomCoeffs(rng, L)
		scale := fieldScale(plan.Synthesize(c))
		packed := c.PackReal(nil)
		var thetas, weights, phis []float64
		for j := 0; j < grid.NLon; j += 2 {
			phis = append(phis, grid.Longitude(j))
		}
		wsum := 0.0
		for i := 0; i < grid.NLat; i += max(1, grid.NLat/5) {
			thetas = append(thetas, grid.Colatitude(i))
			weights = append(weights, 0.1+rng.Float64())
			wsum += weights[len(weights)-1] * float64(len(phis))
		}
		for i := range weights {
			weights[i] /= wsum // a mean: the weights over all points sum to 1
		}
		want := 0.0
		for i, theta := range thetas {
			re := NewRingEvaluator(L, theta)
			re.SetPacked(packed)
			for _, phi := range phis {
				want += weights[i] * re.EvalLon(phi)
			}
		}
		e := NewMeanEvaluator(L, thetas, weights, phis)
		if e.Rows() != 1 {
			t.Fatalf("L=%d: mean evaluator has %d rows, want 1", L, e.Rows())
		}
		got := e.EvalPacked(nil, packed)[0]
		if d := math.Abs(got - want); d > 1e-12*scale {
			t.Fatalf("L=%d: one-row mean %g, fold-and-gather %g (|d|=%g, scale %g)", L, got, want, d, scale)
		}
	}
}

// TestEvaluatorConcurrentUse pins what replaced the retired "one
// evaluator per goroutine" contract: an Evaluator holds no per-call
// state, so goroutines sharing one get the values a lone caller gets
// (and the race detector stays quiet).
func TestEvaluatorConcurrentUse(t *testing.T) {
	const L = 16
	rng := rand.New(rand.NewSource(37))
	thetas := []float64{0.3, 0.3, 1.2, 2.9, 1.7}
	phis := []float64{0.1, 4.0, 5.5, 0.0, 3.3}
	e := NewPointBatchEvaluator(L, thetas, phis)
	steps := make([][]float64, 8)
	want := make([][]float64, len(steps))
	for i := range steps {
		steps[i] = randomCoeffs(rng, L).PackReal(nil)
		want[i] = e.EvalPacked(nil, steps[i])
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var vals []float64
			for rep := 0; rep < 50; rep++ {
				i := (g + rep) % len(steps)
				vals = e.EvalPacked(vals, steps[i])
				for p, v := range vals {
					if v != want[i][p] {
						t.Errorf("goroutine %d step %d row %d: %g, want %g", g, i, p, v, want[i][p])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestEvalBlockMatchesEvalPacked pins the step-blocked product: every
// value of EvalBlock over a block of steps is bit-identical to that
// step's own EvalPacked and to a plain ascending dot of its weight row,
// for row counts that fill and leave ragged the tile's two-by-four
// shape (one row runs the swapped product plus a dot tail) and for
// block lengths up to and past the serving layer's eight. A NaN or Inf
// in one step reaches only that step's values.
func TestEvalBlockMatchesEvalPacked(t *testing.T) {
	const L = 9
	k := PackDim(L)
	rng := rand.New(rand.NewSource(38))
	for _, rows := range []int{1, 2, 3, 5, 16, 17} {
		thetas, phis := make([]float64, rows), make([]float64, rows)
		for p := range thetas {
			thetas[p], phis[p] = math.Pi*rng.Float64(), 2*math.Pi*rng.Float64()
		}
		e := NewPointBatchEvaluator(L, thetas, phis)
		for _, steps := range []int{1, 2, 3, 7, 8, 9} {
			block := make([]float64, steps*k)
			for i := range block {
				block[i] = rng.NormFloat64()
			}
			check := func(label string, poisoned int) {
				t.Helper()
				got := e.EvalBlock(nil, block, steps)
				if len(got) != steps*rows {
					t.Fatalf("rows=%d steps=%d: %d values, want %d", rows, steps, len(got), steps*rows)
				}
				for i := 0; i < steps; i++ {
					step := block[i*k : (i+1)*k]
					alone := e.EvalPacked(nil, step)
					for p := 0; p < rows; p++ {
						v := got[i*rows+p]
						if i == poisoned {
							if !math.IsNaN(v) && !math.IsInf(v, 0) {
								t.Fatalf("%s rows=%d steps=%d: poisoned step %d row %d is finite (%g)", label, rows, steps, i, p, v)
							}
							continue
						}
						dot := linalg.Dot(e.w[p*k:(p+1)*k], step)
						if math.Float64bits(v) != math.Float64bits(alone[p]) || math.Float64bits(v) != math.Float64bits(dot) {
							t.Fatalf("%s rows=%d steps=%d step %d row %d: block %x, EvalPacked %x, dot %x",
								label, rows, steps, i, p, math.Float64bits(v), math.Float64bits(alone[p]), math.Float64bits(dot))
						}
					}
				}
			}
			check("clean", -1)
			bad := rng.Intn(steps)
			block[bad*k+rng.Intn(k)] = math.NaN()
			check("NaN", bad)
			block[bad*k+rng.Intn(k)] = math.Inf(1)
			check("NaN+Inf", bad)
			clear(block[bad*k : (bad+1)*k])
			block[bad*k+rng.Intn(k)] = math.Inf(-1)
			check("Inf", bad)
		}
	}
}

// BenchmarkSHT_EvalBlock prices one evaluator product at L=64 per step,
// for one row (a point or a box mean), the 16 scattered locations of a
// /v1/points request and an 8 x 8 grid, one step at a time against the
// serving layer's blocks of eight.
func BenchmarkSHT_EvalBlock(b *testing.B) {
	const L = 64
	k := PackDim(L)
	rng := rand.New(rand.NewSource(39))
	for _, rows := range []int{1, 16, 64} {
		thetas, phis := make([]float64, rows), make([]float64, rows)
		for p := range thetas {
			thetas[p], phis[p] = math.Pi*rng.Float64(), 2*math.Pi*rng.Float64()
		}
		e := NewPointBatchEvaluator(L, thetas, phis)
		for _, steps := range []int{1, 8} {
			block := make([]float64, steps*k)
			for i := range block {
				block[i] = rng.NormFloat64()
			}
			dst := make([]float64, steps*rows)
			b.Run(fmt.Sprintf("rows%d/steps%d", rows, steps), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					dst = e.EvalBlock(dst, block, steps)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N*steps), "us/step")
			})
		}
	}
}
