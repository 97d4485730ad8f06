package sht

import (
	"math"
	"math/rand"
	"testing"

	"exaclim/internal/sphere"
)

// fieldScale returns the max |value| of a field, the scale the relative
// error bounds below are taken against.
func fieldScale(f sphere.Field) float64 {
	lo, hi := f.MinMax()
	return math.Max(math.Abs(lo), math.Abs(hi))
}

// TestEvalPointMatchesSynthesis is the acceptance property test: at
// every grid point of random band-limited fields, the O(L^2) point
// evaluation agrees with full grid synthesis to <= 1e-10 relative to the
// field scale, across band limits and grids.
func TestEvalPointMatchesSynthesis(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, L := range []int{1, 2, 5, 16, 33} {
		grid := sphere.GridForBandLimit(L)
		plan, err := NewPlan(grid, L)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 3; trial++ {
			c := randomCoeffs(rng, L)
			f := plan.Synthesize(c)
			scale := fieldScale(f)
			packed := c.PackReal(nil)
			for i := 0; i < grid.NLat; i++ {
				theta := grid.Colatitude(i)
				for j := 0; j < grid.NLon; j++ {
					phi := grid.Longitude(j)
					got := EvalPoint(c, theta, phi)
					want := f.At(i, j)
					if math.Abs(got-want) > 1e-10*scale {
						t.Fatalf("L=%d (%d,%d): EvalPoint=%g synthesis=%g (diff %g, scale %g)",
							L, i, j, got, want, got-want, scale)
					}
					// The packed dot-product path must agree too.
					ev := NewPointEvaluator(L, theta, phi)
					if gp := ev.EvalPacked(packed); math.Abs(gp-want) > 1e-10*scale {
						t.Fatalf("L=%d (%d,%d): EvalPacked=%g synthesis=%g", L, i, j, gp, want)
					}
				}
			}
		}
	}
}

// TestEvalPointOffGrid checks point evaluation at locations that are not
// grid samples against synthesis on a much finer grid, where the same
// band-limited field is sampled exactly (synthesis is exact on any
// supporting grid).
func TestEvalPointOffGrid(t *testing.T) {
	const L = 12
	rng := rand.New(rand.NewSource(11))
	c := randomCoeffs(rng, L)

	fine := sphere.NewGrid(8*L+1, 16*L)
	plan, err := NewPlan(fine, L)
	if err != nil {
		t.Fatal(err)
	}
	f := plan.Synthesize(c)
	scale := fieldScale(f)
	for i := 0; i < fine.NLat; i += 13 {
		for j := 0; j < fine.NLon; j += 17 {
			got := EvalPoint(c, fine.Colatitude(i), fine.Longitude(j))
			if math.Abs(got-f.At(i, j)) > 1e-10*scale {
				t.Fatalf("fine (%d,%d): EvalPoint=%g synthesis=%g", i, j, got, f.At(i, j))
			}
		}
	}
}

// TestRingEvaluatorMatchesSynthesis checks the per-ring path: SetPacked
// then EvalLon reproduces every pixel of every ring.
func TestRingEvaluatorMatchesSynthesis(t *testing.T) {
	const L = 16
	grid := sphere.GridForBandLimit(L)
	plan, err := NewPlan(grid, L)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	c := randomCoeffs(rng, L)
	f := plan.Synthesize(c)
	scale := fieldScale(f)
	packed := c.PackReal(nil)
	for i := 0; i < grid.NLat; i++ {
		ev := NewRingEvaluator(L, grid.Colatitude(i))
		ev.SetPacked(packed)
		for j := 0; j < grid.NLon; j++ {
			got := ev.EvalLon(grid.Longitude(j))
			if math.Abs(got-f.At(i, j)) > 1e-10*scale {
				t.Fatalf("ring %d lon %d: EvalLon=%g synthesis=%g", i, j, got, f.At(i, j))
			}
		}
	}
}

// TestPointEvaluatorReuse pins that one evaluator reused across many
// fields (the time-series access pattern) matches per-field EvalPoint.
func TestPointEvaluatorReuse(t *testing.T) {
	const L = 8
	rng := rand.New(rand.NewSource(5))
	ev := NewPointEvaluator(L, 1.1, 2.3)
	for trial := 0; trial < 10; trial++ {
		c := randomCoeffs(rng, L)
		want := EvalPoint(c, 1.1, 2.3)
		if got := ev.EvalPacked(c.PackReal(nil)); math.Abs(got-want) > 1e-12*(1+math.Abs(want)) {
			t.Fatalf("trial %d: packed eval %g, fresh %g", trial, got, want)
		}
	}
}
