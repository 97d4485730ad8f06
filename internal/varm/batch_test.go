package varm

import (
	"math"
	"math/rand"
	"testing"

	"exaclim/internal/linalg"
)

// simulateOne runs a one-chain SimulateBatch on rng — the one-member
// case the serial emulation path is — handing emit the chain's state.
func simulateOne(m *Model, v *linalg.Matrix, rng *rand.Rand, burn, steps int, emit func(t int, f []float64)) {
	m.SimulateBatch(v, []*rand.Rand{rng}, burn, steps, func(tt int, states *linalg.Matrix) {
		emit(tt, states.Data)
	})
}

// TestSimulateBatchMatchesSerial pins the contract that makes one engine
// serve both ensembles and single members: column c of every state matrix
// an M-chain run emits must be byte-identical to a one-chain run on
// rngs[c] (the 2 x 4 tile product against the matrix-vector kernel).
func TestSimulateBatchMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	dim, P, members, burn, steps := 23, 3, 5, 17, 12
	m := &Model{P: P, Dim: dim, Phi: make([][]float64, P)}
	for p := range m.Phi {
		m.Phi[p] = make([]float64, dim)
		for d := range m.Phi[p] {
			m.Phi[p][d] = 0.3 * rng.NormFloat64() / float64(p+1)
		}
	}
	v := lowerFactor(rng, dim)

	serial := make([][][]float64, members)
	for c := 0; c < members; c++ {
		serial[c] = make([][]float64, steps)
		simulateOne(m, v, rand.New(rand.NewSource(int64(c+1))), burn, steps, func(tt int, f []float64) {
			serial[c][tt] = append([]float64(nil), f...)
		})
	}

	rngs := make([]*rand.Rand, members)
	for c := range rngs {
		rngs[c] = rand.New(rand.NewSource(int64(c + 1)))
	}
	emitted := 0
	m.SimulateBatch(v, rngs, burn, steps, func(tt int, states *linalg.Matrix) {
		if states.Rows != dim || states.Cols != members {
			t.Fatalf("state matrix is %dx%d, want %dx%d", states.Rows, states.Cols, dim, members)
		}
		for c := 0; c < members; c++ {
			for d := 0; d < dim; d++ {
				got, want := states.At(d, c), serial[c][tt][d]
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("step %d member %d dim %d: batch %x, one-chain %x",
						tt, c, d, math.Float64bits(got), math.Float64bits(want))
				}
			}
		}
		emitted++
	})
	if emitted != steps {
		t.Fatalf("emitted %d steps, want %d", emitted, steps)
	}
}

// TestSimulateBatchInterleavedDraws checks the RNG handoff the emulator
// uses: drawing from a chain's RNG inside emit (nugget noise) must leave
// column c of an M-chain run identical to a one-chain run on rngs[c] that
// interleaves the same draws.
func TestSimulateBatchInterleavedDraws(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	dim, P, members, burn, steps, extra := 8, 2, 3, 6, 9, 5
	m := &Model{P: P, Dim: dim, Phi: make([][]float64, P)}
	for p := range m.Phi {
		m.Phi[p] = make([]float64, dim)
		for d := range m.Phi[p] {
			m.Phi[p][d] = 0.25 * rng.NormFloat64()
		}
	}
	v := lowerFactor(rng, dim)

	type record struct {
		state []float64
		noise []float64
	}
	serial := make([][]record, members)
	for c := 0; c < members; c++ {
		serial[c] = make([]record, steps)
		r := rand.New(rand.NewSource(int64(100 + c)))
		simulateOne(m, v, r, burn, steps, func(tt int, f []float64) {
			rec := record{state: append([]float64(nil), f...), noise: make([]float64, extra)}
			for i := range rec.noise {
				rec.noise[i] = r.NormFloat64()
			}
			serial[c][tt] = rec
		})
	}

	rngs := make([]*rand.Rand, members)
	for c := range rngs {
		rngs[c] = rand.New(rand.NewSource(int64(100 + c)))
	}
	m.SimulateBatch(v, rngs, burn, steps, func(tt int, states *linalg.Matrix) {
		for c := 0; c < members; c++ {
			for d := 0; d < dim; d++ {
				if math.Float64bits(states.At(d, c)) != math.Float64bits(serial[c][tt].state[d]) {
					t.Fatalf("step %d member %d: state diverged with interleaved draws", tt, c)
				}
			}
			for i := 0; i < extra; i++ {
				got := rngs[c].NormFloat64()
				if math.Float64bits(got) != math.Float64bits(serial[c][tt].noise[i]) {
					t.Fatalf("step %d member %d: interleaved draw %d diverged", tt, c, i)
				}
			}
		}
	})
}

func TestSimulateBatchEmpty(t *testing.T) {
	m := &Model{P: 1, Dim: 2, Phi: [][]float64{{0.5, 0.5}}}
	v := linalg.Eye(2)
	m.SimulateBatch(v, nil, 3, 3, func(tt int, states *linalg.Matrix) {
		t.Fatal("emit called with zero members")
	})
}
