// Package varm models the temporal dependence of the spherical harmonic
// coefficients with a vector autoregression of order P whose coefficient
// matrices are diagonal (Section III-A3 of the paper): every coefficient
// evolves as an independent AR(P) process, while the innovation vector xi
// carries the full cross-covariance U, estimated empirically (eq. 9) and
// factorized by the (mixed-precision) Cholesky solver. Generation runs
// through one engine, SimulateBatch: an ensemble advances as the columns
// of one state matrix, and one member is one column.
package varm

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"exaclim/internal/linalg"
	"exaclim/internal/par"
)

// Model is a fitted diagonal VAR(P).
type Model struct {
	P   int
	Dim int
	// Phi[p][d] is the lag-(p+1) coefficient of dimension d.
	Phi [][]float64
}

// Fit estimates per-dimension AR(P) coefficients from one or more series
// (ensemble members), each a slice of T vectors of equal dimension, by
// least squares pooled across members. Coefficient vectors whose AR
// polynomial is not safely stable are shrunk so that emulation cannot
// diverge (sum |phi_p| <= 0.98; a sufficient stationarity condition).
func Fit(series [][][]float64, P int, workers int) (*Model, error) {
	if P < 1 {
		return nil, fmt.Errorf("varm: order %d must be >= 1", P)
	}
	if len(series) == 0 || len(series[0]) == 0 {
		return nil, errors.New("varm: empty series")
	}
	dim := len(series[0][0])
	for r := range series {
		if len(series[r]) <= P {
			return nil, fmt.Errorf("varm: member %d has %d steps, need > P=%d", r, len(series[r]), P)
		}
		for t := range series[r] {
			if len(series[r][t]) != dim {
				return nil, fmt.Errorf("varm: ragged series at member %d step %d", r, t)
			}
		}
	}
	m := &Model{P: P, Dim: dim, Phi: make([][]float64, P)}
	for p := 0; p < P; p++ {
		m.Phi[p] = make([]float64, dim)
	}

	par.ForN(workers, dim, func(d int) {
		// Normal equations for AR(P) at dimension d, pooled over members:
		// G phi = g with G[p][q] = sum f_{t-p-1} f_{t-q-1},
		// g[p] = sum f_t f_{t-p-1}.
		g := linalg.NewMatrix(P, P)
		rhs := make([]float64, P)
		for r := range series {
			s := series[r]
			for t := P; t < len(s); t++ {
				ft := s[t][d]
				for p := 0; p < P; p++ {
					fp := s[t-p-1][d]
					rhs[p] += ft * fp
					for q := p; q < P; q++ {
						g.Data[q*P+p] += fp * s[t-q-1][d]
					}
				}
			}
		}
		g.SymmetrizeFromLower()
		// Tiny ridge: silent dimensions (zero coefficients at high
		// degrees) otherwise make G singular.
		scale := 0.0
		for p := 0; p < P; p++ {
			scale += g.At(p, p)
		}
		g.AddDiagonal(1e-10*scale + 1e-300)
		phi := append([]float64(nil), rhs...)
		if err := g.Cholesky(); err == nil {
			linalg.CholSolve(P, g.Data, P, phi)
		} else {
			for p := range phi {
				phi[p] = 0
			}
		}
		// Stability guard.
		sum := 0.0
		for _, v := range phi {
			sum += math.Abs(v)
		}
		if sum > 0.98 {
			f := 0.98 / sum
			for p := range phi {
				phi[p] *= f
			}
		}
		for p := 0; p < P; p++ {
			m.Phi[p][d] = phi[p]
		}
	})
	return m, nil
}

// Residuals returns the innovation series xi_t = f_t - sum_p Phi_p f_{t-p}
// for one member, dropping the first P steps.
func (m *Model) Residuals(s [][]float64) [][]float64 {
	out := make([][]float64, 0, len(s)-m.P)
	for t := m.P; t < len(s); t++ {
		xi := make([]float64, m.Dim)
		copy(xi, s[t])
		for p := 0; p < m.P; p++ {
			phi := m.Phi[p]
			prev := s[t-p-1]
			for d := 0; d < m.Dim; d++ {
				xi[d] -= phi[d] * prev[d]
			}
		}
		out = append(out, xi)
	}
	return out
}

// EmpiricalCovariance evaluates eq. (9): U = sum_r sum_t xi xi^T /
// (R (T - P)), accumulated with SYRK over the stacked residual matrix.
// The result is symmetric with both triangles filled.
func EmpiricalCovariance(residuals [][][]float64) (*linalg.Matrix, error) {
	if len(residuals) == 0 || len(residuals[0]) == 0 {
		return nil, errors.New("varm: no residuals")
	}
	dim := len(residuals[0][0])
	n := 0
	for _, r := range residuals {
		n += len(r)
	}
	// Stack into an n x dim matrix and SYRK-transpose it.
	stacked := linalg.NewMatrix(n, dim)
	row := 0
	for _, r := range residuals {
		for _, xi := range r {
			if len(xi) != dim {
				return nil, errors.New("varm: ragged residuals")
			}
			copy(stacked.Row(row), xi)
			row++
		}
	}
	u := linalg.NewMatrix(dim, dim)
	linalg.Syrk(linalg.Transpose, dim, n, 1/float64(n), stacked.Data, dim, 0.0, u.Data, dim)
	u.SymmetrizeFromLower()
	return u, nil
}

// Jitter adds the paper's "minor perturbation along the diagonal" when
// the empirical covariance is rank-deficient (R(T-P) < dim) or nearly so:
// U += eps * mean(diag(U)) * I. It returns the applied absolute jitter.
func Jitter(u *linalg.Matrix, eps float64) float64 {
	n := u.Rows
	meanDiag := 0.0
	for i := 0; i < n; i++ {
		meanDiag += u.At(i, i)
	}
	meanDiag /= float64(n)
	j := eps * meanDiag
	u.AddDiagonal(j)
	return j
}

// SimulateBatch runs the VAR forward from zero initial state — the
// emulation core of Section III-B — for M = len(rngs) independent chains
// in lockstep: a Dim x M state matrix (chain c in column c) advances with
// one lower-triangular product xi = V eta per step, burnIn steps are
// discarded, and emit receives every kept state matrix. It is the only VAR
// recursion: one chain is the one-column case, whose product runs on V
// packed once for the run (linalg.LowerPanels; the pack costs about ten
// packed steps, and the emulator's burn-in alone is 10P + 50). Chain c
// draws its innovations from rngs[c] in ascending dimension order and both
// products accumulate every column in the same order, so column c of every
// emitted state matrix is bitwise identical to a one-chain run on rngs[c].
// emit receives the shared state matrix, reused for the next step: copy
// (or fully consume) it before returning. rngs[c] must not be touched by
// another goroutine while SimulateBatch is inside a step, but emit may use
// it between steps (the emulator draws each member's nugget noise there).
func (m *Model) SimulateBatch(v *linalg.Matrix, rngs []*rand.Rand, burnIn, steps int, emit func(t int, states *linalg.Matrix)) {
	if v.Rows != m.Dim || v.Cols != m.Dim {
		panic(fmt.Sprintf("varm: factor is %dx%d, want %dx%d", v.Rows, v.Cols, m.Dim, m.Dim))
	}
	M := len(rngs)
	if M == 0 {
		return
	}
	hist := make([]*linalg.Matrix, m.P)
	for p := range hist {
		hist[p] = linalg.NewMatrix(m.Dim, M)
	}
	// phis[p][d*M+c] = Phi[p][d]: each coefficient repeated along its
	// state row, so the AR update is one flat loop whatever M is.
	phis := make([][]float64, m.P)
	for p := range phis {
		phis[p] = make([]float64, m.Dim*M)
		for i := range phis[p] {
			phis[p][i] = m.Phi[p][i/M]
		}
	}
	eta := linalg.NewMatrix(m.Dim, M)
	state := linalg.NewMatrix(m.Dim, M)
	var lower linalg.LowerPanels
	if M == 1 {
		lower = v.PackLower()
		defer lower.Release()
	}
	for t := -burnIn; t < steps; t++ {
		// Per chain, draw dimensions in ascending order, so a chain's
		// NormFloat64 call sequence does not depend on its neighbours.
		for c, rng := range rngs {
			for d := 0; d < m.Dim; d++ {
				eta.Data[d*M+c] = rng.NormFloat64()
			}
		}
		if M == 1 {
			lower.MulVec(eta.Data, state.Data)
		} else {
			v.LowerMulMat(eta, state)
		}
		for p, phi := range phis {
			s, prev := state.Data[:len(phi)], hist[p].Data[:len(phi)]
			for i, f := range phi {
				s[i] += f * prev[i]
			}
		}
		// Rotate history so hist[0] holds the newest states.
		last := hist[m.P-1]
		copy(hist[1:], hist[:m.P-1])
		hist[0] = last
		copy(hist[0].Data, state.Data)
		if t >= 0 {
			emit(t, state)
		}
	}
}
