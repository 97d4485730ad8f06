// Package legendre provides the special-function machinery under the
// spherical harmonic transform: fully-normalized associated Legendre
// functions, Wigner (small) d-matrices evaluated at pi/2 via the
// Trapani-Navaza recursion, and Gauss-Legendre quadrature used as an
// independent oracle in tests.
//
// Conventions. The fully-normalized associated Legendre function includes
// the Condon-Shortley phase and the complete spherical-harmonic
// normalization, so that
//
//	Y_lm(theta, phi) = Ptilde_l^m(cos theta) * exp(i m phi)
//
// is orthonormal over the sphere. Equivalently,
// Ptilde_l^m = sqrt((2l+1)/(4 pi) (l-m)!/(l+m)!) P_l^m with P_l^m the
// Condon-Shortley associated Legendre function.
package legendre

import (
	"fmt"
	"math"
)

// invSqrt4Pi is Ptilde_0^0, the constant Y_00.
const invSqrt4Pi = 0.28209479177387814347403972578039

// Idx returns the triangular index of (l, m) with 0 <= m <= l, laying out
// coefficient and function tables as [ (0,0), (1,0), (1,1), (2,0), ... ].
func Idx(l, m int) int { return l*(l+1)/2 + m }

// TriSize returns the table length for band limit L (degrees 0..L-1).
func TriSize(L int) int { return L * (L + 1) / 2 }

// AllAt evaluates Ptilde_l^m(cos theta) for every degree l < L and order
// 0 <= m <= l at a single point, writing into out (allocated when nil or
// too small) using the Idx layout, and returns the table.
//
// The recursion is the standard stable pair: sectoral seeds
// Ptilde_m^m = -sqrt((2m+1)/(2m)) sin(theta) Ptilde_{m-1}^{m-1} followed by
// upward three-term recursion in l at fixed m. Sectoral values underflow
// to zero for large m near the poles; within any supported band limit
// (L <= Nlat-1) the suppressed values are below 1e-290 and the zeros are
// exact to working precision.
func AllAt(L int, cosTheta, sinTheta float64, out []float64) []float64 {
	if L < 1 {
		panic(fmt.Sprintf("legendre: invalid band limit %d", L))
	}
	n := TriSize(L)
	if cap(out) < n {
		out = make([]float64, n)
	}
	out = out[:n]

	out[0] = invSqrt4Pi
	// Sectoral chain P_m^m.
	for m := 1; m < L; m++ {
		out[Idx(m, m)] = -math.Sqrt(float64(2*m+1)/float64(2*m)) * sinTheta * out[Idx(m-1, m-1)]
	}
	// First off-diagonal P_{m+1}^m, then the three-term recursion in l.
	for m := 0; m < L; m++ {
		if m+1 < L {
			out[Idx(m+1, m)] = math.Sqrt(float64(2*m+3)) * cosTheta * out[Idx(m, m)]
		}
		for l := m + 2; l < L; l++ {
			a := math.Sqrt(float64(4*l*l-1) / float64(l*l-m*m))
			b := math.Sqrt(float64((l-1)*(l-1)-m*m) / float64(4*(l-1)*(l-1)-1))
			out[Idx(l, m)] = a * (cosTheta*out[Idx(l-1, m)] - b*out[Idx(l-2, m)])
		}
	}
	return out
}

// RingTable evaluates AllAt for each of the given colatitudes, returning a
// matrix with one Idx-layout row per ring. It is the synthesis-side
// precomputation of the SHT plan. The recursion coefficients are shared
// across rings via Recur (bit-identical to per-ring AllAt).
func RingTable(L int, colatitudes []float64) [][]float64 {
	rows := make([][]float64, len(colatitudes))
	flat := make([]float64, len(colatitudes)*TriSize(L))
	rec := SharedRecur(L)
	for i, theta := range colatitudes {
		row := flat[i*TriSize(L) : (i+1)*TriSize(L)]
		s, c := math.Sincos(theta)
		rec.Eval(c, s, row)
		rows[i] = row
	}
	return rows
}

// LegendrePoly evaluates the (unnormalized) Legendre polynomial P_n(x) and
// its derivative, used by the Gauss-Legendre node solver.
func LegendrePoly(n int, x float64) (p, dp float64) {
	if n == 0 {
		return 1, 0
	}
	p0, p1 := 1.0, x
	for k := 2; k <= n; k++ {
		p0, p1 = p1, (float64(2*k-1)*x*p1-float64(k-1)*p0)/float64(k)
	}
	dp = float64(n) * (x*p1 - p0) / (x*x - 1)
	return p1, dp
}

// GaussLegendre returns the n nodes and weights of Gauss-Legendre
// quadrature on [-1, 1], exact for polynomials of degree 2n-1. Used as an
// independent quadrature oracle for orthonormality tests and as an
// alternative SHT pathway.
func GaussLegendre(n int) (nodes, weights []float64) {
	if n < 1 {
		panic(fmt.Sprintf("legendre: invalid quadrature order %d", n))
	}
	nodes = make([]float64, n)
	weights = make([]float64, n)
	for i := 0; i < (n+1)/2; i++ {
		// Tricomi-style initial guess, then Newton.
		x := math.Cos(math.Pi * (float64(i) + 0.75) / (float64(n) + 0.5))
		var dp float64
		for iter := 0; iter < 100; iter++ {
			var p float64
			p, dp = LegendrePoly(n, x)
			dx := p / dp
			x -= dx
			if math.Abs(dx) < 1e-15 {
				break
			}
		}
		_, dp = LegendrePoly(n, x)
		w := 2 / ((1 - x*x) * dp * dp)
		nodes[i], weights[i] = -x, w
		nodes[n-1-i], weights[n-1-i] = x, w
	}
	if n%2 == 1 {
		nodes[n/2] = 0
		_, dp := LegendrePoly(n, 0)
		weights[n/2] = 2 / (dp * dp)
	}
	return nodes, weights
}
