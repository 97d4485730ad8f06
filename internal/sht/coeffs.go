// Package sht implements the paper's exact spherical harmonic transform
// (Section III-A) for real fields on equiangular latitude-longitude grids.
//
// Analysis follows eqs. (4)-(8): an FFT along each latitude ring yields
// G_m(theta_i); the colatitude extension G_m(2pi - theta) = (-1)^m
// G_m(theta) and a second FFT recover the Fourier coefficients K_{m,m'};
// the exact quadrature I(q) = int_0^pi e^{iq theta} sin(theta) dtheta and
// the precomputed Wigner-Delta products S_{l,m,m”} then produce the
// spherical harmonic coefficients z_{lm} (eq. 7). Everything after the
// ring FFT is linear and data-independent, so a plan runs it once, on
// unit impulses, and applies the resulting colatitude operator to every
// field (analysis.go). Synthesis goes through fully-normalized associated
// Legendre tables and an inverse FFT per ring, an independent
// implementation that cross-validates the analysis path.
//
// For real fields only orders m >= 0 are stored, using the conjugate
// symmetry z_{l,-m} = (-1)^m conj(z_{lm}). The real packing of length L^2
// (the f_t vectors of the paper's VAR stage) is an isometry, so spectral
// power equals spatial power.
package sht

import (
	"fmt"
	"math"

	"exaclim/internal/legendre"
)

// Coeffs holds spherical harmonic coefficients z_{lm} of a real field for
// degrees l < L and orders 0 <= m <= l in the triangular legendre.Idx
// layout.
type Coeffs struct {
	L int
	C []complex128
}

// NewCoeffs allocates a zero coefficient set for band limit L.
func NewCoeffs(L int) Coeffs {
	return Coeffs{L: L, C: make([]complex128, legendre.TriSize(L))}
}

// At returns z_{lm} for any order, applying conjugate symmetry for m < 0.
func (c Coeffs) At(l, m int) complex128 {
	if m >= 0 {
		return c.C[legendre.Idx(l, m)]
	}
	v := c.C[legendre.Idx(l, -m)]
	if m&1 != 0 {
		return complex(-real(v), imag(v))
	}
	return complex(real(v), -imag(v))
}

// Set assigns z_{lm} for m >= 0.
func (c Coeffs) Set(l, m int, v complex128) { c.C[legendre.Idx(l, m)] = v }

// Copy returns a deep copy.
func (c Coeffs) Copy() Coeffs {
	out := Coeffs{L: c.L, C: make([]complex128, len(c.C))}
	copy(out.C, c.C)
	return out
}

// PackDim returns the length of the real packing for band limit L.
func PackDim(L int) int { return L * L }

// PackReal writes the coefficients into a real vector of length L^2 using
// the isometric layout
//
//	[ z_00, z_10, r2*Re z_11, r2*Im z_11, z_20, r2*Re z_21, ... ]
//
// ordered degree-major, where r2 = sqrt(2). The Euclidean norm of the
// packed vector equals the L2 norm of the band-limited field on the
// sphere (Parseval), which is what makes the VAR-stage covariance in the
// packed basis equivalent to the field covariance.
func (c Coeffs) PackReal(dst []float64) []float64 {
	n := PackDim(c.L)
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	r2 := math.Sqrt2
	for l := 0; l < c.L; l++ {
		base := l * l
		dst[base] = real(c.C[legendre.Idx(l, 0)])
		for m := 1; m <= l; m++ {
			v := c.C[legendre.Idx(l, m)]
			dst[base+2*m-1] = r2 * real(v)
			dst[base+2*m] = r2 * imag(v)
		}
	}
	return dst
}

// UnpackReal reconstructs coefficients from a packed vector produced by
// PackReal. It panics if the length is not a perfect square matching L^2.
func UnpackReal(src []float64) Coeffs {
	L := int(math.Round(math.Sqrt(float64(len(src)))))
	if L*L != len(src) {
		panic(fmt.Sprintf("sht: packed length %d is not a square", len(src)))
	}
	c := NewCoeffs(L)
	unpackReal(c.C, L, src)
	return c
}

// unpackReal fills the band-limit-L coefficient triangle dst from the
// packed vector src of either width (widened before the 1/sqrt(2), so a
// float32 vector unpacks to exactly what its float64 widening would) and
// returns it. Generation and replay loops unpack into pooled scratch
// through SynthesizePacked.
func unpackReal[E Real](dst []complex128, L int, src []E) []complex128 {
	if PackDim(L) != len(src) {
		panic(fmt.Sprintf("sht: packed length %d does not match band limit %d", len(src), L))
	}
	inv := 1 / math.Sqrt2
	for l := 0; l < L; l++ {
		base := l * l
		dst[legendre.Idx(l, 0)] = complex(float64(src[base]), 0)
		for m := 1; m <= l; m++ {
			dst[legendre.Idx(l, m)] = complex(float64(src[base+2*m-1])*inv, float64(src[base+2*m])*inv)
		}
	}
	return dst
}

// PackIndex returns the packed-vector index of the (l, m, part) component,
// part 0 selecting the real part and 1 the imaginary part (m > 0 only).
func PackIndex(l, m, part int) int {
	if m == 0 {
		return l * l
	}
	return l*l + 2*m - 1 + part
}

// PackDegree returns the degree l that packed index p belongs to; useful
// for degree-dependent precision policies on the covariance matrix.
func PackDegree(p int) int { return int(math.Sqrt(float64(p))) }

// PowerSpectrum returns the angular power spectrum
// C_l = (1/(2l+1)) sum_m |z_{lm}|^2 over all orders including negative.
func (c Coeffs) PowerSpectrum() []float64 {
	out := make([]float64, c.L)
	for l := 0; l < c.L; l++ {
		v := c.C[legendre.Idx(l, 0)]
		sum := real(v)*real(v) + imag(v)*imag(v)
		for m := 1; m <= l; m++ {
			v = c.C[legendre.Idx(l, m)]
			sum += 2 * (real(v)*real(v) + imag(v)*imag(v))
		}
		out[l] = sum / float64(2*l+1)
	}
	return out
}

// TotalPower returns sum_l (2l+1) C_l = the squared L2 norm of the field.
func (c Coeffs) TotalPower() float64 {
	total := 0.0
	for l, cl := range c.PowerSpectrum() {
		total += float64(2*l+1) * cl
	}
	return total
}
