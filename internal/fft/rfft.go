package fft

import (
	"fmt"
	"math"
)

// RealPlan computes transforms between a real sequence and the
// non-redundant half of its Hermitian spectrum: Forward from the
// sequence to the half spectrum, Inverse back. For even n each runs a
// single complex transform of length n/2 — the classic two-for-one
// split: the half spectrum is repacked into the spectrum of the
// interleaved sequence z[j] = x[2j] + i*x[2j+1], one length-n/2 inverse
// recovers z, and the real output falls out by de-interleaving; Forward
// is the same steps in reverse. Odd lengths fall back to the full
// complex plan (they cannot split), so callers never need a parity
// check.
//
// Like Plan, a RealPlan amortizes all trigonometric work and is not safe
// for concurrent use; clone one per goroutine with Clone. Clones share
// the immutable twiddle tables and carry only fresh scratch.
type RealPlan struct {
	n    int
	half *Plan        // length n/2 engine (even n)
	full *Plan        // full-length fallback (odd n)
	w    []complex128 // i*exp(+2*pi*i*k/n), k = 0..n/2-1 (even n)
	spec []complex128 // scratch: repacked spectrum, length SpecLen-1 or n
}

// NewRealPlan prepares a real transform of length n.
func NewRealPlan(n int) *RealPlan {
	if n <= 0 {
		panic(fmt.Sprintf("fft: invalid real transform length %d", n))
	}
	p := &RealPlan{n: n}
	if n%2 != 0 {
		p.full = NewPlan(n)
		p.spec = make([]complex128, n)
		return p
	}
	h := n / 2
	p.half = NewPlan(h)
	p.w = make([]complex128, h)
	for k := range p.w {
		s, c := math.Sincos(2 * math.Pi * float64(k) / float64(n))
		p.w[k] = complex(-s, c) // i * (c + i*s)
	}
	p.spec = make([]complex128, h)
	return p
}

// Len returns the real sequence length n.
func (p *RealPlan) Len() int { return p.n }

// SpecLen returns the half-spectrum length n/2+1: the number of
// independent Hermitian coefficients X[0..n/2] Forward produces and the
// caller must supply to Inverse. (For odd n the last entry is the
// conjugate-symmetric midpoint partner and is still consumed.)
func (p *RealPlan) SpecLen() int { return p.n/2 + 1 }

// Clone returns an independent plan sharing the immutable twiddle tables
// but carrying its own scratch, for concurrent use from another
// goroutine.
func (p *RealPlan) Clone() *RealPlan {
	q := *p
	if p.half != nil {
		q.half = p.half.Clone()
	}
	if p.full != nil {
		q.full = p.full.Clone()
	}
	q.spec = make([]complex128, len(p.spec))
	return &q
}

// Forward computes the non-redundant half of the length-n forward
// transform of the real sequence src:
//
//	spec[k] = sum_j src[j] exp(-2*pi*i*j*k/n),  k = 0..n/2
//
// unnormalized, matching Plan.Forward. spec must have length SpecLen()
// and src length Len(); src is not modified. spec[0] (and, for even n,
// spec[n/2]) come out with exactly zero imaginary part.
func (p *RealPlan) Forward(spec []complex128, src []float64) {
	if len(src) != p.n || len(spec) != p.SpecLen() {
		panic(fmt.Sprintf("fft: real forward size mismatch: src %d spec %d want %d/%d",
			len(src), len(spec), p.n, p.SpecLen()))
	}
	z := p.spec
	if p.full != nil {
		for j, v := range src {
			z[j] = complex(v, 0)
		}
		p.full.Forward(z, z)
		spec[0] = complex(real(z[0]), 0)
		copy(spec[1:], z[1:len(spec)])
		return
	}
	h := p.n / 2
	for j := range z {
		z[j] = complex(src[2*j], src[2*j+1])
	}
	p.half.Forward(z, z)
	// With E and O the transforms of the even and odd samples, Z = E +
	// i*O, so X[k] = E[k] + exp(-2*pi*i*k/n)*O[k] unpacks as half of
	// (Z[k] + conj(Z[h-k])) + conj(w[k])*(Z[k] - conj(Z[h-k])).
	spec[0] = complex(real(z[0])+imag(z[0]), 0)
	spec[h] = complex(real(z[0])-imag(z[0]), 0)
	for k := 1; k < h; k++ {
		a := z[k]
		b := complex(real(z[h-k]), -imag(z[h-k]))
		cw := complex(real(p.w[k]), -imag(p.w[k]))
		spec[k] = ((a + b) + cw*(a-b)) * 0.5
	}
}

// Inverse computes the length-n inverse transform of the Hermitian
// spectrum given by its non-redundant half, writing the real output into
// dst:
//
//	dst[j] = (1/n) * sum_k X[k] exp(+2*pi*i*j*k/n)
//
// where X[k] = spec[k] for k <= n/2 and X[n-k] = conj(spec[k]) for the
// mirrored half. The normalization matches Plan.Inverse. spec must have
// length SpecLen() and dst length Len(); spec is not modified. For the
// output to be exactly the real sequence implied, spec[0] (and, for even
// n, spec[n/2]) should carry zero imaginary part; any imaginary residue
// there is dropped.
func (p *RealPlan) Inverse(dst []float64, spec []complex128) { InverseInto(p, dst, spec) }

// InverseInto is Inverse for either output width (methods cannot be
// generic): the transform runs in complex128 whatever E is, and only the
// de-interleave pass that writes dst converts, so a float32 caller skips
// the float64 row a separate narrowing pass would need.
func InverseInto[E float32 | float64](p *RealPlan, dst []E, spec []complex128) {
	if len(dst) != p.n || len(spec) != p.SpecLen() {
		panic(fmt.Sprintf("fft: real inverse size mismatch: dst %d spec %d want %d/%d",
			len(dst), len(spec), p.n, p.SpecLen()))
	}
	if p.full != nil {
		// Odd length: complete the conjugate half and run the full plan.
		n := p.n
		z := p.spec
		z[0] = complex(real(spec[0]), 0)
		for k := 1; k <= n/2; k++ {
			z[k] = spec[k]
			z[n-k] = complex(real(spec[k]), -imag(spec[k]))
		}
		p.full.Inverse(z, z)
		for j := 0; j < n; j++ {
			dst[j] = E(real(z[j]))
		}
		return
	}
	h := p.n / 2
	z := p.transformHalf(spec)
	for j := 0; j < h; j++ {
		dst[2*j] = E(real(z[j]) * 0.5)
		dst[2*j+1] = E(imag(z[j]) * 0.5)
	}
}

// transformHalf repacks X[0..h] into the length-h spectrum of the
// interleaved sequence — Z[k] = (X[k] + conj(X[h-k])) + i*w[k]*(X[k] -
// conj(X[h-k])) — and inverts it in place. The inverse of Z is u[j] =
// x[2j]/2 + i*x[2j+1]/2 under the 1/h normalization of the half plan,
// hence the halving in the de-interleave pass above.
func (p *RealPlan) transformHalf(spec []complex128) []complex128 {
	h := p.n / 2
	z := p.spec
	for k := 0; k < h; k++ {
		a := spec[k]
		b := complex(real(spec[h-k]), -imag(spec[h-k]))
		z[k] = (a + b) + p.w[k]*(a-b)
	}
	p.half.Inverse(z, z)
	return z
}
