package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// hermitianSpec builds a random half spectrum of length n/2+1 whose
// implied full spectrum is Hermitian (so the inverse is real), plus the
// completed full spectrum for the oracle.
func hermitianSpec(rng *rand.Rand, n int) (half, full []complex128) {
	half = make([]complex128, n/2+1)
	full = make([]complex128, n)
	half[0] = complex(rng.NormFloat64(), 0)
	full[0] = half[0]
	for k := 1; k <= n/2; k++ {
		c := complex(rng.NormFloat64(), rng.NormFloat64())
		if 2*k == n { // Nyquist bin of an even length must be real
			c = complex(real(c), 0)
		}
		half[k] = c
		full[k] = c
		full[n-k] = complex(real(c), -imag(c))
	}
	return half, full
}

func TestRealPlanMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 3, 4, 5, 6, 8, 10, 12, 15, 16, 31, 32, 63, 64, 96, 127, 128, 130, 258} {
		p := NewRealPlan(n)
		if p.Len() != n || p.SpecLen() != n/2+1 {
			t.Fatalf("n=%d: Len=%d SpecLen=%d", n, p.Len(), p.SpecLen())
		}
		half, full := hermitianSpec(rng, n)
		specCopy := append([]complex128(nil), half...)
		want := Naive(full, true)
		dst := make([]float64, n)
		p.Inverse(dst, half)
		for j := 0; j < n; j++ {
			if d := math.Abs(dst[j] - real(want[j])); d > 1e-11 {
				t.Fatalf("n=%d j=%d: got %v want %v (|Δ|=%g)", n, j, dst[j], real(want[j]), d)
			}
			if im := math.Abs(imag(want[j])); im > 1e-11 {
				t.Fatalf("n=%d j=%d: oracle output not real (imag %g)", n, j, im)
			}
		}
		for k := range half {
			if half[k] != specCopy[k] {
				t.Fatalf("n=%d: Inverse modified spec[%d]", n, k)
			}
		}
		dst32 := make([]float32, n)
		InverseInto(p, dst32, half)
		for j := 0; j < n; j++ {
			if dst32[j] != float32(dst[j]) {
				t.Fatalf("n=%d j=%d: InverseInto[float32]=%v, narrowed Inverse=%v", n, j, dst32[j], float32(dst[j]))
			}
		}
	}
}

func TestRealPlanCloneIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{9, 64} {
		p := NewRealPlan(n)
		q := p.Clone()
		half, full := hermitianSpec(rng, n)
		want := Naive(full, true)
		a := make([]float64, n)
		b := make([]float64, n)
		done := make(chan struct{})
		go func() {
			defer close(done)
			for i := 0; i < 50; i++ {
				q.Inverse(b, half)
			}
		}()
		for i := 0; i < 50; i++ {
			p.Inverse(a, half)
		}
		<-done
		for j := 0; j < n; j++ {
			if math.Abs(a[j]-real(want[j])) > 1e-11 || a[j] != b[j] {
				t.Fatalf("n=%d j=%d: plan %v clone %v want %v", n, j, a[j], b[j], real(want[j]))
			}
		}
	}
}

// TestRealPlanForwardMatchesNaive pins Forward against the O(n^2) DFT for
// even, odd and length-1 inputs (radix-2 and Bluestein half plans both),
// and the Inverse(Forward(x)) == x round trip.
func TestRealPlanForwardMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{1, 2, 3, 4, 5, 6, 8, 10, 12, 15, 16, 31, 32, 63, 64, 96, 127, 128, 130, 258} {
		p := NewRealPlan(n)
		x := make([]float64, n)
		cx := make([]complex128, n)
		for j := range x {
			x[j] = rng.NormFloat64()
			cx[j] = complex(x[j], 0)
		}
		xCopy := append([]float64(nil), x...)
		want := Naive(cx, false)
		spec := make([]complex128, p.SpecLen())
		p.Forward(spec, x)
		for k := range spec {
			if d := cmplx.Abs(spec[k] - want[k]); d > 1e-11 {
				t.Fatalf("n=%d k=%d: got %v want %v (|Δ|=%g)", n, k, spec[k], want[k], d)
			}
		}
		if imag(spec[0]) != 0 || (n%2 == 0 && imag(spec[n/2]) != 0) {
			t.Fatalf("n=%d: DC/Nyquist bins not exactly real: %v %v", n, spec[0], spec[n/2])
		}
		for j := range x {
			if x[j] != xCopy[j] {
				t.Fatalf("n=%d: Forward modified src[%d]", n, j)
			}
		}
		back := make([]float64, n)
		p.Inverse(back, spec)
		for j := range x {
			if d := math.Abs(back[j] - x[j]); d > 1e-13 {
				t.Fatalf("n=%d j=%d: Inverse(Forward(x)) = %v, x = %v (|Δ|=%g)", n, j, back[j], x[j], d)
			}
		}
	}
}
