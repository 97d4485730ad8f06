package legendre

import (
	"fmt"
	"math"
)

// Delta holds the Wigner small-d matrices at beta = pi/2,
// Delta^l_{m,n} = d^l_{m,n}(pi/2), for all degrees l < L and non-negative
// orders 0 <= m, n <= l. Negative orders are served through the exact
// symmetries
//
//	Delta_{-m,n} = (-1)^(l-n) Delta_{m,n}
//	Delta_{m,-n} = (-1)^(l+m) Delta_{m,n}
//
// The tables are computed once with the Trapani-Navaza recursion, which is
// numerically stable to degrees far beyond any band limit used here, and
// are the paper's precomputed "Wigner-d matrix" (Section III-A2): they are
// data-independent and shared across all time steps of the SHT.
//
// Storage is sum_{l<L} (l+1)^2 ~= L^3/3 float64s, the O(L^3) space cost
// stated in the paper.
type Delta struct {
	L      int
	tables [][]float64 // tables[l][m*(l+1)+n]
}

// NewDelta computes all Delta tables for degrees l < L.
func NewDelta(L int) *Delta {
	if L < 1 {
		panic(fmt.Sprintf("legendre: invalid band limit %d", L))
	}
	d := &Delta{L: L, tables: make([][]float64, L)}
	it := NewDeltaIter()
	for l := 0; l < L; l++ {
		d.tables[l] = append([]float64(nil), it.Next()...)
	}
	return d
}

// At returns Delta^l_{m,n} for any -l <= m, n <= l.
func (d *Delta) At(l, m, n int) float64 {
	sign := 1.0
	if m < 0 {
		if (l-n)&1 != 0 {
			sign = -sign
		}
		m = -m
	}
	if n < 0 {
		if (l+m)&1 != 0 {
			sign = -sign
		}
		n = -n
	}
	return sign * d.tables[l][m*(l+1)+n]
}

// Table returns the raw non-negative-order table for degree l, indexed as
// tbl[m*(l+1)+n]. Callers on hot paths use this with explicit symmetry
// handling to avoid the At call overhead.
func (d *Delta) Table(l int) []float64 { return d.tables[l] }

// Bytes returns the memory footprint of the tables.
func (d *Delta) Bytes() int64 {
	var total int64
	for _, t := range d.tables {
		total += int64(len(t)) * 8
	}
	return total
}

// DeltaIter streams the Delta tables degree by degree in O(L^2) working
// memory, for memory-constrained passes that do not want the full O(L^3)
// cache resident (the paper's largest band limits).
type DeltaIter struct {
	l    int
	cur  []float64 // Delta^l, (l+1)x(l+1) row-major
	prev []float64
}

// NewDeltaIter returns an iterator positioned before degree 0.
func NewDeltaIter() *DeltaIter { return &DeltaIter{l: -1} }

// Degree returns the degree of the table most recently returned by Next,
// or -1 before the first call.
func (it *DeltaIter) Degree() int { return it.l }

// Next advances to the next degree and returns its table, valid until the
// following call to Next. The first call returns degree 0.
func (it *DeltaIter) Next() []float64 {
	it.l++
	l := it.l
	it.prev, it.cur = it.cur, it.prev
	if cap(it.cur) < (l+1)*(l+1) {
		it.cur = make([]float64, (l+1)*(l+1))
	}
	it.cur = it.cur[:(l+1)*(l+1)]
	cur, prev := it.cur, it.prev
	if l == 0 {
		cur[0] = 1
		return cur
	}
	w := l + 1
	// Seed row m = l from degree l-1 (Trapani-Navaza).
	cur[l*w] = -math.Sqrt(float64(2*l-1)/float64(2*l)) * prev[(l-1)*l]
	for n := 1; n <= l; n++ {
		cur[l*w+n] = math.Sqrt(float64(l)*float64(2*l-1)/(2*float64(l+n)*float64(l+n-1))) * prev[(l-1)*l+(n-1)]
	}
	// Downward recursion in m at fixed n.
	for m := l - 1; m >= 0; m-- {
		lm := float64(l-m) * float64(l+m+1)
		c1 := 2 / math.Sqrt(lm)
		var c2 float64
		if m+2 <= l {
			c2 = math.Sqrt(float64(l-m-1) * float64(l+m+2) / lm)
		}
		for n := 0; n <= l; n++ {
			v := float64(n) * c1 * cur[(m+1)*w+n]
			if m+2 <= l {
				v -= c2 * cur[(m+2)*w+n]
			}
			cur[m*w+n] = v
		}
	}
	return cur
}

// factorials up to 34! fit exactly enough in float64 for the brute-force
// reference below (used only in tests for small l).
var factorial = func() [35]float64 {
	var f [35]float64
	f[0] = 1
	for i := 1; i < len(f); i++ {
		f[i] = f[i-1] * float64(i)
	}
	return f
}()

// WignerDirect evaluates d^l_{m,n}(beta) by the explicit factorial sum.
// It is exponentially unstable for large l and exists solely as a
// small-degree oracle (l <= 12) for tests.
func WignerDirect(l, m, n int, beta float64) float64 {
	if l > 12 {
		panic("legendre: WignerDirect is a small-degree test oracle (l <= 12)")
	}
	if m < -l || m > l || n < -l || n > l {
		return 0
	}
	cb := math.Cos(beta / 2)
	sb := math.Sin(beta / 2)
	pre := math.Sqrt(factorial[l+m] * factorial[l-m] * factorial[l+n] * factorial[l-n])
	sum := 0.0
	for s := 0; s <= 2*l; s++ {
		d1 := l + n - s
		d2 := m - n + s
		d3 := l - m - s
		if d1 < 0 || d2 < 0 || d3 < 0 {
			continue
		}
		sign := 1.0
		if d2&1 == 1 {
			sign = -1
		}
		term := sign / (factorial[d1] * factorial[s] * factorial[d2] * factorial[d3])
		term *= math.Pow(cb, float64(2*l+n-m-2*s)) * math.Pow(sb, float64(m-n+2*s))
		sum += term
	}
	return pre * sum
}
