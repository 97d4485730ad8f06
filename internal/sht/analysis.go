package sht

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"exaclim/internal/legendre"
	"exaclim/internal/par"
	"exaclim/internal/sphere"
)

// Analysis kernel. Everything in eqs. (5)-(8) after the ring transform —
// colatitude extension, the Fourier coefficients K_{m,m'}, the
// correlation with the quadrature I(q) and the Wigner-Delta contraction
// — is linear in the ring spectra G_m(theta_i) and independent of the
// data, so it collapses into one real operator per plan,
//
//	z_{lm} = sum_i A[i][Idx(l,m)] * G_m(theta_i),
//
// the paper's shared theta-stage precomputation (Section III-A2) taken
// to its end. A has the layout of the synthesis Legendre table and its
// equator symmetry, A[nlat-1-i] = (-1)^(l+m) A[i], so only the northern
// ring of each mirrored pair is stored and a field's analysis mirrors
// its synthesis: one real-input rFFT per ring, north and south spectra
// combined into even- and odd-parity sums, one row-major sweep of the
// pair's table row accumulating into the coefficient triangle.

// analysisTable is the lazily-built operator A, shared by pointer across
// Sequential copies of a plan so that a plan family builds it once, on
// its first analysis; plans that only synthesize never pay for it.
type analysisTable struct {
	once   sync.Once
	pairs  [][]float64  // pairs[i][Idx(l,m)], i < (nlat+1)/2
	builds atomic.Int32 // completed builds: 0 or 1
}

// analysisTab returns the plan's analysis operator, building it on first
// use.
func (p *Plan) analysisTab() [][]float64 {
	p.ana.once.Do(func() {
		p.ana.pairs = p.buildAnalysisTable()
		p.ana.builds.Add(1)
	})
	return p.ana.pairs
}

// buildAnalysisTable runs eqs. (5)-(8) on a unit impulse at each
// northern ring. The stages up to the I(q) correlation depend on the
// order m only through its parity (the extension sign (-1)^m), so they
// run twice per ring; the Delta contraction then streams the Wigner
// tables degree by degree through legendre.DeltaIter, so the O(L^3)
// Delta set is never resident.
func (p *Plan) buildAnalysisTable() [][]float64 {
	L, nlat := p.L, p.Grid.NLat
	next := 2*nlat - 2
	nPairs := (nlat + 1) / 2

	// I(q) = int_0^pi e^{iq theta} sin(theta) dtheta for |q| <= 2L-2
	// (eq. 8): 2/(1-q^2) for even q, +-i*pi/2 for q = +-1, else 0.
	iq := make([]complex128, 4*L-3)
	iq0 := 2*L - 2
	for q := -iq0; q <= iq0; q += 2 {
		iq[q+iq0] = complex(2/(1-float64(q)*float64(q)), 0)
	}
	if L > 1 {
		iq[iq0+1] = complex(0, math.Pi/2)
		iq[iq0-1] = complex(0, -math.Pi/2)
	}

	// fold[(2i+par)*L+mpp] = i^-par * (W(mpp) + (-1)^par W(-mpp)) for a
	// unit impulse at ring i under order parity par, where W(mpp) =
	// sum_{m'} K_{m'} I(m'+mpp) is the inner sum of eq. (7); the mpp = 0
	// entry is W(0) alone. The i^-par rotation makes every entry that
	// meets a non-zero Delta product real; the rest of the order phase
	// i^-m is the sign (-1)^(m/2) applied in the contraction.
	fold := make([]float64, 2*nPairs*L)
	k := make([]complex128, 2*L-1)
	inv := complex(1/float64(next), 0)
	w := func(mpp int) complex128 {
		var sum complex128
		for mp := -(L - 1); mp <= L-1; mp++ {
			if iv := iq[mp+mpp+iq0]; iv != 0 {
				sum += k[mp+L-1] * iv
			}
		}
		return sum
	}
	for i := 0; i < nPairs; i++ {
		for par := 0; par < 2; par++ {
			// K_{m'} = (1/next) sum_j ext[j] e^{-2 pi i j m'/next} of the
			// extended impulse: ext[i] = 1 and, for every ring but the
			// poles, its mirror image ext[next-i] = (-1)^par.
			for mp := -(L - 1); mp <= L-1; mp++ {
				j := (i * mp) % next
				s, c := math.Sincos(2 * math.Pi * float64(j) / float64(next))
				v := complex(c, -s)
				if i > 0 {
					if par == 0 {
						v = complex(2*c, 0)
					} else {
						v = complex(0, -2*s)
					}
				}
				k[mp+L-1] = v * inv
			}
			phase := complex(1, 0)
			if par == 1 {
				phase = complex(0, -1)
			}
			row := fold[(2*i+par)*L : (2*i+par+1)*L]
			row[0] = real(phase * w(0))
			for mpp := 1; mpp < L; mpp++ {
				wp, wn := w(mpp), w(-mpp)
				if par == 1 {
					wn = -wn
				}
				row[mpp] = real(phase * (wp + wn))
			}
		}
	}

	// A[i][l,m] = (-1)^(m/2) sqrt((2l+1)/4pi) sum_{mpp} Delta_{mpp,0}
	// Delta_{mpp,m} fold_{m mod 2}(mpp), over mpp = l (mod 2) only
	// (Delta_{mpp,0} vanishes otherwise).
	tri := legendre.TriSize(L)
	flat := make([]float64, nPairs*tri)
	tab := make([][]float64, nPairs)
	for i := range tab {
		tab[i] = flat[i*tri : (i+1)*tri]
	}
	it := legendre.NewDeltaIter()
	for l := 0; l < L; l++ {
		delta := it.Next()
		stride := l + 1
		base := legendre.Idx(l, 0)
		norm := math.Sqrt(float64(2*l+1) / (4 * math.Pi))
		for i := 0; i < nPairs; i++ {
			acc := tab[i][base : base+l+1]
			fe := fold[2*i*L : (2*i+1)*L]
			fo := fold[(2*i+1)*L : (2*i+2)*L]
			for mpp := l & 1; mpp <= l; mpp += 2 {
				drow := delta[mpp*stride : (mpp+1)*stride]
				de, do := drow[0]*fe[mpp], drow[0]*fo[mpp]
				for m := 0; m <= l; m += 2 {
					acc[m] += drow[m] * de
				}
				for m := 1; m <= l; m += 2 {
					acc[m] += drow[m] * do
				}
			}
			for m := range acc {
				if m&2 != 0 {
					acc[m] *= -norm
				} else {
					acc[m] *= norm
				}
			}
		}
	}
	return tab
}

// Analyze computes the forward SHT of a real field, returning coefficients
// for m >= 0. The field must live on the plan's grid.
func (p *Plan) Analyze(f sphere.Field) Coeffs {
	out := NewCoeffs(p.L)
	p.AnalyzeInto(out, f)
	return out
}

// AnalyzePacked is Analyze delivering the real packing (PackReal layout,
// length L^2) into dst, which is grown if too short; the intermediate
// coefficient triangle lives in pooled scratch. It is the form the
// archive writer and the training pass consume.
func (p *Plan) AnalyzePacked(dst []float64, f sphere.Field) []float64 {
	sc := p.arena.get()
	c := Coeffs{L: p.L, C: sc.triangle(p.L)}
	p.AnalyzeInto(c, f)
	dst = c.PackReal(dst)
	p.arena.put(sc)
	return dst
}

// AnalyzeInto writes the forward SHT of f into dst, whose band limit must
// match the plan's, allocating nothing once the plan is warm. Every
// coefficient is one sum over ring pairs in ascending order whatever the
// worker count (workers own disjoint degree ranges), so the result is
// bit-identical for every WithWorkers setting and for Sequential copies.
// Against the retired per-field Wigner-Delta loop the sums are regrouped,
// so agreement is <= 1e-12 relative rather than bit-exact.
func (p *Plan) AnalyzeInto(dst Coeffs, f sphere.Field) {
	if f.Grid != p.Grid {
		panic(fmt.Sprintf("sht: field grid %v does not match plan grid %v", f.Grid, p.Grid))
	}
	if dst.L != p.L {
		panic(fmt.Sprintf("sht: coefficient band limit %d does not match plan %d", dst.L, p.L))
	}
	tab := p.analysisTab()
	L, nPairs := p.L, len(tab)
	workers := p.callWorkers()
	if workers == 1 {
		sc := p.arena.get()
		x := sc.accum(2*nPairs, L)
		p.ringSpectra(x, f, sc, 0, nPairs)
		contract(dst, tab, x, 0, L)
		p.arena.put(sc)
		return
	}
	scratch := p.arena.take(workers)
	x := scratch[0].accum(2*nPairs, L)
	par.ForSpans(workers, nPairs, func(g, lo, hi int) {
		p.ringSpectra(x, f, scratch[g], lo, hi)
	})
	// Degree l costs l+1 coefficients per pair: cut [0, L) where the
	// triangle's area splits evenly.
	cut := func(g int) int { return int(math.Round(float64(L) * math.Sqrt(float64(g)/float64(workers)))) }
	par.ForN(workers, workers, func(g int) {
		contract(dst, tab, x, cut(g), cut(g+1))
	})
	p.arena.release(scratch)
}

// ringSpectra transforms the rings of pairs [p0, p1) and stores each
// pair's parity sums in the order the contraction reads them: x[2i][m]
// multiplies the table entries of even degrees, x[2i+1][m] those of odd
// degrees, so that with e = G_north + G_south and o = G_north - G_south
// (the equator ring of an odd nlat is its own mirror: e = G, o = 0)
//
//	x[2i][m] = e[m] for even m, o[m] for odd m;  x[2i+1][m] the reverse.
//
// The 2*pi/nlon factor turns the DFT into the integral of eq. (4),
// exactly for band-limited data.
func (p *Plan) ringSpectra(x [][]complex128, f sphere.Field, sc *synthScratch, p0, p1 int) {
	L := p.L
	nlat, nlon := p.Grid.NLat, p.Grid.NLon
	rp, gn, gs := sc.forward(p)
	scale := complex(2*math.Pi/float64(nlon), 0)
	for pi := p0; pi < p1; pi++ {
		xe, xo := x[2*pi], x[2*pi+1]
		rp.Forward(gn, f.Ring(pi))
		si := nlat - 1 - pi
		if si == pi {
			for m := 0; m < L; m += 2 {
				xe[m], xo[m] = gn[m]*scale, 0
			}
			for m := 1; m < L; m += 2 {
				xe[m], xo[m] = 0, gn[m]*scale
			}
			continue
		}
		rp.Forward(gs, f.Ring(si))
		for m := 0; m < L; m += 2 {
			xe[m], xo[m] = (gn[m]+gs[m])*scale, (gn[m]-gs[m])*scale
		}
		for m := 1; m < L; m += 2 {
			xe[m], xo[m] = (gn[m]-gs[m])*scale, (gn[m]+gs[m])*scale
		}
	}
}

// contract accumulates degrees [l0, l1) of dst from every ring pair's
// table row and parity sums.
func contract(dst Coeffs, tab [][]float64, x [][]complex128, l0, l1 int) {
	lo, hi := legendre.Idx(l0, 0), legendre.Idx(l1, 0)
	out := dst.C[lo:hi]
	for i := range out {
		out[i] = 0
	}
	for pi, row := range tab {
		for l := l0; l < l1; l++ {
			base := legendre.Idx(l, 0)
			a := row[base : base+l+1]
			z := dst.C[base : base+l+1]
			xs := x[2*pi+l&1][:l+1]
			for m, t := range a {
				z[m] += complex(t*real(xs[m]), t*imag(xs[m]))
			}
		}
	}
}
