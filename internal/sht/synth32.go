package sht

import (
	"fmt"
	"math"

	"exaclim/internal/legendre"
	"exaclim/internal/par"
)

// Float32 synthesis: the serving hot path decodes archived bands whose
// payloads are at most float32 wide, so a float64 round-trip spends
// twice the memory bandwidth the data's precision justifies. This path
// keeps the packed vector, the Legendre tables and the output in
// float32 end to end, while every accumulation runs in float64 — a
// float64 product of two float32 operands is exact, so the only error
// added over the float64 path is the 2^-24 rounding of the table and
// input values themselves (bounded by TestSynthesizeF32MatchesF64).

// ringTab32 returns the lazily-built float32 ring tables, shared across
// Sequential copies of the plan.
func (p *Plan) ringTab32() [][]float32 {
	p.f32.once.Do(func() {
		n := legendre.TriSize(p.L)
		flat := make([]float32, len(p.ringTab)*n)
		rings := make([][]float32, len(p.ringTab))
		for i, src := range p.ringTab {
			row := flat[i*n : (i+1)*n]
			for j, v := range src {
				row[j] = float32(v)
			}
			rings[i] = row
		}
		p.f32.rings = rings
		p.f32.built.Store(true)
	})
	return p.f32.rings
}

// SynthesizeIntoF32 synthesizes the field of a real-packed float32
// coefficient vector (length L^2, the layout archive.ReadPackedF32
// delivers) straight into dst in row-major float32, never materializing
// a float64 grid or coefficient set. dst must have length
// Grid.Points(). Accumulation runs in float64 over float32 tables, so
// the result tracks the float64 path to within the inputs' own float32
// rounding.
//
// Like SynthesizeInto (kernel version SynthKernelVersion), the dominant
// fold runs over equator-mirrored ring pairs — one sweep of ring i's
// Legendre table folds both rings of the pair (i, nlat-1-i) into even-
// and odd-parity sums via P~_l^m(-x) = (-1)^(l+m) P~_l^m(x), halving
// the table bandwidth — and each ring's longitude stage consumes only
// the non-redundant half spectrum through a half-size real-output rFFT.
// Both halvings only regroup float64 sums, so the error stays within
// the float32 input rounding the bound tests pin. Blocks run inline or
// fan out under the same callWorkers rule as SynthesizeInto.
func (p *Plan) SynthesizeIntoF32(dst []float32, packed []float32) {
	if len(dst) != p.Grid.Points() {
		panic(fmt.Sprintf("sht: destination length %d does not match grid %v", len(dst), p.Grid))
	}
	if len(packed) != PackDim(p.L) {
		panic(fmt.Sprintf("sht: packed length %d does not match band limit %d", len(packed), p.L))
	}
	tab := p.ringTab32()
	block := p.synthBlock()
	nPairs := (p.Grid.NLat + 1) / 2
	workers := p.callWorkers()
	if workers == 1 {
		sc := p.arena.get()
		for p0 := 0; p0 < nPairs; p0 += block {
			p.synthPairsF32(dst, packed, tab, sc, p0, min(p0+block, nPairs))
		}
		p.arena.put(sc)
		return
	}
	nBlocks := (nPairs + block - 1) / block
	scratch := p.arena.take(workers)
	par.ForNWorker(workers, nBlocks, func(g, bi int) {
		p0 := bi * block
		p.synthPairsF32(dst, packed, tab, scratch[g], p0, min(p0+block, nPairs))
	})
	p.arena.release(scratch)
}

// synthPairsF32 folds and synthesizes the equator-mirrored ring pairs
// [p0, p1) of the float32 path using one worker's scratch.
func (p *Plan) synthPairsF32(dst []float32, packed []float32, tab [][]float32, sc *synthScratch, p0, p1 int) {
	L := p.L
	nlat, nlon := p.Grid.NLat, p.Grid.NLon
	const inv = 1 / math.Sqrt2 // undo the PackReal sqrt(2) on m > 0
	// Two accumulator rows per pair: fm[2k] holds the even-parity
	// (l+m even) sums of pair p0+k, fm[2k+1] the odd-parity sums.
	fm := sc.accum(2*(p1-p0), L)
	for l := 0; l < L; l++ {
		base := l * l
		prow := packed[base : base+2*l+1]
		tbase := legendre.Idx(l, 0)
		for pi := p0; pi < p1; pi++ {
			tbl := tab[pi][tbase : tbase+l+1]
			even, odd := fm[2*(pi-p0)], fm[2*(pi-p0)+1]
			if l&1 == 1 {
				even, odd = odd, even // m even => l+m odd
			}
			even[0] += complex(float64(tbl[0])*float64(prow[0]), 0)
			for m := 2; m <= l; m += 2 {
				t := float64(tbl[m]) * inv
				even[m] += complex(t*float64(prow[2*m-1]), t*float64(prow[2*m]))
			}
			for m := 1; m <= l; m += 2 {
				t := float64(tbl[m]) * inv
				odd[m] += complex(t*float64(prow[2*m-1]), t*float64(prow[2*m]))
			}
		}
	}
	rp, spec := sc.ring(p)
	scale := complex(float64(nlon), 0)
	for pi := p0; pi < p1; pi++ {
		fe, fo := fm[2*(pi-p0)], fm[2*(pi-p0)+1]
		north := dst[pi*nlon : (pi+1)*nlon]
		// DC terms are real by construction (m=0 folds add no imaginary
		// part); the m >= L tail of spec is permanently zero and the rFFT
		// completes the conjugate half itself.
		spec[0] = complex(real(fe[0])+real(fo[0]), 0) * scale
		for m := 1; m < L; m++ {
			spec[m] = (fe[m] + fo[m]) * scale
		}
		rp.InverseF32(north, spec)
		si := nlat - 1 - pi
		if si == pi {
			continue // odd nlat: the equator ring is its own mirror
		}
		spec[0] = complex(real(fe[0])-real(fo[0]), 0) * scale
		for m := 1; m < L; m++ {
			spec[m] = (fe[m] - fo[m]) * scale
		}
		rp.InverseF32(dst[si*nlon:(si+1)*nlon], spec)
	}
}
