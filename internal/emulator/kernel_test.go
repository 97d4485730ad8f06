package emulator

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"exaclim/internal/forcing"
	"exaclim/internal/linalg"
	"exaclim/internal/sht"
	"exaclim/internal/sphere"
	"exaclim/internal/tile"
	"exaclim/internal/trend"
	"exaclim/internal/varm"
)

// handBuiltModel assembles a 9-dimensional (L = 3) emulator from closed
// forms — no training, so nothing upstream of generation can move the
// digest below. Three distinct lag decays, a VAR(2), a dense lower
// factor, a nugget with an exact-zero pixel, and a forcing record that
// ends before the emulated horizon does.
func handBuiltModel() *Model { return handBuiltModelAt(3) }

// handBuiltModelAt is handBuiltModel at band limit L: the same closed
// forms over an L*L-dimensional factor.
func handBuiltModelAt(L int) *Model {
	const P = 2
	grid := sphere.GridForBandLimit(L)
	dim := sht.PackDim(L)
	nPix := grid.Points()

	v := linalg.NewMatrix(dim, dim)
	for i := 0; i < dim; i++ {
		for j := 0; j < i; j++ {
			v.Set(i, j, 1/float64(2+i+3*j))
		}
		v.Set(i, i, 0.5+1/float64(1+i))
	}
	phi := make([][]float64, P)
	for p := range phi {
		phi[p] = make([]float64, dim)
		for d := range phi[p] {
			phi[p][d] = (0.6 - 0.45*float64(p)) / (1 + 0.125*float64(d))
		}
	}

	opt := trend.Options{StepsPerYear: 5, K: 2, RhoGrid: []float64{0.25, 0.5, 0.875}}
	fit := &trend.Fit{
		Grid:  grid,
		Opt:   opt,
		Lead:  2,
		Set:   forcing.Single("hand", []float64{1, 1.125, 1.25, 1.5, 1.75, 2.25}),
		Beta:  make([][]float64, nPix),
		Rho:   make([]float64, nPix),
		Sigma: make([]float64, nPix),
	}
	nugget := make([]float64, nPix)
	for pix := 0; pix < nPix; pix++ {
		x := float64(pix)
		fit.Beta[pix] = []float64{280 + x/4, 1 + x/64, 0.5 - x/128, 2 + x/16, -1 + x/32, 0.25, x / 256}
		fit.Rho[pix] = opt.RhoGrid[(pix*7)%5%3]
		fit.Sigma[pix] = 0.75 + x/32
		nugget[pix] = x / 512
	}
	return &Model{
		Cfg:       Config{L: L, P: P, Trend: opt, Workers: 1},
		Grid:      grid,
		Trend:     fit,
		VAR:       &varm.Model{P: P, Dim: dim, Phi: phi},
		Factor:    tile.FromDense(v, L, tile.UniformMap(tile.FP64)),
		NuggetVar: nugget,
	}
}

// generationDigest is the SHA-256 of the little-endian float64 bits of a
// series.
func generationDigest(fields []sphere.Field) string {
	h := sha256.New()
	var b [8]byte
	for _, f := range fields {
		for _, v := range f.Data {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGenerationDigestAcrossCommits pins the generation step — draw eta,
// xi = V eta, VAR advance, inverse SHT, nugget, trend restore — to the
// bytes it produced at the commit before the step kernel was rebuilt
// (4a5faa0, where the digests below were computed by this same test
// body). Every MemberSeed, every archived campaign's verifiability and
// the serve tier's live == Model.EmulateUnder contract hang on these
// bytes: an edit that reorders one sum in linalg.LowerMulVec /
// LowerMulMat, trend.Step or generateStep fails here instead of silently
// changing every emulated series. A deliberate change to the SHT
// synthesis kernel (sht.SynthKernelVersion) moves the digest too;
// recompute it in that PR and say so.
func TestGenerationDigestAcrossCommits(t *testing.T) {
	const (
		seed       = 20240917
		t0, steps  = 3, 24 // reaches year 2 + 26/5 = 7, past the 6-year record
		wantSerial = "981c10295e963d1f8c7f4f149b8d3584dc2a774d9ec0459322fa2de44dab96bc"
		wantUnder  = "af50de014562a54cf972443ca0f4ed5899d5126bad78ccd80bed1241571b8e20"
	)
	m := handBuiltModel()
	serial, err := m.Emulate(seed, t0, steps)
	if err != nil {
		t.Fatal(err)
	}
	if got := generationDigest(serial); got != wantSerial {
		t.Errorf("serial generation digest = %s, want %s", got, wantSerial)
	}
	rf := []float64{1, 1.5, 2, 2.5, 3.5, 4, 4.5, 5.5, 6}
	under, err := m.EmulateUnder(rf, seed, t0, steps)
	if err != nil {
		t.Fatal(err)
	}
	if got := generationDigest(under); got != wantUnder {
		t.Errorf("what-if generation digest = %s, want %s", got, wantUnder)
	}

	// The ensemble engine runs the same kernel over LowerMulMat: member c
	// of a 9-member campaign (one full column block of 8 plus the scalar
	// tail) must hash like its serial twin.
	const members = 9
	got := make([][]sphere.Field, members)
	for c := range got {
		got[c] = make([]sphere.Field, steps)
	}
	err = m.EmulateEnsemble(EnsembleSpec{Members: members, T0: t0, Steps: steps, BaseSeed: seed},
		func(member, scenario, tt int, f sphere.Field) {
			got[member][tt] = f.Copy() // each (member, step) slot has one writer
		})
	if err != nil {
		t.Fatal(err)
	}
	for c := range got {
		ref, err := m.Emulate(MemberSeed(seed, c, 0), t0, steps)
		if err != nil {
			t.Fatal(err)
		}
		if generationDigest(got[c]) != generationDigest(ref) {
			t.Errorf("ensemble member %d differs from its serial emulation", c)
		}
	}
}

// TestOneMemberDigestAcrossPanels pins one-member generation where the
// one-chain product xi = V eta spans several of its 16-row panels:
// handBuiltModel at L = 7, a 49-dimensional factor, is three full panels
// and a one-row partial one, and every lane of a full panel sums dozens of
// products. (TestGenerationDigestAcrossCommits's one member runs at
// dimension 9, a single partial panel whose leaf loop runs once, where a
// fused multiply-add or a reordered sum could go unnoticed.) The digest
// was computed by this test body at 8177752, before the one-chain product
// ran on a packed factor.
func TestOneMemberDigestAcrossPanels(t *testing.T) {
	const (
		seed      = 20240917
		t0, steps = 3, 24
		want      = "8b2cc8100eee74768b330d8b1ba678ac691ee786320c1e16d8f85cef770ad64e"
	)
	fields, err := handBuiltModelAt(7).Emulate(seed, t0, steps)
	if err != nil {
		t.Fatal(err)
	}
	if got := generationDigest(fields); got != want {
		t.Errorf("one-member generation digest at L=7 = %s, want %s", got, want)
	}
}
