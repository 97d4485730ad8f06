package sht

import (
	"math"
	"math/rand"
	"testing"

	"exaclim/internal/fft"
	"exaclim/internal/legendre"
	"exaclim/internal/sphere"
)

// referenceSynthesizeInto is the retired m-outer synthesis loop with a
// full complex FFT per ring, kept verbatim as the numerical oracle for
// SynthesizeInto. Through kernel version 1 the blocked kernel was
// pinned bit-identical to this loop; version 2's parity-paired fold
// regroups the degree sums (the southern-ring Legendre tables are
// computed independently, not mirrored), so the contract is now
// agreement to <= 1e-12 relative — see SynthKernelVersion.
func referenceSynthesizeInto(p *Plan, dst sphere.Field, c Coeffs) {
	L := p.L
	nlat, nlon := p.Grid.NLat, p.Grid.NLon
	lon := fft.NewPlan(nlon)
	for i := 0; i < nlat; i++ {
		tbl := p.ringTab[i]
		spec := make([]complex128, nlon)
		for m := 0; m < L; m++ {
			var sum complex128
			for l := m; l < L; l++ {
				sum += c.C[legendre.Idx(l, m)] * complex(tbl[legendre.Idx(l, m)], 0)
			}
			if m == 0 {
				spec[0] = complex(real(sum), 0)
				continue
			}
			spec[m] = sum
			spec[nlon-m] = complex(real(sum), -imag(sum))
		}
		lon.Inverse(spec, spec)
		ring := dst.Ring(i)
		for j := range ring {
			ring[j] = real(spec[j]) * float64(nlon)
		}
	}
}

// forceBlock pins a plan's calibrated pair-block size, bypassing the
// microcalibration so tests can sweep block sizes deterministically.
func forceBlock(p *Plan, b int) {
	p.calib.once.Do(func() { p.calib.block = b })
	if p.calib.block != b {
		panic("forceBlock: calibration already ran")
	}
}

// TestSynthesizeBlockedMatchesReference pins the kernel-version-2
// numerical contract: for every block size — including 1
// (pair-at-a-time), sizes that straddle the pair count, and sizes
// larger than it — the parity-paired rFFT synthesis agrees with the
// retired full-FFT m-outer loop to <= 1e-12 relative, on both the
// minimal grid (even nlon, poles included) and an oversampled grid with
// odd nlat (equator ring is its own mirror) and odd nlon (rFFT
// fallback), down to L=1.
func TestSynthesizeBlockedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, L := range []int{1, 3, 16, 33} {
		for _, oversample := range []bool{false, true} {
			grid := sphere.GridForBandLimit(L)
			if oversample {
				grid = sphere.NewGrid(2*L+5, 4*L+3)
			}
			want := sphere.NewField(grid)
			c := randomCoeffs(rng, L)
			{
				ref, err := NewPlan(grid, L)
				if err != nil {
					t.Fatal(err)
				}
				referenceSynthesizeInto(ref, want, c)
			}
			scale := fieldScale(want)
			for _, b := range []int{1, 2, 5, 8, 32, grid.NLat + 7} {
				p, err := NewPlan(grid, L, WithWorkers(2))
				if err != nil {
					t.Fatal(err)
				}
				forceBlock(p, b)
				got := sphere.NewField(grid)
				p.SynthesizeInto(got, c)
				for i := range got.Data {
					if d := math.Abs(got.Data[i] - want.Data[i]); d > 1e-12*scale {
						t.Fatalf("L=%d grid=%v block=%d: pixel %d blocked=%g reference=%g (|Δ|=%g, scale %g)",
							L, grid, b, i, got.Data[i], want.Data[i], d, scale)
					}
				}
			}
		}
	}
}

// TestSynthesizeParallelDeterministic pins the worker-count invariant
// of the parallel kernel: every ring pair is folded with its own
// accumulators and written to disjoint output rings, so the output must
// be bit-identical across worker counts {1, 2, 4} — not merely close —
// for both precisions.
func TestSynthesizeParallelDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, L := range []int{1, 16, 33} {
		for _, oversample := range []bool{false, true} {
			grid := sphere.GridForBandLimit(L)
			if oversample {
				grid = sphere.NewGrid(2*L+5, 4*L+3)
			}
			c := randomCoeffs(rng, L)
			p32 := packedF32(c.PackReal(nil))
			var base sphere.Field
			var base32 []float32
			for _, workers := range []int{1, 2, 4} {
				p, err := NewPlan(grid, L, WithWorkers(workers))
				if err != nil {
					t.Fatal(err)
				}
				forceBlock(p, 2) // several blocks even at small L
				got := sphere.NewField(grid)
				p.SynthesizeInto(got, c)
				got32 := make([]float32, grid.Points())
				p.SynthesizeIntoF32(got32, p32)
				if workers == 1 {
					base, base32 = got, got32
					continue
				}
				for i := range got.Data {
					if got.Data[i] != base.Data[i] {
						t.Fatalf("L=%d grid=%v workers=%d: pixel %d %x != serial %x",
							L, grid, workers, i, math.Float64bits(got.Data[i]), math.Float64bits(base.Data[i]))
					}
				}
				for i := range got32 {
					if got32[i] != base32[i] {
						t.Fatalf("L=%d grid=%v workers=%d: f32 pixel %d differs from serial", L, grid, workers, i)
					}
				}
			}
		}
	}
}

// TestSynthesizeCalibratedMatchesReference runs the real calibration
// path (no forced block) once, so the microcalibrated production
// configuration is itself pinned against the reference.
func TestSynthesizeCalibratedMatchesReference(t *testing.T) {
	const L = 16
	grid := sphere.GridForBandLimit(L)
	p, err := NewPlan(grid, L)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(22))
	c := randomCoeffs(rng, L)
	got := sphere.NewField(grid)
	p.SynthesizeInto(got, c)
	b := p.SynthBlock()
	found := false
	for _, cand := range synthBlockCandidates {
		if b == cand {
			found = true
		}
	}
	if !found {
		t.Fatalf("calibrated block %d not among candidates %v", b, synthBlockCandidates)
	}
	want := sphere.NewField(grid)
	referenceSynthesizeInto(p, want, c)
	scale := fieldScale(want)
	for i := range got.Data {
		if d := math.Abs(got.Data[i] - want.Data[i]); d > 1e-12*scale {
			t.Fatalf("calibrated block %d: pixel %d differs by %g (scale %g)", b, i, d, scale)
		}
	}
}

// packedF32 converts a float64 packed vector to float32.
func packedF32(packed []float64) []float32 {
	out := make([]float32, len(packed))
	for i, v := range packed {
		out[i] = float32(v)
	}
	return out
}

// TestSynthesizeF32MatchesF64 bounds the float32 end-to-end synthesis
// against the float64 path on the same coefficients. The fold and the
// ring transforms run in float64 at either width, so the error budget is
// the 2^-24 rounding of the inputs amplified by the fold depth plus one
// rounding per pixel — orders of magnitude below the archive's 1e-4
// quantization policy that gates what reaches this path in production.
// It also pins what "one fold" means: the float32 output is exactly the
// float64 synthesis of the widened input, rounded once per pixel.
func TestSynthesizeF32MatchesF64(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, L := range []int{1, 5, 16, 33} {
		grid := sphere.GridForBandLimit(L)
		p, err := NewPlan(grid, L)
		if err != nil {
			t.Fatal(err)
		}
		c := randomCoeffs(rng, L)
		want := p.Synthesize(c)
		scale := fieldScale(want)
		packed := c.PackReal(nil)
		dst := make([]float32, grid.Points())
		p32 := packedF32(packed)
		p.SynthesizeIntoF32(dst, p32)
		widened := make([]float64, len(p32))
		for i, v := range p32 {
			widened[i] = float64(v)
		}
		exact := p.Synthesize(UnpackReal(widened))
		for i, v := range dst {
			if d := math.Abs(float64(v) - want.Data[i]); d > 1e-4*scale {
				t.Fatalf("L=%d pixel %d: f32=%g f64=%g (diff %g, scale %g)",
					L, i, v, want.Data[i], d, scale)
			}
			if v != float32(exact.Data[i]) {
				t.Fatalf("L=%d pixel %d: f32=%g is not the float64 synthesis of the widened input rounded once (%g)",
					L, i, v, float32(exact.Data[i]))
			}
		}
	}
}

// TestRingEvaluatorConcurrentSetPanics pins the non-concurrent
// contract: a Set call that observes another in flight must panic
// instead of silently corrupting the fold.
func TestRingEvaluatorConcurrentSetPanics(t *testing.T) {
	const L = 4
	ev := NewRingEvaluator(L, 1.0)
	packed := make([]float64, PackDim(L))
	ev.busy.Store(true) // simulate a Set in flight on another goroutine
	defer func() {
		if recover() == nil {
			t.Fatal("concurrent SetPacked did not panic")
		}
	}()
	ev.SetPacked(packed)
}

// TestEvalPointAllocates pins the pooled one-shot path: in steady state
// EvalPoint performs no allocations per call.
func TestEvalPointAllocates(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	const L = 16
	rng := rand.New(rand.NewSource(25))
	c := randomCoeffs(rng, L)
	EvalPoint(c, 0.7, 1.3) // warm the pool and the shared recursion
	allocs := testing.AllocsPerRun(20, func() {
		EvalPoint(c, 0.7, 1.3)
	})
	if allocs > 0 {
		t.Fatalf("EvalPoint allocates %.1f objects per call; want 0", allocs)
	}
}

// TestSmallTransformsRunInline pins the inline-versus-fan-out rule to the
// work a call can see, not to the calibrated block: on the L=16 live
// what-if grid a multi-worker plan whose calibration left several blocks
// (the case that used to hand every step to goroutines) still runs both
// synthesis precisions and the analysis on the calling goroutine —
// observable as zero allocations — while the L=64 serving grid fans out.
func TestSmallTransformsRunInline(t *testing.T) {
	const L = 16
	grid := sphere.GridForBandLimit(L)
	p, err := NewPlan(grid, L, WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	forceBlock(p, 4) // 9 ring pairs -> 3 blocks
	if w := p.callWorkers(); w != 1 {
		t.Fatalf("L=%d grid: callWorkers = %d, want 1 (inline)", L, w)
	}
	big, err := NewPlan(sphere.GridForBandLimit(64), 64, WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if w := big.callWorkers(); w != 4 {
		t.Fatalf("L=64 grid: callWorkers = %d, want 4 (fan-out)", w)
	}
	if w := big.Sequential().callWorkers(); w != 1 {
		t.Fatalf("L=64 Sequential: callWorkers = %d, want 1", w)
	}
	if raceEnabled {
		return // sync.Pool drops items under -race; no allocation pin
	}
	rng := rand.New(rand.NewSource(26))
	c := randomCoeffs(rng, L)
	p32 := packedF32(c.PackReal(nil))
	f := sphere.NewField(grid)
	dst32 := make([]float32, grid.Points())
	back := NewCoeffs(L)
	run := func() {
		p.SynthesizeInto(f, c)
		p.SynthesizeIntoF32(dst32, p32)
		p.AnalyzeInto(back, f)
	}
	run() // build the lazy tables, warm the scratch pool
	if allocs := testing.AllocsPerRun(20, run); allocs > 0 {
		t.Fatalf("small-grid transforms allocate %.1f objects per round; want 0 (inline)", allocs)
	}
}

// BenchmarkSHT_BlockedSynthesize measures the blocked synthesis kernel
// against the historical m-outer reference loop and the float32
// end-to-end path at serving resolution (L=64). Tracked by the CI
// bench-trend comparison.
func BenchmarkSHT_BlockedSynthesize(b *testing.B) {
	const L = 64
	p := benchPlan(b, L)
	p = p.Sequential() // isolate the kernel from goroutine fan-out
	rng := rand.New(rand.NewSource(41))
	c := randomCoeffs(rng, L)
	packed := c.PackReal(nil)
	p32 := packedF32(packed)
	f := sphere.NewField(p.Grid)
	dst32 := make([]float32, p.Grid.Points())
	p.SynthBlock() // calibrate outside the timed region
	b.Run("blocked", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p.SynthesizeInto(f, c)
		}
	})
	b.Run("ref", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			referenceSynthesizeInto(p, f, c)
		}
	})
	b.Run("f32", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p.SynthesizeIntoF32(dst32, p32)
		}
	})
}

// BenchmarkSHT_ParallelSynthesize measures the worker fan-out of the
// synthesis kernel at serving resolution: serial vs a 4-worker pool on
// the same plan tables. On a >= 4-core host the workers sub-benchmark
// should run >= 2x the serial one; on a 1-core box (the CI runner) the
// pool collapses to goroutine-scheduling overhead and must stay within
// 10% of serial. Tracked by the CI bench-trend comparison.
func BenchmarkSHT_ParallelSynthesize(b *testing.B) {
	const L = 64
	p := benchPlan(b, L)
	rng := rand.New(rand.NewSource(43))
	c := randomCoeffs(rng, L)
	f := sphere.NewField(p.Grid)
	p.SynthBlock() // calibrate outside the timed region
	serial := p.Sequential()
	par4, err := NewPlan(p.Grid, L, WithWorkers(4))
	if err != nil {
		b.Fatal(err)
	}
	par4.calib = p.calib // share the calibrated block
	par4.arena = p.arena
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			serial.SynthesizeInto(f, c)
		}
	})
	b.Run("workers4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			par4.SynthesizeInto(f, c)
		}
	})
}

// BenchmarkSHT_RFFT isolates the longitude ring stage at serving
// resolution (L=64, nlon=128): the retired full complex transform with
// Hermitian completion per ring vs the half-spectrum rFFT the kernel
// now runs. Tracked by the CI bench-trend comparison.
func BenchmarkSHT_RFFT(b *testing.B) {
	const L = 64
	p := benchPlan(b, L)
	nlat, nlon := p.Grid.NLat, p.Grid.NLon
	rng := rand.New(rand.NewSource(44))
	f := make([]complex128, L)
	for m := range f {
		f[m] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	f[0] = complex(real(f[0]), 0)
	out := make([]float64, nlon)
	b.Run("full", func(b *testing.B) {
		spec := make([]complex128, nlon)
		freq := make([]complex128, nlon)
		lon := fft.NewPlan(nlon)
		for i := 0; i < b.N; i++ {
			for ri := 0; ri < nlat; ri++ {
				spec[0] = complex(real(f[0]), 0)
				for m := 1; m < L; m++ {
					spec[m] = f[m]
					spec[nlon-m] = complex(real(f[m]), -imag(f[m]))
				}
				lon.Inverse(freq, spec)
				for j := range out {
					out[j] = real(freq[j]) * float64(nlon)
				}
			}
		}
	})
	b.Run("rfft", func(b *testing.B) {
		rp := p.rlon.Clone()
		spec := make([]complex128, rp.SpecLen())
		scale := complex(float64(nlon), 0)
		for i := 0; i < b.N; i++ {
			for ri := 0; ri < nlat; ri++ {
				spec[0] = complex(real(f[0]), 0) * scale
				for m := 1; m < L; m++ {
					spec[m] = f[m] * scale
				}
				rp.Inverse(out, spec)
			}
		}
	})
}
