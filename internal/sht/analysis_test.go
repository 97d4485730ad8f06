package sht

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"

	"exaclim/internal/fft"
	"exaclim/internal/legendre"
	"exaclim/internal/sphere"
)

// referenceAnalyze is the retired per-field analysis, kept verbatim as
// the numerical oracle for AnalyzeInto: eqs. (4)-(8) run on the field
// itself — a complex FFT per ring, the colatitude extension and second
// FFT per order, the I(q) correlation, and the Wigner-Delta contraction
// from the full O(L^3) legendre.Delta set. The production kernel applies
// the same linear map through a table built once per plan, which
// regroups every sum, so the contract is agreement to <= 1e-12 relative.
func referenceAnalyze(p *Plan, f sphere.Field) Coeffs {
	L := p.L
	nlat, nlon := p.Grid.NLat, p.Grid.NLon
	next := 2*nlat - 2
	delta := legendre.NewDelta(L)
	lonPlan := fft.NewPlan(nlon)
	extPlan := fft.NewPlan(next)
	iqOffset := 2*L - 2
	iq := make([]complex128, 4*L-3)
	for q := -(2*L - 2); q <= 2*L-2; q++ {
		var v complex128
		if q%2 == 0 {
			v = complex(2/(1-float64(q)*float64(q)), 0)
		} else if q == 1 {
			v = complex(0, math.Pi/2)
		} else if q == -1 {
			v = complex(0, -math.Pi/2)
		}
		iq[q+iqOffset] = v
	}
	phase := [4]complex128{1, complex(0, -1), -1, complex(0, 1)}

	// Stage 1: FFT each ring to get G_m(theta_i) for m = 0..L-1.
	gm := make([]complex128, L*nlat)
	scaleLon := 2 * math.Pi / float64(nlon)
	row := make([]complex128, nlon)
	for i := 0; i < nlat; i++ {
		for j, v := range f.Ring(i) {
			row[j] = complex(v, 0)
		}
		lonPlan.Forward(row, row)
		for m := 0; m < L; m++ {
			gm[m*nlat+i] = row[m] * complex(scaleLon, 0)
		}
	}

	// Stage 2+3: per order m, extend along colatitude, FFT to K_{m,m'},
	// correlate with I(q) to get W_m(m'') and fold +-m'' with the Delta
	// symmetry signs.
	folded := make([]complex128, L*L)
	ext := make([]complex128, next)
	for m := 0; m < L; m++ {
		for i := 0; i < nlat; i++ {
			ext[i] = gm[m*nlat+i]
		}
		sign := complex(1, 0)
		if m&1 == 1 {
			sign = -1
		}
		for i := nlat; i < next; i++ {
			ext[i] = sign * ext[next-i]
		}
		extPlan.Forward(ext, ext)
		kscale := complex(1/float64(next), 0)
		kAt := func(mp int) complex128 {
			idx := mp % next
			if idx < 0 {
				idx += next
			}
			return ext[idx] * kscale
		}
		w := func(mpp int) complex128 {
			var sum complex128
			for mp := -(L - 1); mp <= L-1; mp++ {
				iv := iq[mp+mpp+iqOffset]
				if iv != 0 {
					sum += kAt(mp) * iv
				}
			}
			return sum
		}
		base := m * L
		folded[base] = w(0)
		for mpp := 1; mpp < L; mpp++ {
			wp := w(mpp)
			wn := w(-mpp)
			if m&1 == 1 {
				folded[base+mpp] = wp - wn
			} else {
				folded[base+mpp] = wp + wn
			}
		}
	}

	// Stage 4: z_{lm} = i^-m sqrt((2l+1)/4pi) sum_{mpp>=0} Delta_{mpp,0}
	// Delta_{mpp,m} folded_m(mpp).
	out := NewCoeffs(L)
	for l := 0; l < L; l++ {
		tbl := delta.Table(l)
		stride := l + 1
		norm := math.Sqrt(float64(2*l+1) / (4 * math.Pi))
		for m := 0; m <= l; m++ {
			var sum complex128
			for mpp := l & 1; mpp <= l; mpp += 2 {
				d := tbl[mpp*stride] * tbl[mpp*stride+m]
				if d != 0 {
					sum += complex(d, 0) * folded[m*L+mpp]
				}
			}
			out.C[legendre.Idx(l, m)] = sum * complex(norm, 0) * phase[m&3]
		}
	}
	return out
}

// analysisGrids are the grid shapes the table kernel must cover for band
// limit L: the minimal grid (poles, even nlon), a finer grid with odd
// nlat (the equator ring is its own mirror) and odd non-power-of-two
// nlon (full-length Bluestein ring transform), and a finer grid with
// even nlat and an even nlon whose half is not a power of two.
func analysisGrids(L int) []sphere.Grid {
	return []sphere.Grid{
		sphere.GridForBandLimit(L),
		sphere.NewGrid(2*L+5, 4*L+3),
		sphere.NewGrid(2*L+4, 4*L+6),
	}
}

func randomField(rng *rand.Rand, g sphere.Grid) sphere.Field {
	f := sphere.NewField(g)
	for i := range f.Data {
		f.Data[i] = rng.NormFloat64()
	}
	return f
}

func maxAbsCoeff(c Coeffs) float64 {
	worst := 0.0
	for _, v := range c.C {
		worst = math.Max(worst, cmplx.Abs(v))
	}
	return worst
}

// TestAnalyzeMatchesReference pins the table kernel against the retired
// per-field Wigner-Delta loop on arbitrary (not band-limited) fields,
// where every ring — the poles included — carries independent data in
// every order, so each table entry is exercised.
func TestAnalyzeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for _, L := range []int{1, 2, 3, 8, 33, 64} {
		for _, grid := range analysisGrids(L) {
			p, err := NewPlan(grid, L)
			if err != nil {
				t.Fatal(err)
			}
			f := randomField(rng, grid)
			want := referenceAnalyze(p, f)
			got := p.Analyze(f)
			d, scale := maxCoeffDiff(got, want), maxAbsCoeff(want)
			t.Logf("L=%d grid=%v: max coefficient difference %.2g relative", L, grid, d/scale)
			if d > 1e-12*scale {
				t.Errorf("L=%d grid=%v: max coefficient difference %g (scale %g)", L, grid, d, scale)
			}
		}
	}
}

// TestAnalyzeVariantsAgree checks that Analyze, AnalyzeInto over a dirty
// destination and AnalyzePacked are the same numbers.
func TestAnalyzeVariantsAgree(t *testing.T) {
	const L = 9
	rng := rand.New(rand.NewSource(62))
	for _, grid := range analysisGrids(L) {
		p, err := NewPlan(grid, L)
		if err != nil {
			t.Fatal(err)
		}
		f := randomField(rng, grid)
		want := p.Analyze(f)
		into := randomCoeffs(rng, L)
		p.AnalyzeInto(into, f)
		packed := p.AnalyzePacked(nil, f)
		wantPacked := want.PackReal(nil)
		for i := range want.C {
			if into.C[i] != want.C[i] {
				t.Fatalf("grid=%v: AnalyzeInto coefficient %d = %v, Analyze = %v", grid, i, into.C[i], want.C[i])
			}
		}
		for i := range wantPacked {
			if packed[i] != wantPacked[i] {
				t.Fatalf("grid=%v: AnalyzePacked component %d = %v, want %v", grid, i, packed[i], wantPacked[i])
			}
		}
	}
}

func TestAnalyzeIntoPanicsOnWrongBandLimit(t *testing.T) {
	p, err := NewPlan(sphere.GridForBandLimit(8), 8)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mismatched band limit")
		}
	}()
	p.AnalyzeInto(NewCoeffs(7), sphere.NewField(p.Grid))
}

// TestAnalyzeIntoDoesNotAllocate pins the allocation-free contract of
// the inline path with a reused destination, for both entry points the
// batch pipeline calls.
func TestAnalyzeIntoDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under -race; the zero-allocation pin cannot hold")
	}
	const L = 32
	p, err := NewPlan(sphere.GridForBandLimit(L), L)
	if err != nil {
		t.Fatal(err)
	}
	p = p.Sequential()
	f := randomField(rand.New(rand.NewSource(63)), p.Grid)
	dst := NewCoeffs(L)
	packed := make([]float64, PackDim(L))
	p.AnalyzeInto(dst, f) // build the table, warm the scratch pool
	p.AnalyzePacked(packed, f)
	if allocs := testing.AllocsPerRun(20, func() { p.AnalyzeInto(dst, f) }); allocs > 0 {
		t.Errorf("AnalyzeInto allocates %.1f objects per call; want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() { p.AnalyzePacked(packed, f) }); allocs > 0 {
		t.Errorf("AnalyzePacked allocates %.1f objects per call; want 0", allocs)
	}
}

// TestAnalyzeConcurrentDeterministic races the lazy table build: eight
// goroutines make the first analyses of one plan family at once, half
// through the plan and half through its Sequential copy. Every output
// must be bit-equal to a single-goroutine run on a fresh plan and to
// WithWorkers(1..4), and the family must have built its table exactly
// once. L=33 on the finer grid is large enough that the multi-worker
// plans really fan out. Run under -race in CI.
func TestAnalyzeConcurrentDeterministic(t *testing.T) {
	const L = 33
	grid := sphere.NewGrid(2*L+5, 4*L+3)
	rng := rand.New(rand.NewSource(64))
	f := randomField(rng, grid)

	serial, err := NewPlan(grid, L, WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	want := serial.Analyze(f)
	same := func(label string, got Coeffs) {
		t.Helper()
		for i := range want.C {
			if got.C[i] != want.C[i] {
				t.Errorf("%s: coefficient %d = %v, serial = %v", label, i, got.C[i], want.C[i])
				return
			}
		}
	}

	for workers := 1; workers <= 4; workers++ {
		p, err := NewPlan(grid, L, WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		if workers > 1 && p.callWorkers() == 1 {
			t.Fatalf("workers=%d: grid too small to exercise the fan-out path", workers)
		}
		same("WithWorkers", p.Analyze(f))
	}

	shared, err := NewPlan(grid, L, WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	seq := shared.Sequential()
	if shared.ana.builds.Load() != 0 {
		t.Fatal("analysis table built before the first analysis")
	}
	const goroutines = 8
	out := make([]Coeffs, goroutines)
	var start, done sync.WaitGroup
	start.Add(1)
	for g := 0; g < goroutines; g++ {
		done.Add(1)
		go func(g int) {
			defer done.Done()
			p := shared
			if g%2 == 1 {
				p = seq
			}
			start.Wait()
			out[g] = p.Analyze(f)
			for rep := 0; rep < 3; rep++ {
				p.AnalyzeInto(out[g], f)
			}
		}(g)
	}
	start.Done()
	done.Wait()
	for g := range out {
		same("shared plan", out[g])
	}
	if n := shared.ana.builds.Load(); n != 1 {
		t.Errorf("plan family built its analysis table %d times; want exactly 1", n)
	}
	if &seq.analysisTab()[0][0] != &shared.analysisTab()[0][0] {
		t.Error("Sequential copy does not share the plan's analysis table")
	}
}

// TestPlanMemoryBytesExact pins MemoryBytes to what the plan holds: the
// float64 ring tables at construction (no Wigner-Delta set), plus the
// float32 mirror and the half-height analysis operator once their first
// use has built them, seen identically through a Sequential copy.
func TestPlanMemoryBytesExact(t *testing.T) {
	const L = 16
	grid := sphere.NewGrid(2*L+5, 4*L+3)
	p, err := NewPlan(grid, L)
	if err != nil {
		t.Fatal(err)
	}
	tri := int64(legendre.TriSize(L))
	nlat := int64(grid.NLat)
	ring64 := nlat * tri * 8
	if got := p.MemoryBytes(); got != ring64 {
		t.Fatalf("new plan: MemoryBytes = %d, want %d (float64 ring tables only)", got, ring64)
	}
	c := p.Analyze(sphere.NewField(grid))
	withAna := ring64 + (nlat+1)/2*tri*8
	if got := p.MemoryBytes(); got != withAna {
		t.Fatalf("after first Analyze: MemoryBytes = %d, want %d", got, withAna)
	}
	p.Synthesize(c)
	p.Analyze(sphere.NewField(grid))
	if got := p.MemoryBytes(); got != withAna {
		t.Fatalf("after more transforms: MemoryBytes = %d, want %d", got, withAna)
	}
	// Float32 synthesis runs on the same tables: it builds nothing.
	packed := make([]float32, PackDim(L))
	p.Sequential().SynthesizeIntoF32(make([]float32, grid.Points()), packed)
	if got := p.MemoryBytes(); got != withAna {
		t.Fatalf("after first f32 synthesis: MemoryBytes = %d, want %d", got, withAna)
	}
	if got := p.Sequential().MemoryBytes(); got != withAna {
		t.Fatalf("Sequential copy: MemoryBytes = %d, want %d", got, withAna)
	}
}

// BenchmarkSHT_Analyze measures the per-field analysis at the batch
// pipeline's band limit and at serving resolution on a warm plan, the
// twin of BenchmarkSynthesize_L64 (its yardstick: analysis should cost
// no more than twice a synthesis). Tracked by the CI bench-trend
// comparison.
func BenchmarkSHT_Analyze(b *testing.B) {
	for _, L := range []int{32, 64} {
		b.Run(fmt.Sprintf("L%d", L), func(b *testing.B) {
			p := benchPlan(b, L)
			rng := rand.New(rand.NewSource(1))
			f := p.Synthesize(randomCoeffs(rng, L))
			dst := NewCoeffs(L)
			p.AnalyzeInto(dst, f) // build the table outside the timed region
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.AnalyzeInto(dst, f)
			}
		})
	}
}

// BenchmarkSHT_AnalysisTableBuild measures the one-time operator build a
// plan family pays on its first analysis.
func BenchmarkSHT_AnalysisTableBuild(b *testing.B) {
	p := benchPlan(b, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.buildAnalysisTable()
	}
}
