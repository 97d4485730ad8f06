package tile

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"exaclim/internal/linalg"
)

func TestPrecisionBytesAndNames(t *testing.T) {
	cases := []struct {
		p     Precision
		bytes int
		name  string
	}{{FP64, 8, "DP"}, {FP32, 4, "SP"}, {FP16, 2, "HP"}}
	for _, c := range cases {
		if c.p.Bytes() != c.bytes {
			t.Errorf("%v.Bytes() = %d, want %d", c.p, c.p.Bytes(), c.bytes)
		}
		if c.p.String() != c.name {
			t.Errorf("%v.String() = %q, want %q", c.p, c.p.String(), c.name)
		}
	}
}

func TestTileRoundTripPerPrecision(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	src := make([]float64, 16*16)
	for i := range src {
		src[i] = rng.NormFloat64()
	}
	tolerances := map[Precision]float64{FP64: 0, FP32: 1e-7, FP16: 1e-3}
	for p, tol := range tolerances {
		tl := NewTile(16, p)
		tl.FromF64(src)
		back := tl.ToF64(nil)
		for i := range src {
			if d := math.Abs(back[i] - src[i]); d > tol*(1+math.Abs(src[i])) {
				t.Errorf("%v: element %d error %g exceeds %g", p, i, d, tol)
			}
		}
		if tl.Bytes() != int64(16*16*p.Bytes()) {
			t.Errorf("%v: Bytes() = %d", p, tl.Bytes())
		}
	}
}

func TestTileConvertChain(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	src := make([]float64, 8*8)
	for i := range src {
		src[i] = rng.NormFloat64() * 10
	}
	dp := NewTile(8, FP64)
	dp.FromF64(src)
	// DP -> HP -> DP must equal direct rounding through binary16.
	viaHP := dp.Convert(FP16).Convert(FP64)
	direct := NewTile(8, FP16)
	direct.FromF64(src)
	wantBack := direct.ToF64(nil)
	for i := range src {
		if viaHP.F64[i] != wantBack[i] {
			t.Fatalf("convert chain differs from direct rounding at %d", i)
		}
	}
	// Converting to the same precision must copy, not alias.
	cp := dp.Convert(FP64)
	cp.F64[0] = 12345
	if dp.F64[0] == 12345 {
		t.Fatal("Convert(FP64) aliased the source payload")
	}
}

func TestTileMaxAbs(t *testing.T) {
	for _, p := range []Precision{FP64, FP32, FP16} {
		tl := NewTile(4, p)
		src := make([]float64, 16)
		src[5] = -7
		src[9] = 3
		tl.FromF64(src)
		if got := tl.MaxAbs(); math.Abs(got-7) > 0.01 {
			t.Errorf("%v: MaxAbs = %g, want 7", p, got)
		}
	}
}

func TestVariantMaps(t *testing.T) {
	const nt = 40
	// DP: everything FP64.
	pm := VariantDP.Map(nt)
	for i := 0; i < nt; i++ {
		for j := 0; j <= i; j++ {
			if pm(i, j) != FP64 {
				t.Fatalf("DP variant assigned %v at (%d,%d)", pm(i, j), i, j)
			}
		}
	}
	// DP/SP: diagonal FP64, off-diagonal FP32.
	pm = VariantDPSP.Map(nt)
	if pm(3, 3) != FP64 || pm(4, 3) != FP32 || pm(39, 0) != FP32 {
		t.Error("DP/SP band map wrong")
	}
	// DP/HP: diagonal FP64, rest FP16.
	pm = VariantDPHP.Map(nt)
	if pm(5, 5) != FP64 || pm(6, 5) != FP16 {
		t.Error("DP/HP band map wrong")
	}
	// DP/SP/HP: diagonal DP, next ceil(5%*nt)=2 bands SP, rest HP.
	pm = VariantDPSPHP.Map(nt)
	if pm(7, 7) != FP64 {
		t.Error("DP/SP/HP diagonal should be DP")
	}
	if pm(8, 7) != FP32 || pm(9, 7) != FP32 {
		t.Error("DP/SP/HP near-diagonal should be SP")
	}
	if pm(10, 7) != FP16 {
		t.Error("DP/SP/HP far tiles should be HP")
	}
}

func TestVariantStrings(t *testing.T) {
	want := []string{"DP", "DP/SP", "DP/SP/HP", "DP/HP"}
	for i, v := range Variants {
		if v.String() != want[i] {
			t.Errorf("variant %d = %q, want %q", i, v.String(), want[i])
		}
	}
}

func TestCountMapFractions(t *testing.T) {
	const nt = 100
	counts := CountMap(nt, VariantDPHP.Map(nt))
	total := int64(nt * (nt + 1) / 2)
	if counts[FP64] != nt {
		t.Errorf("DP/HP: %d DP tiles, want %d (the diagonal)", counts[FP64], nt)
	}
	if counts[FP64]+counts[FP16] != total {
		t.Errorf("tile counts do not partition: %v", counts)
	}
	// In DP/HP nearly all computation is HP: > 90% of tiles for nt=100.
	if frac := float64(counts[FP16]) / float64(total); frac < 0.9 {
		t.Errorf("HP fraction %g, want > 0.9", frac)
	}
}

func TestSymmMatrixFromToDense(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := linalg.RandomSPD(rng, 64, 1.0)
	s := FromDense(a, 16, UniformMap(FP64))
	back := s.ToDense()
	if d := linalg.MaxAbsDiff(a, back); d > 1e-15 {
		t.Errorf("DP tiled round trip error %g", d)
	}
	// SP round trip loses at most single-precision epsilon relative.
	s32 := FromDense(a, 16, UniformMap(FP32))
	back32 := s32.ToDense()
	if d := linalg.MaxAbsDiff(a, back32); d > 1e-6 {
		t.Errorf("SP tiled round trip error %g", d)
	}
}

func TestSymmMatrixBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := linalg.RandomSPD(rng, 64, 1.0)
	nt := 4 // 16x16 tiles
	dp := FromDense(a, 16, VariantDP.Map(nt))
	hp := FromDense(a, 16, VariantDPHP.Map(nt))
	if dp.Bytes() != dp.BytesAllDP() {
		t.Errorf("DP matrix bytes %d != all-DP bytes %d", dp.Bytes(), dp.BytesAllDP())
	}
	// DP/HP stores 4 diagonal DP tiles + 6 HP tiles:
	want := int64(4*16*16*8 + 6*16*16*2)
	if hp.Bytes() != want {
		t.Errorf("DP/HP bytes = %d, want %d", hp.Bytes(), want)
	}
	if hp.Bytes() >= dp.Bytes() {
		t.Error("mixed precision did not reduce memory")
	}
	counts := hp.CountByPrecision()
	if counts[FP64] != 4 || counts[FP16] != 6 {
		t.Errorf("CountByPrecision = %v", counts)
	}
}

func TestNewSymmMatrixRejectsBadTiling(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-divisible tiling")
		}
	}()
	NewSymmMatrix(100, 33, UniformMap(FP64))
}

func TestHPStorageErrorProperty(t *testing.T) {
	// Rounding a tile to HP and back must keep relative error below
	// 2^-11 + safety for every element in the HP normal range.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		src := make([]float64, 25)
		for i := range src {
			src[i] = rng.NormFloat64() * 100
		}
		tl := NewTile(5, FP16)
		tl.FromF64(src)
		back := tl.ToF64(nil)
		for i := range src {
			if math.Abs(src[i]) < 1e-2 {
				continue
			}
			if math.Abs(back[i]-src[i]) > 5e-4*math.Abs(src[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
