package archive

import (
	"math"
	"testing"

	"exaclim/internal/tile"
)

// TestReadPackedF32MatchesF64 pins the float32 decode path against the
// float64 path for every band precision, element by element: FP64 bands
// narrow by one float32 rounding, FP32 and FP16 bands narrow the exact
// float64 product q*s, so each element must be within half an ulp of
// the float64 decode — a far tighter bound than the quantization error
// the band already carries.
func TestReadPackedF32MatchesF64(t *testing.T) {
	for _, bands := range [][]Band{
		UniformBands(8, tile.FP64),
		UniformBands(8, tile.FP32),
		UniformBands(8, tile.FP16),
		{{Lo: 0, Hi: 2, Prec: tile.FP64}, {Lo: 2, Hi: 5, Prec: tile.FP32}, {Lo: 5, Hi: 8, Prec: tile.FP16}},
	} {
		r, h, _ := openTestArchive(t, 8, bands)
		for _, tt := range []int{0, 6, 3, 1} {
			want, err := r.ReadPacked(0, 0, tt, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := r.ReadPackedF32(0, 0, tt, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != h.Dim() {
				t.Fatalf("f32 decode length %d, want %d", len(got), h.Dim())
			}
			for i := range got {
				if got[i] != float32(want[i]) {
					t.Fatalf("bands %v step %d coeff %d: f32=%g, float32(f64)=%g",
						bands, tt, i, got[i], float32(want[i]))
				}
			}
		}
		// Out-of-range coordinates fail like the float64 path.
		if _, err := r.ReadPackedF32(h.Members, 0, 0, nil); err == nil {
			t.Error("expected error for out-of-range member")
		}
	}
}

// TestReadPackedF32QuantBound checks the float32 decode against the
// original (pre-archive) coefficients: the narrowing must stay inside
// the per-element quantization bound the policy already promises, plus
// the float32 representation ulp for FP64 bands.
func TestReadPackedF32QuantBound(t *testing.T) {
	bands := []Band{{Lo: 0, Hi: 4, Prec: tile.FP32}, {Lo: 4, Hi: 8, Prec: tile.FP16}}
	r, _, data := openTestArchive(t, 8, bands)
	for _, tt := range []int{0, 4, 6} {
		got, err := r.ReadPackedF32(0, 0, tt, nil)
		if err != nil {
			t.Fatal(err)
		}
		orig := data[0][0][tt]
		for _, b := range bands {
			seg := orig[b.Lo*b.Lo : b.Hi*b.Hi]
			maxAbs := 0.0
			for _, v := range seg {
				if a := math.Abs(v); a > maxAbs {
					maxAbs = a
				}
			}
			s := scaleFor(maxAbs)
			for i, v := range seg {
				bound := QuantErrBound(b.Prec, v, s)
				// One extra float32 rounding of the decoded value.
				bound += math.Abs(v) * 0x1p-24
				if d := math.Abs(float64(got[b.Lo*b.Lo+i]) - v); d > bound {
					t.Fatalf("band %v coeff %d: |f32 - orig| = %g exceeds %g", b, i, d, bound)
				}
			}
		}
	}
}
