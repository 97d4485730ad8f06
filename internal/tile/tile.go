// Package tile implements tiled matrices whose tiles carry individual
// floating-point precisions, the data structure at the heart of the
// paper's mixed-precision Cholesky (Sections II-C and III-D).
//
// A symmetric covariance matrix is partitioned into b x b tiles; a
// PrecisionMap assigns each lower-triangular tile DP (float64), SP
// (float32) or HP (binary16) storage. The paper's four named variants are
// provided: full DP; a diagonal band in DP with the rest SP (DP/SP); DP
// band plus 5% SP band with the rest HP (DP/SP/HP); and DP band with the
// rest HP (DP/HP). An adaptive, tile-centric policy chooses precision
// from tile norms, mirroring the "catering to covariance strengths"
// strategy.
//
// HP tiles are stored as IEEE binary16 payloads and computed in float32
// after widening, which reproduces tensor-core numerics; see
// internal/half.
package tile

import (
	"fmt"
	"math"

	"exaclim/internal/half"
	"exaclim/internal/linalg"
)

// Precision identifies the storage precision of a tile.
type Precision uint8

const (
	// FP64 is IEEE double precision (the paper's DP).
	FP64 Precision = iota
	// FP32 is IEEE single precision (SP).
	FP32
	// FP16 is IEEE half precision (HP), stored as binary16.
	FP16
)

// Bytes returns the storage size of one element.
func (p Precision) Bytes() int {
	switch p {
	case FP64:
		return 8
	case FP32:
		return 4
	case FP16:
		return 2
	}
	panic(fmt.Sprintf("tile: unknown precision %d", p))
}

// String returns the paper's abbreviation for the precision.
func (p Precision) String() string {
	switch p {
	case FP64:
		return "DP"
	case FP32:
		return "SP"
	case FP16:
		return "HP"
	}
	return fmt.Sprintf("Precision(%d)", p)
}

// Tile is a square b x b tile stored at a single precision. Exactly one
// of the payload slices is non-nil.
type Tile struct {
	B    int
	Prec Precision
	F64  []float64
	F32  []float32
	F16  []half.Float16
}

// NewTile allocates a zero tile.
func NewTile(b int, p Precision) *Tile {
	t := &Tile{B: b, Prec: p}
	switch p {
	case FP64:
		t.F64 = make([]float64, b*b)
	case FP32:
		t.F32 = make([]float32, b*b)
	case FP16:
		t.F16 = make([]half.Float16, b*b)
	}
	return t
}

// Bytes returns the storage footprint of the tile payload.
func (t *Tile) Bytes() int64 { return int64(t.B) * int64(t.B) * int64(t.Prec.Bytes()) }

// ToF64 widens the tile into dst (allocated when too small) and returns it.
func (t *Tile) ToF64(dst []float64) []float64 {
	n := t.B * t.B
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	switch t.Prec {
	case FP64:
		copy(dst, t.F64)
	case FP32:
		for i, v := range t.F32 {
			dst[i] = float64(v)
		}
	case FP16:
		half.ToSlice64(dst, t.F16)
	}
	return dst
}

// ToF32 widens (or narrows, for FP64) the tile into dst.
func (t *Tile) ToF32(dst []float32) []float32 {
	n := t.B * t.B
	if cap(dst) < n {
		dst = make([]float32, n)
	}
	dst = dst[:n]
	switch t.Prec {
	case FP64:
		for i, v := range t.F64 {
			dst[i] = float32(v)
		}
	case FP32:
		copy(dst, t.F32)
	case FP16:
		half.ToSlice32(dst, t.F16)
	}
	return dst
}

// FromF64 stores src into the tile, rounding to the tile's precision.
func (t *Tile) FromF64(src []float64) {
	switch t.Prec {
	case FP64:
		copy(t.F64, src)
	case FP32:
		for i, v := range src {
			t.F32[i] = float32(v)
		}
	case FP16:
		half.FromSlice64(t.F16, src)
	}
}

// FromF32 stores src into the tile, rounding to the tile's precision.
func (t *Tile) FromF32(src []float32) {
	switch t.Prec {
	case FP64:
		for i, v := range src {
			t.F64[i] = float64(v)
		}
	case FP32:
		copy(t.F32, src)
	case FP16:
		half.FromSlice32(t.F16, src)
	}
}

// Convert returns a new tile holding this tile's data at precision p.
// This is the conversion that mixed-precision communication performs; the
// mpchol engine counts calls to it to compare sender- vs receiver-side
// policies.
func (t *Tile) Convert(p Precision) *Tile {
	out := NewTile(t.B, p)
	switch p {
	case FP64:
		t.ToF64(out.F64)
	case FP32:
		t.ToF32(out.F32)
	case FP16:
		switch t.Prec {
		case FP64:
			half.FromSlice64(out.F16, t.F64)
		case FP32:
			half.FromSlice32(out.F16, t.F32)
		case FP16:
			copy(out.F16, t.F16)
		}
	}
	return out
}

// MaxAbs returns the largest absolute value in the tile.
func (t *Tile) MaxAbs() float64 {
	worst := 0.0
	switch t.Prec {
	case FP64:
		for _, v := range t.F64 {
			if a := math.Abs(v); a > worst {
				worst = a
			}
		}
	case FP32:
		for _, v := range t.F32 {
			if a := math.Abs(float64(v)); a > worst {
				worst = a
			}
		}
	case FP16:
		for _, v := range t.F16 {
			if a := math.Abs(v.Float64()); a > worst {
				worst = a
			}
		}
	}
	return worst
}

// PrecisionMap assigns a storage precision to the lower tile (i, j),
// i >= j, of an nt x nt tile grid.
type PrecisionMap func(i, j int) Precision

// UniformMap stores every tile at precision p (p = FP64 is the paper's
// reference DP configuration).
func UniformMap(p Precision) PrecisionMap {
	return func(i, j int) Precision { return p }
}

// BandMap keeps tiles within the given tile-bandwidth of the diagonal
// (|i-j| < dpBand) in DP and everything else at outer precision. With
// dpBand = 1 this is the paper's "single band as DP" DP/SP and DP/HP
// setting.
func BandMap(dpBand int, outer Precision) PrecisionMap {
	return func(i, j int) Precision {
		if i-j < dpBand {
			return FP64
		}
		return outer
	}
}

// ThreeLevelMap keeps |i-j| < dpBand in DP, then |i-j| < dpBand+spBand in
// SP, and the rest in HP. The paper's DP/SP/HP configuration uses a DP
// diagonal band with "5% as SP".
func ThreeLevelMap(dpBand, spBand int) PrecisionMap {
	return func(i, j int) Precision {
		d := i - j
		if d < dpBand {
			return FP64
		}
		if d < dpBand+spBand {
			return FP32
		}
		return FP16
	}
}

// Variant names the paper's four benchmark precision configurations.
type Variant int

const (
	// VariantDP is full double precision.
	VariantDP Variant = iota
	// VariantDPSP keeps a single DP diagonal band, SP elsewhere.
	VariantDPSP
	// VariantDPSPHP keeps a DP band, 5% of the tile bandwidth in SP, HP
	// elsewhere.
	VariantDPSPHP
	// VariantDPHP keeps a single DP diagonal band, HP elsewhere.
	VariantDPHP
)

// Variants lists all four configurations in the paper's order.
var Variants = []Variant{VariantDP, VariantDPSP, VariantDPSPHP, VariantDPHP}

// String returns the paper's name for the variant.
func (v Variant) String() string {
	switch v {
	case VariantDP:
		return "DP"
	case VariantDPSP:
		return "DP/SP"
	case VariantDPSPHP:
		return "DP/SP/HP"
	case VariantDPHP:
		return "DP/HP"
	}
	return fmt.Sprintf("Variant(%d)", int(v))
}

// Map returns the variant's precision map for an nt x nt tile grid.
func (v Variant) Map(nt int) PrecisionMap {
	switch v {
	case VariantDP:
		return UniformMap(FP64)
	case VariantDPSP:
		return BandMap(1, FP32)
	case VariantDPSPHP:
		sp := (nt*5 + 99) / 100 // ceil(5% of the tile bandwidth)
		if sp < 1 {
			sp = 1
		}
		return ThreeLevelMap(1, sp)
	case VariantDPHP:
		return BandMap(1, FP16)
	}
	panic(fmt.Sprintf("tile: unknown variant %d", int(v)))
}

// SymmMatrix is a symmetric matrix stored as its lower triangle of
// precision-tagged tiles. The dimension must be a multiple of the tile
// size (callers pad; the emulator's covariance dimension L^2 is chosen
// divisible by the tile size).
type SymmMatrix struct {
	N  int // matrix dimension
	B  int // tile edge
	NT int // tiles per side
	// Tiles[i][j] for j <= i.
	Tiles [][]*Tile
}

// NewSymmMatrix allocates an all-zero tiled matrix with the given
// precision map.
func NewSymmMatrix(n, b int, pm PrecisionMap) *SymmMatrix {
	if n%b != 0 {
		panic(fmt.Sprintf("tile: dimension %d not a multiple of tile size %d", n, b))
	}
	nt := n / b
	s := &SymmMatrix{N: n, B: b, NT: nt, Tiles: make([][]*Tile, nt)}
	for i := 0; i < nt; i++ {
		s.Tiles[i] = make([]*Tile, i+1)
		for j := 0; j <= i; j++ {
			s.Tiles[i][j] = NewTile(b, pm(i, j))
		}
	}
	return s
}

// FromDense builds a tiled copy of the lower triangle of a dense
// symmetric matrix, rounding each tile to its assigned precision.
func FromDense(a *linalg.Matrix, b int, pm PrecisionMap) *SymmMatrix {
	if a.Rows != a.Cols {
		panic("tile: FromDense requires a square matrix")
	}
	s := NewSymmMatrix(a.Rows, b, pm)
	buf := make([]float64, b*b)
	for i := 0; i < s.NT; i++ {
		for j := 0; j <= i; j++ {
			for r := 0; r < b; r++ {
				copy(buf[r*b:(r+1)*b], a.Data[(i*b+r)*a.Cols+j*b:(i*b+r)*a.Cols+j*b+b])
			}
			s.Tiles[i][j].FromF64(buf)
		}
	}
	return s
}

// ToDense widens the tiled matrix back to a dense matrix with both
// triangles filled (symmetric completion).
func (s *SymmMatrix) ToDense() *linalg.Matrix {
	a := linalg.NewMatrix(s.N, s.N)
	buf := make([]float64, s.B*s.B)
	for i := 0; i < s.NT; i++ {
		for j := 0; j <= i; j++ {
			s.Tiles[i][j].ToF64(buf)
			for r := 0; r < s.B; r++ {
				copy(a.Data[(i*s.B+r)*s.N+j*s.B:(i*s.B+r)*s.N+j*s.B+s.B], buf[r*s.B:(r+1)*s.B])
			}
		}
	}
	a.SymmetrizeFromLower()
	return a
}

// Bytes returns the total tile storage, the quantity the paper's
// memory-aware runtime minimizes (Section III-C).
func (s *SymmMatrix) Bytes() int64 {
	var total int64
	for i := range s.Tiles {
		for _, t := range s.Tiles[i] {
			total += t.Bytes()
		}
	}
	return total
}

// BytesAllDP returns the storage the same matrix would need in full DP,
// for savings reports.
func (s *SymmMatrix) BytesAllDP() int64 {
	tiles := int64(s.NT) * int64(s.NT+1) / 2
	return tiles * int64(s.B) * int64(s.B) * 8
}

// CountByPrecision tallies lower-triangle tiles per precision.
func (s *SymmMatrix) CountByPrecision() map[Precision]int {
	out := make(map[Precision]int)
	for i := range s.Tiles {
		for _, t := range s.Tiles[i] {
			out[t.Prec]++
		}
	}
	return out
}

// CountMap tallies tiles per precision for a precision map without
// materializing a matrix, so a map can be counted at dimensions too
// large to allocate (nt in the thousands).
func CountMap(nt int, pm PrecisionMap) map[Precision]int64 {
	out := make(map[Precision]int64)
	for i := 0; i < nt; i++ {
		for j := 0; j <= i; j++ {
			out[pm(i, j)]++
		}
	}
	return out
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
