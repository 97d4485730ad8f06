// Package archive implements exaclim's chunked, mixed-precision on-disk
// store for spatio-temporal field series — the subsystem that turns the
// paper's "saving petabytes" claim into measured bytes instead of an
// analytic estimate (see internal/storagemodel for the distinction).
//
// Fields are stored in the spherical harmonic domain, where energy
// concentrates at low degrees: each time step is the real-packed
// coefficient vector of sht.PackReal (length L^2, degree-major, an
// isometry so spectral error equals field L2 error), split into
// contiguous degree bands that each carry their own storage precision —
// float64, float32 or IEEE binary16, mirroring the paper's DP/SP/HP tile
// variants. A spectrum-aware Policy picks each band's width from its
// power fraction under a user-set relative-error budget.
//
// On-disk layout (all integers little-endian):
//
//	[Header][Chunk]...[Chunk][Index][Trailer]
//
// The header freezes the grid, band limit, campaign shape (members x
// scenarios x steps), chunking, and the band table, and ends with a
// CRC32. Each chunk holds up to ChunkSteps consecutive steps of one
// (member, scenario) series, framed with its identity and a CRC32 so
// corruption is detected at read time. Every step record stores, per
// band, a power-of-two scale (applied exactly, so only the target
// precision's rounding error remains) followed by the band's
// coefficients at the band's width. The index maps every (series, chunk)
// to its file offset, enabling O(1) seeks to any (member, scenario, t);
// the trailer locates the index.
package archive

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"exaclim/internal/half"
	"exaclim/internal/sht"
	"exaclim/internal/sphere"
	"exaclim/internal/tile"
)

const (
	headerMagic  = "EXACLIMA"
	trailerMagic = "EXACLIMZ"
	version      = 1

	// DefaultChunkSteps is the steps-per-chunk default: small enough
	// that random access decodes little excess data, large enough that
	// chunk framing is amortized away.
	DefaultChunkSteps = 32

	chunkHeaderLen = 16 // member, scenario, t0, count (4 x uint32)
	trailerLen     = 16 // index offset (uint64) + trailer magic
)

// Band assigns one storage precision to the spherical-harmonic degrees
// [Lo, Hi). In the real packing, degree l occupies indices [l^2,
// (l+1)^2), so a band is a contiguous slice of every step vector.
type Band struct {
	Lo, Hi int
	Prec   tile.Precision
}

// Coeffs returns the number of packed coefficients the band covers.
func (b Band) Coeffs() int { return b.Hi*b.Hi - b.Lo*b.Lo }

// String renders the band like "l∈[2,6) SP".
func (b Band) String() string {
	return fmt.Sprintf("l∈[%d,%d) %s", b.Lo, b.Hi, b.Prec)
}

// UniformBands returns a single band storing every degree below L at
// precision p — the fixed-width reference configurations tests and
// reports compare the planned policy against.
func UniformBands(L int, p tile.Precision) []Band {
	return []Band{{Lo: 0, Hi: L, Prec: p}}
}

// Header describes an archive: the geometry of the stored fields, the
// campaign shape, the chunking, and the per-degree-band precision table.
type Header struct {
	// Grid is the spatial grid fields are synthesized on at read time.
	Grid sphere.Grid
	// L is the spherical-harmonic band limit of the stored coefficients.
	L int
	// Members, Scenarios and Steps fix the campaign shape: the archive
	// holds Members x Scenarios series of Steps steps each.
	Members, Scenarios, Steps int
	// ChunkSteps is the number of consecutive steps per chunk
	// (DefaultChunkSteps when zero).
	ChunkSteps int
	// Bands is the precision table; nil defaults to a single FP32 band.
	Bands []Band
	// MaxRelErr records the Policy budget the bands were planned for
	// (informational; zero when unspecified).
	MaxRelErr float64
}

// withDefaults returns a copy with zero fields defaulted.
func (h Header) withDefaults() Header {
	if h.ChunkSteps == 0 {
		h.ChunkSteps = DefaultChunkSteps
	}
	if h.Bands == nil {
		h.Bands = UniformBands(h.L, tile.FP32)
	}
	return h
}

// validate checks the header is internally consistent.
func (h Header) validate() error {
	if h.L < 1 {
		return fmt.Errorf("archive: invalid band limit %d", h.L)
	}
	if !h.Grid.SupportsBandLimit(h.L) {
		return fmt.Errorf("archive: grid %v does not support band limit %d", h.Grid, h.L)
	}
	if h.Members < 1 || h.Scenarios < 1 || h.Steps < 1 {
		return fmt.Errorf("archive: campaign shape %dx%dx%d needs every dimension >= 1",
			h.Members, h.Scenarios, h.Steps)
	}
	if h.ChunkSteps < 1 {
		return fmt.Errorf("archive: chunk size %d must be >= 1", h.ChunkSteps)
	}
	if len(h.Bands) == 0 {
		return fmt.Errorf("archive: no precision bands")
	}
	lo := 0
	for i, b := range h.Bands {
		if b.Lo != lo || b.Hi <= b.Lo {
			return fmt.Errorf("archive: band %d (%v) breaks contiguous coverage at degree %d", i, b, lo)
		}
		if b.Prec != tile.FP64 && b.Prec != tile.FP32 && b.Prec != tile.FP16 {
			return fmt.Errorf("archive: band %d has unknown precision %d", i, b.Prec)
		}
		lo = b.Hi
	}
	if lo != h.L {
		return fmt.Errorf("archive: bands cover degrees [0,%d), want [0,%d)", lo, h.L)
	}
	// Chunk lengths are stored as uint32 in the index and chunk framing;
	// reject shapes whose chunks could not be addressed losslessly.
	if maxChunk := int64(chunkHeaderLen) + int64(h.ChunkSteps)*int64(h.StepBytes()) + 4; maxChunk > math.MaxUint32 {
		return fmt.Errorf("archive: chunk of %d steps x %d B exceeds the 4 GiB chunk limit; lower ChunkSteps",
			h.ChunkSteps, h.StepBytes())
	}
	return nil
}

// Dim returns the packed coefficient vector length L^2.
func (h Header) Dim() int { return sht.PackDim(h.L) }

// StepBytes returns the encoded size of one step record: per band, an
// 8-byte scale plus the band's coefficients at the band's width.
func (h Header) StepBytes() int {
	n := 0
	for _, b := range h.Bands {
		n += 8 + b.Coeffs()*b.Prec.Bytes()
	}
	return n
}

// Series returns the number of stored series (Members x Scenarios).
func (h Header) Series() int { return h.Members * h.Scenarios }

// Chunks returns the chunk count of one series.
func (h Header) Chunks() int { return (h.Steps + h.ChunkSteps - 1) / h.ChunkSteps }

// seriesID flattens (member, scenario) into the index order.
func (h Header) seriesID(member, scenario int) int { return scenario*h.Members + member }

// checkCoord validates a (member, scenario, t) coordinate.
func (h Header) checkCoord(member, scenario, t int) error {
	if member < 0 || member >= h.Members {
		return fmt.Errorf("archive: member %d out of range [0,%d)", member, h.Members)
	}
	if scenario < 0 || scenario >= h.Scenarios {
		return fmt.Errorf("archive: scenario %d out of range [0,%d)", scenario, h.Scenarios)
	}
	if t < 0 || t >= h.Steps {
		return fmt.Errorf("archive: step %d out of range [0,%d)", t, h.Steps)
	}
	return nil
}

// encodeHeader serializes the header with a trailing CRC32.
func encodeHeader(h Header) []byte {
	buf := make([]byte, 0, 56+9*len(h.Bands))
	buf = append(buf, headerMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, version)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(h.L))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(h.Grid.NLat))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(h.Grid.NLon))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(h.Members))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(h.Scenarios))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(h.Steps))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(h.ChunkSteps))
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(h.MaxRelErr))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(h.Bands)))
	for _, b := range h.Bands {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(b.Lo))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(b.Hi))
		buf = append(buf, byte(b.Prec))
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// headerPrefixLen is the fixed-size portion before the band table.
const headerPrefixLen = 52

// decodeHeader parses and validates a serialized header, returning the
// header and its total encoded length.
func decodeHeader(data []byte) (Header, int, error) {
	var h Header
	if len(data) < headerPrefixLen {
		return h, 0, fmt.Errorf("archive: file too short for header (%d bytes)", len(data))
	}
	if string(data[:8]) != headerMagic {
		return h, 0, fmt.Errorf("archive: bad magic %q", data[:8])
	}
	if v := binary.LittleEndian.Uint32(data[8:]); v != version {
		return h, 0, fmt.Errorf("archive: unsupported version %d", v)
	}
	h.L = int(binary.LittleEndian.Uint32(data[12:]))
	nlat := int(binary.LittleEndian.Uint32(data[16:]))
	nlon := int(binary.LittleEndian.Uint32(data[20:]))
	h.Members = int(binary.LittleEndian.Uint32(data[24:]))
	h.Scenarios = int(binary.LittleEndian.Uint32(data[28:]))
	h.Steps = int(binary.LittleEndian.Uint32(data[32:]))
	h.ChunkSteps = int(binary.LittleEndian.Uint32(data[36:]))
	h.MaxRelErr = math.Float64frombits(binary.LittleEndian.Uint64(data[40:]))
	nbands := int(binary.LittleEndian.Uint32(data[48:]))
	if nbands < 0 || nbands > 1<<20 {
		return h, 0, fmt.Errorf("archive: implausible band count %d", nbands)
	}
	total := headerPrefixLen + 9*nbands + 4
	if len(data) < total {
		return h, 0, fmt.Errorf("archive: file too short for %d-band header", nbands)
	}
	if nlat < 2 || nlon < 1 {
		return h, 0, fmt.Errorf("archive: invalid grid %dx%d", nlat, nlon)
	}
	h.Grid = sphere.NewGrid(nlat, nlon)
	h.Bands = make([]Band, nbands)
	for i := range h.Bands {
		off := headerPrefixLen + 9*i
		h.Bands[i] = Band{
			Lo:   int(binary.LittleEndian.Uint32(data[off:])),
			Hi:   int(binary.LittleEndian.Uint32(data[off+4:])),
			Prec: tile.Precision(data[off+8]),
		}
	}
	want := binary.LittleEndian.Uint32(data[total-4:])
	if got := crc32.ChecksumIEEE(data[:total-4]); got != want {
		return h, 0, fmt.Errorf("archive: header checksum mismatch (corrupt header)")
	}
	if err := h.validate(); err != nil {
		return h, 0, err
	}
	return h, total, nil
}

// scaleFor returns the power-of-two scale that places maxAbs in
// [256, 512). Power-of-two scaling is exact in binary floating point, so
// the only loss a scaled band suffers is the target precision's own
// rounding, while the [256, 512) window keeps binary16 payloads far from
// overflow (65504) and — for all but a 2^-22 relative tail — out of the
// gradual-underflow range.
func scaleFor(maxAbs float64) float64 {
	if maxAbs == 0 || math.IsInf(maxAbs, 0) || math.IsNaN(maxAbs) {
		return 1
	}
	s := math.Ldexp(1, math.Ilogb(maxAbs)-8)
	if s == 0 || math.IsInf(s, 0) {
		return 1
	}
	return s
}

// QuantErrBound returns the guaranteed absolute quantization error of
// storing value v at precision p under band scale s: the precision's
// unit roundoff times |v| plus a subnormal-spacing term (values whose
// scaled magnitude falls into the target format's gradual-underflow
// range round with absolute, not relative, error). The round-trip
// property tests enforce this bound element-wise.
func QuantErrBound(p tile.Precision, v, s float64) float64 {
	switch p {
	case tile.FP64:
		return 0
	case tile.FP32:
		return 0x1p-24*math.Abs(v) + s*0x1p-149
	case tile.FP16:
		return 0x1p-11*math.Abs(v) + s*0x1p-24
	}
	panic(fmt.Sprintf("archive: unknown precision %d", p))
}

// appendStep encodes one packed coefficient vector under the band table,
// returning the extended buffer together with the squared quantization
// error and squared norm of the step (so writers can report measured
// relative reconstruction error without a decode pass).
func appendStep(buf []byte, bands []Band, packed []float64) (out []byte, err2, norm2 float64) {
	for _, b := range bands {
		seg := packed[b.Lo*b.Lo : b.Hi*b.Hi]
		maxAbs := 0.0
		for _, v := range seg {
			norm2 += v * v
			if a := math.Abs(v); a > maxAbs {
				maxAbs = a
			}
		}
		s := 1.0
		if b.Prec != tile.FP64 {
			s = scaleFor(maxAbs)
		}
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(s))
		inv := 1 / s
		switch b.Prec {
		case tile.FP64:
			for _, v := range seg {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
			}
		case tile.FP32:
			for _, v := range seg {
				q := float32(v * inv)
				buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(q))
				d := v - float64(q)*s
				err2 += d * d
			}
		case tile.FP16:
			for _, v := range seg {
				q := half.FromFloat64(v * inv)
				buf = binary.LittleEndian.AppendUint16(buf, uint16(q))
				d := v - q.Float64()*s
				err2 += d * d
			}
		}
	}
	return buf, err2, norm2
}

// decodeStep decodes one step record into dst (length L^2) at either
// width — the one decoder under every read path. It walks the record's
// framing; dequantize converts each band's payload. f16, when non-nil, is
// fp16Table(): FP16 values are then looked up instead of converted, to
// the same bits.
func decodeStep[E sht.Real](data []byte, bands []Band, dst []E, f16 *[1 << 16]float64) error {
	off := 0
	for _, b := range bands {
		if off+8 > len(data) {
			return fmt.Errorf("archive: step record truncated at band %v", b)
		}
		s := math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
		off += 8
		size := b.Prec.Bytes() * b.Coeffs()
		if off+size > len(data) {
			return fmt.Errorf("archive: step record truncated at band %v", b)
		}
		dequantize(dst[b.Lo*b.Lo:b.Hi*b.Hi], data[off:off+size], b.Prec, s, f16)
		off += size
	}
	if off != len(data) {
		return fmt.Errorf("archive: step record has %d trailing bytes", len(data)-off)
	}
	return nil
}

// dequantize converts one band's payload rec, len(seg) values of
// precision p under scale s, into seg. FP32 and FP16 values dequantize in
// float64 and convert once at the end: the band scale is a power of two
// that may be subnormal in float32, where multiplying in float32 would
// flush the result to zero, and the product q*s is exact in float64, so
// the only rounding a float32 caller sees is that final conversion (for
// FP32 bands with a normal scale it reproduces the quantized payload bit
// for bit). The loops are a leaf of their own so that their few values
// stay in registers: inside decodeStep they spilled, and the range walk
// measured 13 % slower for it.
func dequantize[E sht.Real](seg []E, rec []byte, p tile.Precision, s float64, f16 *[1 << 16]float64) {
	switch {
	case p == tile.FP64:
		for i := range seg {
			seg[i] = E(math.Float64frombits(binary.LittleEndian.Uint64(rec[8*i:])))
		}
	case p == tile.FP32:
		for i := range seg {
			seg[i] = E(float64(math.Float32frombits(binary.LittleEndian.Uint32(rec[4*i:]))) * s)
		}
	case f16 != nil:
		for i := range seg {
			seg[i] = E(f16[binary.LittleEndian.Uint16(rec[2*i:])] * s)
		}
	default:
		for i := range seg {
			seg[i] = E(half.Float16(binary.LittleEndian.Uint16(rec[2*i:])).Float64() * s)
		}
	}
}

// chunkRef locates one chunk in the file.
type chunkRef struct {
	off    int64
	length uint32
}

// encodeIndex serializes the per-series chunk tables with a CRC32.
func encodeIndex(index [][]chunkRef) []byte {
	n := 4
	for _, refs := range index {
		n += 4 + 12*len(refs)
	}
	buf := make([]byte, 0, n+4)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(index)))
	for _, refs := range index {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(refs)))
		for _, r := range refs {
			buf = binary.LittleEndian.AppendUint64(buf, uint64(r.off))
			buf = binary.LittleEndian.AppendUint32(buf, r.length)
		}
	}
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
}

// decodeIndex parses the index block, validating its CRC and shape
// against the header.
func decodeIndex(data []byte, h Header) ([][]chunkRef, error) {
	if len(data) < 8 {
		return nil, fmt.Errorf("archive: index block too short (%d bytes)", len(data))
	}
	want := binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.ChecksumIEEE(data[:len(data)-4]); got != want {
		return nil, fmt.Errorf("archive: index checksum mismatch (corrupt index)")
	}
	data = data[:len(data)-4]
	nSeries := int(binary.LittleEndian.Uint32(data))
	if nSeries != h.Series() {
		return nil, fmt.Errorf("archive: index holds %d series, header says %d", nSeries, h.Series())
	}
	off := 4
	index := make([][]chunkRef, nSeries)
	for sid := range index {
		if off+4 > len(data) {
			return nil, fmt.Errorf("archive: index truncated at series %d", sid)
		}
		nChunks := int(binary.LittleEndian.Uint32(data[off:]))
		off += 4
		if nChunks != h.Chunks() {
			return nil, fmt.Errorf("archive: series %d has %d chunks, want %d", sid, nChunks, h.Chunks())
		}
		refs := make([]chunkRef, nChunks)
		for k := range refs {
			if off+12 > len(data) {
				return nil, fmt.Errorf("archive: index truncated at series %d chunk %d", sid, k)
			}
			refs[k] = chunkRef{
				off:    int64(binary.LittleEndian.Uint64(data[off:])),
				length: binary.LittleEndian.Uint32(data[off+8:]),
			}
			off += 12
		}
		index[sid] = refs
	}
	if off != len(data) {
		return nil, fmt.Errorf("archive: index has %d trailing bytes", len(data)-off)
	}
	return index, nil
}
