package archive

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"exaclim/internal/sphere"
	"exaclim/internal/tile"
)

// fuzzArchive builds one small valid archive for the fuzz targets to
// mutate: 1 member, 1 scenario, 5 steps in 2-step chunks, mixed bands.
func fuzzArchive(tb testing.TB) (Header, []byte) {
	const L = 6
	h := Header{Grid: sphere.GridForBandLimit(L), L: L,
		Members: 1, Scenarios: 1, Steps: 5, ChunkSteps: 2,
		Bands: []Band{{0, 2, tile.FP64}, {2, 4, tile.FP32}, {4, L, tile.FP16}}}
	var buf bytes.Buffer
	w, err := NewWriter(&buf, h)
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for t := 0; t < h.Steps; t++ {
		if err := w.AddPacked(0, 0, t, decayingPacked(rng, L, 10, 0.5)); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	return h, buf.Bytes()
}

// FuzzReadHeader feeds arbitrary bytes to NewReader: the frame parser
// (header, trailer, index, and the cross-checks between them) must
// reject anything malformed with an error — never a panic or an
// out-of-bounds access — because archives arrive over the network and
// from long-term storage.
func FuzzReadHeader(f *testing.F) {
	_, valid := fuzzArchive(f)
	f.Add(valid)
	f.Add(valid[:len(valid)-10]) // missing trailer
	f.Add(valid[:headerPrefixLen])
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 256))
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := NewReader(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return
		}
		// A file that passes validation must serve reads without
		// panicking (data errors like a CRC mismatch are fine).
		h := r.Header()
		r.ReadPacked(0, 0, 0, nil)
		r.ReadPacked(h.Members-1, h.Scenarios-1, h.Steps-1, nil)
	})
}

// FuzzDecodeChunk splices arbitrary bytes into a valid archive and
// replays every step: chunk decode must surface corruption as an error
// (usually the CRC) and never panic, whatever the damage — including
// damage to the index that redirects reads to the wrong frames.
func FuzzDecodeChunk(f *testing.F) {
	h, valid := fuzzArchive(f)
	f.Add(0, []byte{0x00})
	f.Add(len(valid)/2, []byte{0xff, 0xff, 0xff, 0xff})
	f.Add(len(valid)-5, []byte{0x01})
	// Whole step records, intact and cut short: the decoder's own corpus.
	rec := valid[headerPrefixLen+9*len(h.Bands)+4+chunkHeaderLen:][:h.StepBytes()]
	f.Add(0, append([]byte(nil), rec...))
	f.Add(0, append([]byte(nil), rec[:len(rec)-3]...))
	f.Fuzz(func(t *testing.T, pos int, patch []byte) {
		fuzzDecodeStep(t, h, patch)
		if len(patch) == 0 || len(patch) > len(valid) {
			return
		}
		pos %= len(valid) - len(patch) + 1
		if pos < 0 {
			pos += len(valid) - len(patch) + 1
		}
		data := append([]byte(nil), valid...)
		copy(data[pos:], patch)

		r, err := NewReader(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return
		}
		for tt := 0; tt < h.Steps; tt++ {
			r.ReadPacked(0, 0, tt, nil)
		}
		cur, err := r.Series(0, 0)
		if err != nil {
			return
		}
		var packed []float64
		for tt := 0; tt < h.Steps; tt++ {
			packed, _ = cur.ReadPacked(tt, packed)
		}
	})
}

// fuzzDecodeStep hands rec to the step decoder as a raw record — past
// the CRC that shields it inside a file — at both widths, with and
// without the FP16 table: it must reject a malformed record with an
// error, never index out of range, and on a well-formed one the four
// instantiations must agree (the table to the bit, float32 as the
// float64 value rounded once).
func fuzzDecodeStep(t *testing.T, h Header, rec []byte) {
	d64, l64 := make([]float64, h.Dim()), make([]float64, h.Dim())
	d32, l32 := make([]float32, h.Dim()), make([]float32, h.Dim())
	err := decodeStep(rec, h.Bands, d64, nil)
	for i, e := range []error{
		decodeStep(rec, h.Bands, l64, fp16Table()),
		decodeStep(rec, h.Bands, d32, nil),
		decodeStep(rec, h.Bands, l32, fp16Table()),
	} {
		if (e == nil) != (err == nil) {
			t.Fatalf("instantiation %d: error %v, float64 arithmetic decode: %v", i+1, e, err)
		}
	}
	if err != nil {
		return
	}
	for i, v := range d64 {
		// NaN payloads compare by bits, like everything else here.
		if math.Float64bits(l64[i]) != math.Float64bits(v) {
			t.Fatalf("coeff %d: table decode %x, arithmetic %x", i, math.Float64bits(l64[i]), math.Float64bits(v))
		}
		if w := float32(v); math.Float32bits(d32[i]) != math.Float32bits(w) || math.Float32bits(l32[i]) != math.Float32bits(w) {
			t.Fatalf("coeff %d: float32 decodes %g / %g, float64 value rounds to %g", i, d32[i], l32[i], w)
		}
	}
}
