package archive

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// TestDecodeDigestAcrossCommits pins every decode entry point to the
// bytes it produced at the commit before decodeStep, decodeStepLUT and
// decodeStepF32 became one generic decoder (digests computed at the
// parent commit), over the mixed FP64/FP32/FP16 band table: per-step
// ReadPacked, per-step ReadPackedF32 and the chunk-granular
// ReadPackedRange, each over every (member, scenario, t) in order.
func TestDecodeDigestAcrossCommits(t *testing.T) {
	const (
		wantF64   = "d64de9d9df9a7bfe029f3d608ab3eb64db78ea6a43055c37190394bdba847423"
		wantF32   = "373a00c31e9e1fe9fcab91918976e007242b88104ab085a09d23d04f9e978236"
		wantRange = "d64de9d9df9a7bfe029f3d608ab3eb64db78ea6a43055c37190394bdba847423"
	)
	const L = 8
	r, h, _ := openTestArchive(t, L, mixedBands(L))
	h64, h32, hr := sha256.New(), sha256.New(), sha256.New()
	var buf [8]byte
	var p64 []float64
	var p32 []float32
	var err error
	for m := 0; m < h.Members; m++ {
		for s := 0; s < h.Scenarios; s++ {
			for tt := 0; tt < h.Steps; tt++ {
				if p64, err = r.ReadPacked(m, s, tt, p64); err != nil {
					t.Fatal(err)
				}
				for _, v := range p64 {
					binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
					h64.Write(buf[:])
				}
				if p32, err = r.ReadPackedF32(m, s, tt, p32); err != nil {
					t.Fatal(err)
				}
				for _, v := range p32 {
					binary.LittleEndian.PutUint32(buf[:4], math.Float32bits(v))
					h32.Write(buf[:4])
				}
			}
			cur, err := r.Series(m, s)
			if err != nil {
				t.Fatal(err)
			}
			err = cur.ReadPackedRange(0, h.Steps, func(_ int, packed []float64) error {
				for _, v := range packed {
					binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
					hr.Write(buf[:])
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, c := range []struct{ name, got, want string }{
		{"ReadPacked", fmt.Sprintf("%x", h64.Sum(nil)), wantF64},
		{"ReadPackedF32", fmt.Sprintf("%x", h32.Sum(nil)), wantF32},
		{"ReadPackedRange", fmt.Sprintf("%x", hr.Sum(nil)), wantRange},
	} {
		if c.got != c.want {
			t.Errorf("%s digest %s, want %s: the decoder changed a value", c.name, c.got, c.want)
		}
	}
}
