package linalg

// panelSupported reports that the CPU has AVX and that the OS saves the
// YMM registers across context switches, which dot2x8 and dot1x16 need.
var panelSupported = hasAVX()

// hasAVX reads CPUID leaf 1 (AVX, OSXSAVE) and XCR0 (XMM and YMM state).
func hasAVX() bool

// dot2x8 adds the 2 x 8 tile of dot products to acc:
//
//	acc[8r+s] += sum_p a_r[p] * pb[8p+s],  r in {0,1}, s in {0..7},
//
// p ascending over len(a0), one accumulator per element, each product
// rounded and then added (VMULPD, VADDPD; never a fused multiply-add), so
// every element has the bits of dot2x4's scalar loop. a1 has len(a0)
// elements and pb, eight columns interleaved along p, 8*len(a0).
//
//go:noescape
func dot2x8(a0, a1, pb []float64, acc *[16]float64)

// dot1x16 adds one vector's products with a panel of sixteen rows to acc:
//
//	acc[r] += sum_j x[j] * pb[16j+r],  r in {0..15},
//
// j ascending over len(x), one accumulator per row, each product rounded
// and then added (VMULPD, VADDPD; never fused), so every element has the
// bits of LowerMulVec's scalar loop. pb holds the sixteen rows interleaved
// along j, 16*len(x) elements.
//
//go:noescape
func dot1x16(x, pb []float64, acc *[16]float64)
