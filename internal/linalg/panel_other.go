//go:build !amd64

package linalg

// panelSupported is false off amd64: every product runs on dot2x4, and
// PackLower packs nothing, so LowerPanels.MulVec is LowerMulVec.
const panelSupported = false

func dot2x8(a0, a1, pb []float64, acc *[16]float64) {
	panic("linalg: dot2x8 is amd64 only")
}

func dot1x16(x, pb []float64, acc *[16]float64) {
	panic("linalg: dot1x16 is amd64 only")
}
