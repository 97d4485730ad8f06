//go:build !amd64

package linalg

// panelSupported is false off amd64: every product runs on dot2x4.
const panelSupported = false

func dot2x8(a0, a1, pb []float64, acc *[16]float64) {
	panic("linalg: dot2x8 is amd64 only")
}
