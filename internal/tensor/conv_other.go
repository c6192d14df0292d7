//go:build !amd64

package tensor

// useAVX2 is false off amd64: Conv2DInto runs the scalar kernel only. It
// is a variable, as on amd64, so the tests that force the fallback compile
// on every architecture.
var useAVX2 = false

func conv4x8AVX2(dst *float32, dstStride int, xp *float32, offs *int, wg *[4]float32, k int, bias *float32, blocks int) {
	panic("tensor: AVX2 kernel called off amd64")
}

func conv1x8AVX2(dst *float32, xp *float32, offs *int, w *float32, k int, bias float32, blocks int) {
	panic("tensor: AVX2 kernel called off amd64")
}
