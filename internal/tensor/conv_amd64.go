package tensor

// useAVX2 routes the stride-1 output rows of Conv2DInto through the AVX2
// micro-kernels of conv_amd64.s; the scalar kernel computes what they leave
// (column tails, other strides) and everything when it is false. It is a
// variable so tests can force the scalar fallback on AVX2 hosts.
var useAVX2 = cpuHasAVX2()

// cpuHasAVX2 reports whether the CPU implements AVX2 and the OS saves the
// YMM register state.
func cpuHasAVX2() bool

// conv4x8AVX2 writes blocks×8 adjacent outputs of four output channels,
// channel r at dst[r*dstStride:]. Output column j reads its k taps at
// xp[j+offs[i]]; wg holds their weights, the four channels interleaved,
// and bias the four channels' biases.
//
//go:noescape
func conv4x8AVX2(dst *float32, dstStride int, xp *float32, offs *int, wg *[4]float32, k int, bias *float32, blocks int)

// conv1x8AVX2 writes blocks×8 adjacent outputs of one output channel with
// weights w[:k] and the given bias, reading taps as conv4x8AVX2 does.
//
//go:noescape
func conv1x8AVX2(dst *float32, xp *float32, offs *int, w *float32, k int, bias float32, blocks int)
