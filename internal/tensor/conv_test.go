package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// loweredConv is the reference convolution: Im2Col + MatMul + bias add,
// the lowering the direct kernel replaces, for one CHW image.
func loweredConv(x, weight, bias *Tensor, stride, pad int) *Tensor {
	oc, kh, kw := weight.Shape[0], weight.Shape[2], weight.Shape[3]
	cols := Im2Col(x, kh, kw, stride, pad)
	out := MatMul(weight.Reshape(oc, -1), cols)
	p := cols.Shape[1]
	for o := 0; o < oc; o++ {
		row := out.Data[o*p : (o+1)*p]
		for i := range row {
			row[i] += bias.Data[o]
		}
	}
	return out.Reshape(oc, ConvOutSize(x.Shape[1], kh, stride, pad), ConvOutSize(x.Shape[2], kw, stride, pad))
}

// convCase draws weights with every third one exactly zero and an input
// batch with about half its values ReLU-zeroed, the two places where the
// lowered path's zero-weight skip and the kernel's padding could diverge.
func convCase(rng *rand.Rand, n, inC, outC, k int, h, w int) (x, weight, bias *Tensor) {
	x = New(n*inC, h, w)
	for i := range x.Data {
		if v := rng.Float32()*2 - 1; v > 0 {
			x.Data[i] = v
		}
	}
	weight = New(outC, inC, k, k)
	for i := range weight.Data {
		if i%3 != 0 {
			weight.Data[i] = rng.Float32()*2 - 1
		}
	}
	bias = New(outC)
	for i := range bias.Data {
		bias.Data[i] = rng.Float32() - 0.5
	}
	return x, weight, bias
}

// kernelModes runs fn with the AVX2 micro-kernels as detected and again
// with them forced off, so the scalar fallback stays covered on AVX2 hosts.
func kernelModes(t *testing.T, fn func(t *testing.T)) {
	detected := useAVX2
	defer func() { useAVX2 = detected }()
	modes := []bool{false}
	if detected {
		modes = []bool{true, false}
	}
	for _, simd := range modes {
		useAVX2 = simd
		t.Run(fmt.Sprintf("avx2=%v", simd), fn)
	}
}

// TestConv2DIntoMatchesLowering pins the direct kernel to Im2Col + MatMul
// + bias bitwise (==, no tolerance) over kernel sizes, strides, paddings,
// odd spatial sizes, channel counts off the four-channel register block,
// batches of one to three items and one to four workers, with the AVX2
// micro-kernels on and off. One scratch serves every case, so its reuse
// across geometries is covered too.
func TestConv2DIntoMatchesLowering(t *testing.T) {
	kernelModes(t, testConv2DIntoMatchesLowering)
}

func testConv2DIntoMatchesLowering(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var s ConvScratch
	for _, k := range []int{1, 3, 5} {
		for _, stride := range []int{1, 2} {
			for _, pad := range []int{0, 1, 2} {
				for _, ch := range [][2]int{{1, 1}, {3, 5}, {1, 4}, {5, 7}, {6, 9}} {
					h, w := 7+2*rng.Intn(3), 9+2*rng.Intn(3)
					n := 1 + rng.Intn(3)
					inC, outC := ch[0], ch[1]
					name := fmt.Sprintf("k%d-s%d-p%d-in%d-out%d-%dx%d-n%d", k, stride, pad, inC, outC, h, w, n)
					x, weight, bias := convCase(rng, n, inC, outC, k, h, w)
					outH, outW := ConvOutSize(h, k, stride, pad), ConvOutSize(w, k, stride, pad)
					for _, procs := range []int{1, 4} {
						prev := runtime.GOMAXPROCS(procs)
						dst := Full(-7, n*outC, outH, outW) // dirty: every element must be written
						Conv2DInto(dst, x, weight, bias, stride, pad, &s)
						runtime.GOMAXPROCS(prev)
						for i := 0; i < n; i++ {
							item := FromSlice(x.Data[i*inC*h*w:(i+1)*inC*h*w], inC, h, w)
							want := loweredConv(item, weight, bias, stride, pad)
							got := dst.Data[i*outC*outH*outW : (i+1)*outC*outH*outW]
							for j, v := range want.Data {
								if got[j] != v {
									t.Fatalf("%s procs %d item %d elem %d: kernel %v != lowered %v", name, procs, i, j, got[j], v)
								}
							}
						}
					}
				}
			}
		}
	}
}

// archiveConvShapes are the eight convolution layers of the serving
// benchmark's networks on a 96×64 frame (3×3, stride 1, pad 1): NN-L
// (FCN, width 8) and NN-S (8 features).
var archiveConvShapes = []struct {
	name            string
	inC, outC, h, w int
}{
	{"fcn.00_conv2d", 1, 8, 64, 96},
	{"fcn.03_conv2d", 8, 16, 32, 48},
	{"fcn.06_conv2d", 16, 16, 16, 24},
	{"fcn.09_conv2d", 16, 8, 32, 48},
	{"fcn.12_conv2d", 8, 1, 64, 96},
	{"nns.conv1", 3, 8, 64, 96},
	{"nns.conv2", 8, 8, 32, 48},
	{"nns.conv3", 16, 1, 64, 96},
}

// convDiff runs one geometry through Conv2DInto with the AVX2 kernels (on
// hosts that have them) and without, and through Im2Col + MatMul + bias
// per item, and fails unless all three agree bit for bit.
func convDiff(t *testing.T, name string, x, weight, bias *Tensor, n, stride, pad int) {
	t.Helper()
	inC, h, w := weight.Shape[1], x.Shape[1], x.Shape[2]
	outC, k := weight.Shape[0], weight.Shape[2]
	outH, outW := ConvOutSize(h, k, stride, pad), ConvOutSize(w, k, stride, pad)
	detected := useAVX2
	defer func() { useAVX2 = detected }()
	run := func(simd bool) *Tensor {
		useAVX2 = simd
		dst := Full(-7, n*outC, outH, outW) // dirty: every element must be written
		Conv2DInto(dst, x, weight, bias, stride, pad, &ConvScratch{})
		return dst
	}
	scalar := run(false)
	simd := scalar
	if detected {
		simd = run(true)
	}
	for i := 0; i < n; i++ {
		item := FromSlice(x.Data[i*inC*h*w:(i+1)*inC*h*w], inC, h, w)
		want := loweredConv(item, weight, bias, stride, pad)
		off := i * len(want.Data)
		for j, v := range want.Data {
			lw, sc, av := math.Float32bits(v), math.Float32bits(scalar.Data[off+j]), math.Float32bits(simd.Data[off+j])
			if sc != lw || av != lw {
				t.Fatalf("%s item %d elem %d: avx2 %#08x scalar %#08x lowered %#08x", name, i, j, av, sc, lw)
			}
		}
	}
}

// TestConv2DIntoSIMDBitIdentical is the differential test of the AVX2
// micro-kernels: on the eight real layer shapes and 300 random geometries
// (outW%8 tails, OC%4 remainders, OC = 1, InC = 1, k in {1, 3, 5}, stride 2
// on the scalar path, all-zero weights and ReLU-zeroed inputs, one to three
// batch items) the AVX2 path, the scalar path and the lowering agree in
// every bit.
func TestConv2DIntoSIMDBitIdentical(t *testing.T) {
	if !useAVX2 {
		t.Log("no AVX2 on this host: only the scalar path is checked against the lowering")
	}
	rng := rand.New(rand.NewSource(33))
	for _, sh := range archiveConvShapes {
		x, weight, bias := convCase(rng, 1, sh.inC, sh.outC, 3, sh.h, sh.w)
		convDiff(t, sh.name, x, weight, bias, 1, 1, 1)
	}
	for i := 0; i < 300; i++ {
		k := []int{1, 3, 5}[rng.Intn(3)]
		stride := 1
		if rng.Intn(4) == 0 {
			stride = 2
		}
		pad := rng.Intn(k/2 + 1)
		inC, outC := 1+rng.Intn(9), 1+rng.Intn(9)
		h, w := k+rng.Intn(6), k+rng.Intn(40)
		n := 1 + rng.Intn(3)
		x, weight, bias := convCase(rng, n, inC, outC, k, h, w)
		if rng.Intn(10) == 0 {
			clear(weight.Data)
		}
		name := fmt.Sprintf("case %d: k%d-s%d-p%d-in%d-out%d-%dx%d-n%d", i, k, stride, pad, inC, outC, h, w, n)
		convDiff(t, name, x, weight, bias, n, stride, pad)
	}
}

// expectValidationPanic fails unless fn panics with one of the package's
// own validation messages, as opposed to a runtime error such as an index
// out of range.
func expectValidationPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		msg, ok := recover().(string)
		if !ok || !strings.HasPrefix(msg, "tensor: ") {
			t.Errorf("%s: panic %v, want a tensor validation panic", name, msg)
		}
	}()
	fn()
}

// TestConv2DIntoValidation checks shape misuse panics with a validation
// message instead of corrupting memory or indexing out of range.
func TestConv2DIntoValidation(t *testing.T) {
	weight, bias := New(2, 3, 3, 3), New(2)
	cases := map[string]func(){
		"channels not a multiple of InC": func() { Conv2DInto(New(2, 4, 4), New(4, 4, 4), weight, bias, 1, 1, &ConvScratch{}) },
		"dst shape":                      func() { Conv2DInto(New(2, 3, 4), New(3, 4, 4), weight, bias, 1, 1, &ConvScratch{}) },
		"empty output":                   func() { Conv2DInto(New(2, 1, 1), New(3, 2, 2), weight, bias, 1, 0, &ConvScratch{}) },
		"stride 0":                       func() { Conv2DInto(New(2, 4, 4), New(3, 4, 4), weight, bias, 0, 1, &ConvScratch{}) },
		// The kernel is taller than the padded input; truncating division
		// used to report one output row here.
		"kernel larger than padded input": func() {
			Conv2DInto(New(5, 1, 32), New(2, 2, 65), New(5, 2, 5, 5), New(5), 2, 1, &ConvScratch{})
		},
	}
	for name, fn := range cases {
		expectValidationPanic(t, name, fn)
	}
}

// TestIm2ColValidation checks Im2Col rejects geometries with no output,
// including a kernel larger than the padded input.
func TestIm2ColValidation(t *testing.T) {
	expectValidationPanic(t, "kernel larger than padded input", func() { Im2Col(New(2, 2, 65), 5, 5, 2, 1) })
	expectValidationPanic(t, "stride 0", func() { Im2Col(New(2, 4, 4), 3, 3, 0, 1) })
	if got := ConvOutSize(2, 5, 2, 1); got != 0 {
		t.Errorf("ConvOutSize(2, 5, 2, 1) = %d, want 0", got)
	}
	if got := ConvOutSize(3, 5, 2, 1); got != 1 {
		t.Errorf("ConvOutSize(3, 5, 2, 1) = %d, want 1", got)
	}
}
