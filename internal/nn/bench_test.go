package nn

import (
	"math/rand"
	"runtime"
	"testing"

	"vrdann/internal/tensor"
)

// serialParallel runs the body once with GOMAXPROCS=1 (forcing every par.For
// onto the calling goroutine) and once at full width, so the parallel-kernel
// speedup and allocation behavior are visible side by side.
func serialParallel(b *testing.B, fn func(b *testing.B)) {
	run := func(procs int) func(b *testing.B) {
		return func(b *testing.B) {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)
			b.ReportAllocs()
			fn(b)
		}
	}
	b.Run("serial", run(1))
	b.Run("parallel", run(runtime.NumCPU()))
}

// benchConv benchmarks one convolution forward or backward at a fixed
// geometry in both execution modes.
func benchConv(b *testing.B, inC, outC, h, w int, backward bool) {
	rng := rand.New(rand.NewSource(1))
	conv := NewConv2D(rng, inC, outC, 3, 1, 1)
	x := tensor.Randn(rng, 1, inC, h, w)
	out := conv.Forward(x)
	grad := tensor.Randn(rng, 1, out.Shape...)
	serialParallel(b, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if backward {
				conv.Backward(grad)
			} else {
				conv.Forward(x)
			}
		}
	})
}

// archiveConvShapes are the eight convolution layers of the serving
// benchmark's networks on a 96×64 frame: NN-L (FCN, width 8) and NN-S
// (8 features). All are 3×3, stride 1, pad 1.
var archiveConvShapes = []struct {
	name      string
	inC, outC int
	h, w      int
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

// BenchmarkConv2DForwardShapes times Conv2D.Forward on each archive layer
// shape at the process's full worker budget and reports the achieved
// multiply-accumulate rate.
func BenchmarkConv2DForwardShapes(b *testing.B) {
	for _, sh := range archiveConvShapes {
		b.Run(sh.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			conv := NewConv2D(rng, sh.inC, sh.outC, 3, 1, 1)
			x := tensor.Randn(rng, 1, sh.inC, sh.h, sh.w)
			conv.Forward(x) // size the scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				conv.Forward(x)
			}
			b.ReportMetric(float64(conv.MACs())*float64(b.N)/b.Elapsed().Seconds()/1e9, "GMAC/s")
		})
	}
}

// NN-S first convolution: 3 -> 8 channels on a 64×96 sandwich input.
func BenchmarkConv2DForwardNNS(b *testing.B)  { benchConv(b, 3, 8, 64, 96, false) }
func BenchmarkConv2DBackwardNNS(b *testing.B) { benchConv(b, 3, 8, 64, 96, true) }

// NN-L-scale convolution: 16 -> 16 channels on a 64×96 frame.
func BenchmarkConv2DForwardNNL(b *testing.B)  { benchConv(b, 16, 16, 64, 96, false) }
func BenchmarkConv2DBackwardNNL(b *testing.B) { benchConv(b, 16, 16, 64, 96, true) }

func BenchmarkConv2DForward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	conv := NewConv2D(rng, 8, 8, 3, 1, 1)
	x := tensor.Randn(rng, 1, 8, 64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conv.Forward(x)
	}
}

func BenchmarkConv2DBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	conv := NewConv2D(rng, 8, 8, 3, 1, 1)
	x := tensor.Randn(rng, 1, 8, 64, 64)
	out := conv.Forward(x)
	grad := tensor.Randn(rng, 1, out.Shape...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conv.Backward(grad)
	}
}

func BenchmarkRefineNetInference(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	net := NewRefineNet(rng, 8)
	x := tensor.Randn(rng, 1, 3, 64, 96)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Forward(x)
	}
	b.ReportMetric(float64(net.MACs()), "MACs/op")
}

func BenchmarkFCNInference(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	net := NewFCN(rng, 1, 16)
	x := tensor.Randn(rng, 1, 1, 64, 96)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Forward(x)
	}
}
