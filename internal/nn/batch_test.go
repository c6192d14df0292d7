package nn

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"vrdann/internal/tensor"
)

// randTensor fills a CHW tensor with deterministic values in [-1, 1).
func randTensor(rng *rand.Rand, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	for i := range t.Data {
		t.Data[i] = rng.Float32()*2 - 1
	}
	return t
}

// TestConvForwardBatchBitIdentical pins Conv2D.ForwardBatch to n serial
// Forward calls bitwise, across batch sizes, kernel sizes, strides,
// paddings and channel counts off the kernel's four-channel register
// block — the invariant the dynamic batching engine relies on.
func TestConvForwardBatchBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, g := range []struct{ inC, outC, k, stride, pad, h, w int }{
		{3, 4, 3, 1, 1, 8, 6},
		{1, 1, 3, 1, 1, 9, 7},
		{3, 5, 3, 2, 1, 11, 9},
		{2, 7, 5, 1, 2, 7, 13},
		{5, 4, 1, 2, 0, 9, 9},
		{6, 9, 5, 2, 0, 13, 11},
	} {
		conv := NewConv2D(rng, g.inC, g.outC, g.k, g.stride, g.pad)
		serial := NewConv2D(rand.New(rand.NewSource(0)), g.inC, g.outC, g.k, g.stride, g.pad)
		copyParams(t, serial, conv)
		for _, n := range []int{1, 2, 3, 4, 8} {
			x := randTensor(rng, n*g.inC, g.h, g.w)
			got := conv.ForwardBatch(x, n)
			item := g.inC * g.h * g.w
			for i := 0; i < n; i++ {
				want := serial.Forward(tensor.FromSlice(x.Data[i*item:(i+1)*item], g.inC, g.h, g.w))
				for j, v := range want.Data {
					if o := got.Data[i*len(want.Data)+j]; o != v {
						t.Fatalf("geometry %+v n=%d item %d elem %d: batched %v != serial %v", g, n, i, j, o, v)
					}
				}
			}
		}
	}
}

// copyParams copies src's weights into dst so a separate instance (with its
// own activation caches) can serve as the serial reference.
func copyParams(t *testing.T, dst, src *Conv2D) {
	t.Helper()
	copy(dst.Weight.Data, src.Weight.Data)
	copy(dst.Bias.Data, src.Bias.Data)
}

// TestRefineNetForwardBatchBitIdentical pins RefineNet.ForwardBatch to the
// serial Forward bitwise at batch sizes 1, 2, 4 and 8, including NaN
// inputs (the serial ReLU maps NaN to 0; the in-place batched one must
// too).
func TestRefineNetForwardBatchBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net := NewRefineNet(rand.New(rand.NewSource(9)), 8)
	ref := net.Clone()
	const h, w = 8, 12
	for _, n := range []int{1, 2, 4, 8} {
		x := randTensor(rng, n*3, h, w)
		x.Data[0] = float32(math.NaN()) // exercise the NaN -> 0 ReLU path
		got := net.ForwardBatch(x, n)
		if got.Shape[0] != n || got.Shape[1] != h || got.Shape[2] != w {
			t.Fatalf("n=%d: output shape %v, want [%d %d %d]", n, got.Shape, n, h, w)
		}
		for i := 0; i < n; i++ {
			item := tensor.FromSlice(x.Data[i*3*h*w:(i+1)*3*h*w], 3, h, w)
			want := ref.Forward(item)
			for j := range want.Data {
				if got.Data[i*h*w+j] != want.Data[j] {
					t.Fatalf("n=%d item %d elem %d: batched %v != serial %v",
						n, i, j, got.Data[i*h*w+j], want.Data[j])
				}
			}
		}
	}
}

// TestForwardBatchScratchReuse runs two differently-sized batches on one
// instance to cover the scratch resize path, then re-checks identity.
func TestForwardBatchScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	net := NewRefineNet(rand.New(rand.NewSource(2)), 4)
	ref := net.Clone()
	for _, n := range []int{4, 1, 8, 2} {
		x := randTensor(rng, n*3, 6, 10)
		got := net.ForwardBatch(x, n)
		for i := 0; i < n; i++ {
			item := tensor.FromSlice(x.Data[i*3*6*10:(i+1)*3*6*10], 3, 6, 10)
			want := ref.Forward(item)
			for j := range want.Data {
				if got.Data[i*6*10+j] != want.Data[j] {
					t.Fatalf("n=%d item %d elem %d mismatch after scratch resize", n, i, j)
				}
			}
		}
	}
}

// TestForwardBatchValidation checks shape misuse panics.
func TestForwardBatchValidation(t *testing.T) {
	net := NewRefineNet(rand.New(rand.NewSource(1)), 4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for wrong channel count")
		}
	}()
	net.ForwardBatch(tensor.New(5, 8, 8), 2)
}

// TestForwardBatchZeroAlloc pins invariant 2 of batch.go: after warm-up,
// a batched NN-S forward allocates nothing.
func TestForwardBatchZeroAlloc(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	net := NewRefineNet(rand.New(rand.NewSource(4)), 8)
	x := randTensor(rand.New(rand.NewSource(5)), 3*3, 16, 24)
	net.ForwardBatch(x, 3)
	if allocs := testing.AllocsPerRun(20, func() { net.ForwardBatch(x, 3) }); allocs != 0 {
		t.Fatalf("RefineNet.ForwardBatch allocates %.1f times per call after warm-up, want 0", allocs)
	}
}

// TestConvForwardAllocatesOnlyOutput pins that the serial forward reuses
// its padded-input scratch: the only allocation left is the returned
// tensor.
func TestConvForwardAllocatesOnlyOutput(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	conv := NewConv2D(rand.New(rand.NewSource(6)), 3, 8, 3, 1, 1)
	x := randTensor(rand.New(rand.NewSource(7)), 3, 16, 24)
	conv.Forward(x)
	want := testing.AllocsPerRun(20, func() { tensor.New(8, 16, 24) })
	if got := testing.AllocsPerRun(20, func() { conv.Forward(x) }); got != want {
		t.Fatalf("Conv2D.Forward allocates %.1f times per call, want %.1f (the output tensor only)", got, want)
	}
}

// trainedShapeFCN builds the serving benchmark's NN-L shape (FCN, width 8)
// with non-zero biases, as training leaves them.
func trainedShapeFCN(seed int64) *FCN {
	rng := rand.New(rand.NewSource(seed))
	net := NewFCN(rng, 1, 8)
	for _, l := range net.Layers {
		if c, ok := l.(*Conv2D); ok {
			for i := range c.Bias.Data {
				c.Bias.Data[i] = rng.Float32() - 0.5
			}
		}
	}
	return net
}

// sequentialMatchesForward checks got (a packed batch of n items from
// ForwardBatch) against Forward on each item of x, bit for bit.
func sequentialMatchesForward(t *testing.T, name string, ref Layer, x, got *tensor.Tensor, n int) {
	t.Helper()
	per := len(x.Data) / n
	for i := 0; i < n; i++ {
		want := ref.Forward(tensor.FromSlice(x.Data[i*per:(i+1)*per], x.Shape[0]/n, x.Shape[1], x.Shape[2]))
		if got.Shape[0] != n*want.Shape[0] || got.Shape[1] != want.Shape[1] || got.Shape[2] != want.Shape[2] {
			t.Fatalf("%s n=%d: batched shape %v, serial item %v", name, n, got.Shape, want.Shape)
		}
		for j, v := range want.Data {
			if o := got.Data[i*len(want.Data)+j]; math.Float32bits(o) != math.Float32bits(v) {
				t.Fatalf("%s n=%d item %d elem %d: batched %v != serial %v", name, n, i, j, o, v)
			}
		}
	}
}

// TestSequentialForwardBatchBitIdentical pins Sequential.ForwardBatch, as
// the FCN inherits it, to Forward bitwise at batch sizes 1 to 3, resizing
// its scratch between geometries.
func TestSequentialForwardBatchBitIdentical(t *testing.T) {
	net, ref := trainedShapeFCN(12), trainedShapeFCN(12)
	rng := rand.New(rand.NewSource(13))
	for _, g := range []struct{ n, h, w int }{{1, 64, 96}, {2, 64, 96}, {3, 32, 44}, {1, 64, 96}} {
		x := randTensor(rng, g.n, g.h, g.w)
		sequentialMatchesForward(t, "fcn", ref, x, net.ForwardBatch(x, g.n), g.n)
	}
}

// TestSequentialForwardBatchLeavesInput covers the layers without a fused
// form and a leading ReLU: the batched ReLU works in place, so it must copy
// the caller's input first rather than overwrite it.
func TestSequentialForwardBatchLeavesInput(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	bn := NewBatchNorm(3)
	bn.Training = false
	for i := range bn.Beta.Data {
		bn.Beta.Data[i] = rng.Float32() - 0.5
	}
	net := NewSequential(NewReLU(), NewConv2D(rng, 2, 3, 3, 1, 1), bn, NewReLU(), NewMaxPool2())
	ref := NewSequential(NewReLU(), NewConv2D(rng, 2, 3, 3, 1, 1), bn, NewReLU(), NewMaxPool2())
	copyParams(t, ref.Layers[1].(*Conv2D), net.Layers[1].(*Conv2D))
	x := randTensor(rng, 3*2, 8, 10)
	orig := x.Clone()
	got := net.ForwardBatch(x, 3)
	for i, v := range orig.Data {
		if math.Float32bits(x.Data[i]) != math.Float32bits(v) {
			t.Fatalf("ForwardBatch overwrote its input at %d: %v, was %v", i, x.Data[i], v)
		}
	}
	sequentialMatchesForward(t, "relu-first", ref, x, got, 3)
}

// TestSequentialForwardBatchZeroAlloc pins that a warmed-up batched FCN
// forward allocates nothing at GOMAXPROCS(1).
func TestSequentialForwardBatchZeroAlloc(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	net := trainedShapeFCN(15)
	x := randTensor(rand.New(rand.NewSource(16)), 2, 64, 96)
	net.ForwardBatch(x, 2)
	if allocs := testing.AllocsPerRun(20, func() { net.ForwardBatch(x, 2) }); allocs != 0 {
		t.Fatalf("Sequential.ForwardBatch allocates %.1f times per call after warm-up, want 0", allocs)
	}
}
