package segment

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"

	"vrdann/internal/nn"
	"vrdann/internal/video"
)

// randomFrame returns a w×h luma frame of deterministic noise.
func randomFrame(rng *rand.Rand, w, h int) *video.Frame {
	f := video.NewFrame(w, h)
	for i := range f.Pix {
		f.Pix[i] = uint8(rng.Intn(256))
	}
	return f
}

// thresholdLogits is the mask Segment and Refine derive from logits.
func thresholdLogits(logits []float32, w, h int) *video.Mask {
	m := video.NewMask(w, h)
	for i, v := range logits {
		if v > 0 {
			m.Pix[i] = 1
		}
	}
	return m
}

// TestNetSegmenterMatchesForward pins the batched NN-L path of
// NetSegmenter.Segment to the training Forward, across a geometry change.
func TestNetSegmenterMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net := nn.NewFCN(rand.New(rand.NewSource(4)), 1, 8)
	ref := nn.NewFCN(rand.New(rand.NewSource(4)), 1, 8)
	seg := &NetSegmenter{Label: "fcn", Net: net}
	for _, g := range [][2]int{{48, 32}, {48, 32}, {96, 64}} {
		f := randomFrame(rng, g[0], g[1])
		want := thresholdLogits(ref.Forward(FrameToTensor(f)).Data, f.W, f.H)
		if got := seg.Segment(f, 0); !bytes.Equal(got.Pix, want.Pix) {
			t.Fatalf("%dx%d: batched segmentation diverges from Forward", g[0], g[1])
		}
	}
}

// TestRefinerMatchesForward pins the float Refiner, which runs NN-S's
// batched forward on a batch of one, to the training Forward.
func TestRefinerMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	net := nn.NewRefineNet(rand.New(rand.NewSource(7)), 8)
	ref := net.Clone()
	r := NewRefiner(net)
	for _, g := range [][2]int{{12, 8}, {12, 8}, {48, 32}} {
		j := makeJob(rng, g[0], g[1])
		want := thresholdLogits(ref.Forward(Sandwich(j.Prev, j.Rec, j.Next)).Data, g[0], g[1])
		if got := r.Refine(j.Prev, j.Rec, j.Next); !bytes.Equal(got.Pix, want.Pix) {
			t.Fatalf("%dx%d: refined mask diverges from Forward", g[0], g[1])
		}
	}
}

var maskSink *video.Mask

// TestSteadyStateAllocatesOnlyMask pins the zero-allocation NN inference
// of the serving hot path: once warmed up, NetSegmenter.Segment and the
// float Refiner.Refine allocate exactly what one returned mask does.
func TestSteadyStateAllocatesOnlyMask(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)
	const w, h = 48, 32
	rng := rand.New(rand.NewSource(5))
	want := testing.AllocsPerRun(20, func() { maskSink = video.NewMask(w, h) })

	seg := &NetSegmenter{Label: "fcn", Net: nn.NewFCN(rng, 1, 8)}
	f := randomFrame(rng, w, h)
	seg.Segment(f, 0)
	if got := testing.AllocsPerRun(20, func() { maskSink = seg.Segment(f, 0) }); got != want {
		t.Errorf("NetSegmenter.Segment allocates %.1f times per frame, want %.1f (the mask only)", got, want)
	}

	r := NewRefiner(nn.NewRefineNet(rng, 8))
	j := makeJob(rng, w, h)
	r.Refine(j.Prev, j.Rec, j.Next)
	if got := testing.AllocsPerRun(20, func() { maskSink = r.Refine(j.Prev, j.Rec, j.Next) }); got != want {
		t.Errorf("Refiner.Refine allocates %.1f times per frame, want %.1f (the mask only)", got, want)
	}
}
