package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"vrdann/internal/codec"
	"vrdann/internal/nn"
	"vrdann/internal/obs"
	"vrdann/internal/segment"
	"vrdann/internal/video"
)

// TestStreamingPipelineMatchesBatchPipeline pins that the batch and
// streaming entry points step the same engine: every configuration of
// refinement, residual skip and worker count serves identical masks.
func TestStreamingPipelineMatchesBatchPipeline(t *testing.T) {
	v := makeTestVideo(18, 1.2)
	stream := encodeTestVideo(t, v)
	oracle := segment.NewOracle("oracle", v.Masks, 0.05, 3, 1)
	nns := nn.NewRefineNet(rand.New(rand.NewSource(11)), 4)
	for _, refine := range []bool{false, true} {
		for _, skip := range []bool{false, true} {
			for _, workers := range []int{1, 2} {
				name := fmt.Sprintf("refine=%v/skip=%v/workers=%d", refine, skip, workers)
				t.Run(name, func(t *testing.T) {
					batch := &Pipeline{NNL: oracle, NNS: nns, Refine: refine, SkipResidual: skip, Workers: workers}
					bres, err := batch.RunSegmentation(stream)
					if err != nil {
						t.Fatal(err)
					}
					sp := &StreamingPipeline{NNL: oracle, NNS: nns, Refine: refine, SkipResidual: skip, Workers: workers}
					got := make(map[int]MaskOut)
					if err := sp.Run(stream, func(m MaskOut) error {
						got[m.Display] = m
						return nil
					}); err != nil {
						t.Fatal(err)
					}
					if len(got) != v.Len() {
						t.Fatalf("emitted %d masks, want %d", len(got), v.Len())
					}
					for d := range bres.Masks {
						if !maskEqual(got[d].Mask, bres.Masks[d]) {
							t.Fatalf("frame %d: streaming mask differs from batch mask", d)
						}
					}
				})
			}
		}
	}
}

// countingSegmenter counts NN-L calls.
type countingSegmenter struct {
	segment.Segmenter
	calls atomic.Int64
}

func (c *countingSegmenter) Segment(f *video.Frame, display int) *video.Mask {
	c.calls.Add(1)
	return c.Segmenter.Segment(f, display)
}

// TestMaskSourceHonouredAtEveryWorkerCount pins that a MaskSource
// supplying every frame's mask completes the run without any NN work, at
// every worker count: masks come back bit-identical, NN-L is never called
// and NN-S never runs a forward pass.
func TestMaskSourceHonouredAtEveryWorkerCount(t *testing.T) {
	v := makeTestVideo(24, 1.5)
	stream := encodeTestVideo(t, v)
	oracle := segment.NewOracle("oracle", v.Masks, 0.05, 1, 9)
	nns := nn.NewRefineNet(rand.New(rand.NewSource(11)), 4)
	_, refOuts := collectStream(t, &StreamingPipeline{NNL: oracle, NNS: nns, Refine: true}, stream)
	ref := make(map[int]*video.Mask)
	for _, mo := range refOuts {
		ref[mo.Display] = mo.Mask
	}
	for _, nw := range []int{1, 2, 4} {
		nnl := &countingSegmenter{Segmenter: oracle}
		c := obs.New()
		sp := &StreamingPipeline{
			NNL: nnl, NNS: nns, Refine: true, Workers: nw, Obs: c,
			MaskSource: func(d int, _ codec.FrameType) *video.Mask { return ref[d] },
		}
		_, outs := collectStream(t, sp, stream)
		if len(outs) != len(refOuts) {
			t.Fatalf("workers=%d emitted %d frames, want %d", nw, len(outs), len(refOuts))
		}
		for i, mo := range outs {
			if mo.Display != refOuts[i].Display || !maskEqual(mo.Mask, refOuts[i].Mask) {
				t.Fatalf("workers=%d emit %d (frame %d) differs from the reference", nw, i, mo.Display)
			}
		}
		if n := nnl.calls.Load(); n != 0 {
			t.Fatalf("workers=%d: NN-L called %d times despite a complete mask source", nw, n)
		}
		for _, st := range c.Snapshot().Stages {
			if (st.Name == obs.StageNNSConv1.String() || st.Name == obs.StageRefine.String()) && st.Count != 0 {
				t.Fatalf("workers=%d: %d %s spans despite a complete mask source", nw, st.Count, st.Name)
			}
		}
	}
}

func TestStreamingPipelineBoundedWorkingSet(t *testing.T) {
	v := makeTestVideo(40, 0.8)
	stream := encodeTestVideo(t, v)
	sp := &StreamingPipeline{NNL: segment.NewOracle("oracle", v.Masks, 0, 0, 1), Refine: false}
	maxSegs, err := sp.RunInstrumented(stream, func(MaskOut) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	// The working set must not grow with the sequence length: bounded by the
	// search interval plus flanking anchors.
	if maxSegs > 9 {
		t.Fatalf("working set %d, want bounded", maxSegs)
	}
	if maxSegs < 2 {
		t.Fatalf("working set %d implausibly small", maxSegs)
	}
}

func TestStreamingPipelineEmitAbort(t *testing.T) {
	v := makeTestVideo(12, 1)
	stream := encodeTestVideo(t, v)
	sp := &StreamingPipeline{NNL: segment.NewOracle("oracle", v.Masks, 0, 0, 1)}
	boom := errors.New("boom")
	n := 0
	err := sp.Run(stream, func(MaskOut) error {
		n++
		if n == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if n != 3 {
		t.Fatalf("emit called %d times, want 3", n)
	}
}

func TestStreamingPipelineRejectsGarbage(t *testing.T) {
	sp := &StreamingPipeline{NNL: segment.NewOracle("oracle", nil, 0, 0, 1)}
	if err := sp.Run([]byte{1, 2}, func(MaskOut) error { return nil }); err == nil {
		t.Fatal("expected header error")
	}
}

func TestDisplayOrderReordering(t *testing.T) {
	var seen []int
	emit := DisplayOrder(func(m MaskOut) error {
		seen = append(seen, m.Display)
		return nil
	})
	// Feed decode-order-ish sequence 0,4,1,2,3,5.
	for _, d := range []int{0, 4, 1, 2, 3, 5} {
		if err := emit(MaskOut{Display: d}); err != nil {
			t.Fatal(err)
		}
	}
	want := []int{0, 1, 2, 3, 4, 5}
	if len(seen) != len(want) {
		t.Fatalf("emitted %v", seen)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("order %v, want %v", seen, want)
		}
	}
}

func TestStreamingPipelineWithDisplayOrder(t *testing.T) {
	v := makeTestVideo(16, 1.5)
	stream := encodeTestVideo(t, v)
	sp := &StreamingPipeline{NNL: segment.NewOracle("oracle", v.Masks, 0, 0, 1)}
	next := 0
	err := sp.Run(stream, DisplayOrder(func(m MaskOut) error {
		if m.Display != next {
			t.Fatalf("got display %d, want %d", m.Display, next)
		}
		next++
		return nil
	}))
	if err != nil {
		t.Fatal(err)
	}
	if next != 16 {
		t.Fatalf("emitted %d frames in order", next)
	}
}

// TestEngineRefinerRebuiltOnlyOnSwap pins the pipeline's NN-S refiner
// cache: the engines of an observed pipeline share one refiner over one
// clone of the weights instead of cloning per chunk, and SetRefineNet
// rebuilds it on a clone of exactly the new float or int8 weights.
func TestEngineRefinerRebuiltOnlyOnSwap(t *testing.T) {
	v := makeTestVideo(18, 1.2)
	stream := encodeTestVideo(t, v)
	nns, q := quantTestNet(t, 21)
	sp := &StreamingPipeline{NNL: segment.NewOracle("oracle", v.Masks, 0, 0, 1), NNS: nns, Refine: true, Obs: obs.New()}
	refiner := func() *segment.Refiner {
		dec, err := codec.NewStreamDecoder(stream, codec.DecodeSideInfo)
		if err != nil {
			t.Fatal(err)
		}
		return sp.NewEngine(dec).refiner
	}
	r1 := refiner()
	if r1 == nil || r1.Net == nns {
		t.Fatal("an observed pipeline must refine on its own clone of the weights")
	}
	if refiner() != r1 {
		t.Fatal("refiner rebuilt although the weights did not change")
	}

	adapted := nns.Clone()
	adapted.Conv3.Bias.Data[0] += 0.25
	sp.SetRefineNet(adapted, nil)
	r2 := refiner()
	if r2 == r1 || r2.Net == adapted || r2.Quant != nil {
		t.Fatal("SetRefineNet did not rebuild the refiner on a clone of the new weights")
	}
	for i, p := range adapted.Params() {
		if !slices.Equal(r2.Net.Params()[i].Data, p.Data) {
			t.Fatalf("rebuilt refiner param %d differs from the promoted weights", i)
		}
	}
	if refiner() != r2 {
		t.Fatal("refiner rebuilt again without a swap")
	}

	sp.SetRefineNet(adapted, q)
	if r3 := refiner(); r3 == r2 || r3.Quant == nil || r3.Quant == q {
		t.Fatal("swapping in an int8 compilation did not rebuild on a clone of it")
	}
	sp.SetRefineNet(adapted, nil)
	if r4 := refiner(); r4.Quant != nil || r4.Net == nil {
		t.Fatal("clearing the int8 tier did not return to float refinement")
	}
}

// TestWorkerRunBuildsNoInlineRefiner pins that a run with refinement
// workers refines only on the workers' clones: it builds no inline refiner
// (for an observed pipeline, one more clone of NN-S), while a run without
// workers builds and caches one.
func TestWorkerRunBuildsNoInlineRefiner(t *testing.T) {
	v := makeTestVideo(18, 1.2)
	stream := encodeTestVideo(t, v)
	nns := nn.NewRefineNet(rand.New(rand.NewSource(11)), 4)
	sp := &StreamingPipeline{NNL: segment.NewOracle("oracle", v.Masks, 0, 0, 1), NNS: nns, Refine: true, Workers: 2, Obs: obs.New()}
	refined := 0
	if err := sp.Run(stream, func(mo MaskOut) error {
		if mo.Type == codec.BFrame {
			refined++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if refined == 0 {
		t.Fatal("stream has no B-frames to refine")
	}
	if sp.refiner != nil {
		t.Fatal("a run with workers built an inline refiner")
	}
	sp.Workers = 1
	if err := sp.Run(stream, func(MaskOut) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if sp.refiner == nil {
		t.Fatal("a run without workers did not build its inline refiner")
	}
}
