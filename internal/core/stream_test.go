package core

import (
	"errors"
	"slices"
	"testing"

	"vrdann/internal/codec"
	"vrdann/internal/obs"
	"vrdann/internal/segment"
)

func TestStreamingPipelineMatchesBatchPipeline(t *testing.T) {
	v := makeTestVideo(18, 1.2)
	stream := encodeTestVideo(t, v)
	oracle := segment.NewOracle("oracle", v.Masks, 0.05, 3, 1)

	batch := &Pipeline{NNL: oracle, Refine: false}
	bres, err := batch.RunSegmentation(stream)
	if err != nil {
		t.Fatal(err)
	}

	sp := &StreamingPipeline{NNL: oracle, Refine: false}
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
		if segment.IoU(got[d].Mask, bres.Masks[d]) != 1 {
			t.Fatalf("frame %d: streaming mask differs from batch mask", d)
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
