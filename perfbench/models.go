package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"vrdann/internal/adapt"
	"vrdann/internal/codec"
	"vrdann/internal/core"
	"vrdann/internal/nn"
	"vrdann/internal/segment"
	"vrdann/internal/video"
)

// Training recipe of the benchmark's networks. NN-L is the FCN at width 8
// (5.3 M MACs per 96×64 frame). The step and epoch counts are below the
// library defaults so that a run can afford several full set-ups; the
// seeds are fixed, so every set-up trains bit-identical weights.
const (
	nnlWidth     = 8
	nnlSteps     = 60
	nnlLabel     = "fcn-nnl"
	nnsEpochs    = 1
	nnsTrainSize = 8 // frames per training sequence
)

// models is one set-up's trained networks.
type models struct {
	nnl   nnlFactory
	nns   *nn.RefineNet
	quant *nn.QuantRefineNet
}

// train runs the full model set-up: render the training set, train NN-L
// and NN-S, and calibrate the int8 NN-S.
func train() (*models, error) {
	tc := core.DefaultNNLTrainConfig()
	tc.Width, tc.Steps = nnlWidth, nnlSteps
	fcn, err := core.TrainNNL(video.MakeTrainingSet(frameW, frameH, 16), tc)
	if err != nil {
		return nil, fmt.Errorf("train NN-L: %w", err)
	}
	var buf bytes.Buffer
	if err := nn.SaveParams(&buf, fcn); err != nil {
		return nil, fmt.Errorf("save NN-L: %w", err)
	}
	sc := core.DefaultTrainConfig()
	sc.Epochs = nnsEpochs
	nns, err := core.TrainNNS(video.MakeTrainingSet(frameW, frameH, nnsTrainSize), codec.DefaultConfig(), sc)
	if err != nil {
		return nil, fmt.Errorf("train NN-S: %w", err)
	}
	quant, err := nn.NewQuantRefineNet(nns, adapt.SandwichCalibration(frameW, frameH, 4, 1))
	if err != nil {
		return nil, fmt.Errorf("calibrate int8 NN-S: %w", err)
	}
	return &models{nnl: nnlFactory{params: buf.Bytes()}, nns: nns, quant: quant}, nil
}

// sameWeights reports whether two set-ups trained identical networks.
func (m *models) sameWeights(o *models) (bool, error) {
	var a, b bytes.Buffer
	if err := nn.SaveParams(&a, m.nns); err != nil {
		return false, fmt.Errorf("save NN-S: %w", err)
	}
	if err := nn.SaveParams(&b, o.nns); err != nil {
		return false, fmt.Errorf("save NN-S: %w", err)
	}
	return bytes.Equal(m.nnl.params, o.nnl.params) && bytes.Equal(a.Bytes(), b.Bytes()), nil
}

// nnlFactory hands out private copies of the trained NN-L. A Conv2D keeps
// its patch matrix between calls, so one FCN shared by concurrently
// stepped sessions would be a data race; every session and every
// reference pipeline gets its own clone instead.
type nnlFactory struct {
	params []byte // nn.SaveParams of the trained FCN
}

// net builds a fresh FCN carrying the trained weights.
func (f nnlFactory) net() *nn.FCN {
	net := nn.NewFCN(rand.New(rand.NewSource(0)), 1, nnlWidth)
	if err := nn.LoadParams(bytes.NewReader(f.params), net); err != nil {
		// The parameters were saved from this very architecture.
		panic(fmt.Sprintf("perfbench: reload NN-L: %v", err))
	}
	return net
}

// fresh wraps a fresh clone as a segmenter. Every clone has the same
// label, so sessions on the same content share content-cache entries.
func (f nnlFactory) fresh() *segment.NetSegmenter {
	return &segment.NetSegmenter{Label: nnlLabel, Net: f.net()}
}

// nnlRecorder collects the NN-L call times of a traced run, one entry per
// segmented frame (a fused batch call is split evenly over its frames).
type nnlRecorder struct {
	mu    sync.Mutex
	calls []time.Duration
}

func (r *nnlRecorder) add(d time.Duration, frames int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := 0; i < frames; i++ {
		r.calls = append(r.calls, d/time.Duration(frames))
	}
}

// timedSegmenter times every NN-L call of the traced run. It keeps the
// inner segmenter's name, so content-cache fingerprints are unchanged.
type timedSegmenter struct {
	inner segment.Segmenter
	rec   *nnlRecorder
}

func (t *timedSegmenter) Name() string { return t.inner.Name() }

func (t *timedSegmenter) Segment(f *video.Frame, display int) *video.Mask {
	t0 := time.Now()
	m := t.inner.Segment(f, display)
	t.rec.add(time.Since(t0), 1)
	return m
}

// timedBatchSegmenter is timedSegmenter over a segment.BatchSegmenter,
// so the batching engine still finds the fused call.
type timedBatchSegmenter struct {
	*timedSegmenter
	batch segment.BatchSegmenter
}

func (t *timedBatchSegmenter) SegmentBatch(frames []*video.Frame, displays []int) []*video.Mask {
	t0 := time.Now()
	ms := t.batch.SegmentBatch(frames, displays)
	t.rec.add(time.Since(t0), len(frames))
	return ms
}

// timed wraps s for the traced run, keeping its batch capability.
func timed(s segment.Segmenter, rec *nnlRecorder) segment.Segmenter {
	ts := &timedSegmenter{inner: s, rec: rec}
	if bs, ok := s.(segment.BatchSegmenter); ok {
		return &timedBatchSegmenter{timedSegmenter: ts, batch: bs}
	}
	return ts
}
