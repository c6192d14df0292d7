package core

import (
	"context"

	"vrdann/internal/codec"
	"vrdann/internal/segment"
	"vrdann/internal/video"
)

// StreamEngine drives the serial streaming pipeline one frame at a time
// against an externally owned StreamDecoder. It is the unit of scheduling
// of the multi-stream serving layer: a scheduler can interleave Step calls
// from many engines on a shared worker budget, while each engine keeps the
// exact state of the serial decode-order loop — the pruned reference
// window, the refiner, the working-set maximum. RunInstrumented is itself
// implemented on an engine, so a frame served through a scheduler is
// bit-identical to the same frame in a single-stream run by construction.
//
// An engine is not safe for concurrent use; callers must serialize Step.
type StreamEngine struct {
	p       *StreamingPipeline
	dec     *codec.StreamDecoder
	types   []codec.FrameType
	cfg     codec.Config
	w, h    int
	lastUse map[int]int
	segs    map[int]*video.Mask
	refiner *segment.Refiner
	pos     int
	maxSegs int
}

// NewEngine prepares frame-by-frame execution of the pipeline over the
// given decoder (which must be freshly opened or Reset). The pipeline's
// observer is attached to the decoder for per-frame decode timings.
func (p *StreamingPipeline) NewEngine(dec *codec.StreamDecoder) *StreamEngine {
	dec.SetObserver(p.Obs)
	types := dec.Types()
	w, h := dec.Geometry()
	return &StreamEngine{
		p: p, dec: dec, types: types, cfg: dec.Config(), w: w, h: h,
		lastUse: segLastUse(types, dec.Config()),
		segs:    make(map[int]*video.Mask),
		refiner: p.engineRefiner(),
		pos:     -1,
	}
}

// MaxSegs reports the largest reference working set held so far.
func (e *StreamEngine) MaxSegs() int { return e.maxSegs }

// Remaining reports how many frames the engine has not yet delivered.
func (e *StreamEngine) Remaining() int { return e.dec.Remaining() }

// Step decodes and processes the next frame in decode order. It returns
// (nil, nil) when the stream is exhausted and ctx.Err() if the context is
// cancelled before the frame is decoded; frames already returned are
// unaffected by a later cancellation.
func (e *StreamEngine) Step(ctx context.Context) (*MaskOut, error) {
	return e.StepFunc(ctx, nil)
}

// StepFunc is Step with a QoS ladder hook: when sel is non-nil it is
// consulted for every B-frame and its rung is honored — qos.StepSkip
// yields a MaskOut with a nil Mask (the bitstream is still consumed;
// B-frame side info must be read to advance the entropy coder),
// qos.StepRecon stops at the raw MV reconstruction, and qos.StepFull
// re-segments the frame with NN-L when its pixels are available. Anchors
// are never degraded — their segmentations are the references every later
// frame depends on. This is the degradation policy of the serving layer:
// under overload, B-frames slide down the ladder while the anchor chain
// stays intact.
func (e *StreamEngine) StepFunc(ctx context.Context, sel StepSelector) (*MaskOut, error) {
	mo, pending, err := e.StepPrepare(ctx, sel)
	if err != nil || pending == nil {
		return mo, err
	}
	return pending.Finish(pending.ExecuteLocal()), nil
}
