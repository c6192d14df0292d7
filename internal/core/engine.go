package core

import (
	"context"

	"vrdann/internal/codec"
	"vrdann/internal/segment"
	"vrdann/internal/video"
)

// StreamEngine steps the pipeline one frame at a time in decode order. It
// is the only code that processes a frame: the serving layer interleaves
// Step calls from many engines on a shared worker budget, and every
// pipeline entry point (RunSegmentation, RunDetection, the streaming Run
// variants) drives one engine through run. A frame served through a
// scheduler is therefore bit-identical to the same frame in a
// single-stream run by construction.
//
// An engine is not safe for concurrent use; callers must serialize Step.
type StreamEngine struct {
	p       *StreamingPipeline
	src     frameSource
	types   []codec.FrameType
	cfg     codec.Config
	w, h    int
	lastUse map[int]int
	segs    map[int]*video.Mask
	// refine reports whether B-frames are refined by NN-S, fixed when the
	// engine is built. workers is how many refinement goroutines run
	// starts (<= 1: none); refiner is the inline NN-S, built only when
	// there are no workers — each worker refines with a clone of its own.
	refine  bool
	workers int
	refiner *segment.Refiner
	pos     int
	maxSegs int
	// stats counts the work of every step so far, in decode order.
	stats Stats
	// recons, when non-nil, collects every B-frame's raw MV reconstruction
	// by display index (the batch pipeline's Result.Recons).
	recons map[int]*segment.ReconMask
}

// frameSource delivers decoded frames in decode order: a live
// codec.StreamDecoder, or a replay of a stream decoded up front.
type frameSource interface {
	Next() (*codec.FrameOut, error)
	Remaining() int
}

// replay serves an already-decoded stream in decode order.
type replay struct {
	dec *codec.DecodeResult
	pos int
}

func (r *replay) Next() (*codec.FrameOut, error) {
	if r.pos >= len(r.dec.Order) {
		return nil, nil
	}
	d := r.dec.Order[r.pos]
	r.pos++
	return &codec.FrameOut{Info: r.dec.Infos[d], Pixels: r.dec.Frames[d]}, nil
}

func (r *replay) Remaining() int { return len(r.dec.Order) - r.pos }

// NewEngine prepares frame-by-frame execution of the pipeline over the
// given decoder (which must be freshly opened or Reset). The pipeline's
// observer is attached to the decoder for per-frame decode timings.
func (p *StreamingPipeline) NewEngine(dec *codec.StreamDecoder) *StreamEngine {
	return p.decoderEngine(dec, 1)
}

// decoderEngine is NewEngine for a run with the given number of
// refinement workers.
func (p *StreamingPipeline) decoderEngine(dec *codec.StreamDecoder, workers int) *StreamEngine {
	dec.SetObserver(p.Obs)
	w, h := dec.Geometry()
	return p.newEngine(dec, dec.Types(), dec.Config(), w, h, workers)
}

// replayEngine prepares execution over a stream already decoded by
// codec.Decode; its decode timings were recorded then.
func (p *StreamingPipeline) replayEngine(dec *codec.DecodeResult, workers int) *StreamEngine {
	return p.newEngine(&replay{dec: dec}, dec.Types, dec.Cfg, dec.W, dec.H, workers)
}

func (p *StreamingPipeline) newEngine(src frameSource, types []codec.FrameType, cfg codec.Config, w, h, workers int) *StreamEngine {
	e := &StreamEngine{
		p: p, src: src, types: types, cfg: cfg, w: w, h: h,
		lastUse: segLastUse(types, cfg),
		segs:    make(map[int]*video.Mask),
		refine:  p.refines(),
		workers: workers,
		pos:     -1,
	}
	if e.refine && workers <= 1 {
		e.refiner = p.engineRefiner()
	}
	return e
}

// Remaining reports how many frames the engine has not yet delivered.
func (e *StreamEngine) Remaining() int { return e.src.Remaining() }

// Step decodes and processes the next frame in decode order, running its
// NN work inline: StepPrepare with no ladder selector, followed by
// pending.Finish(pending.ExecuteLocal()). It returns (nil, nil) when the
// stream is exhausted and ctx.Err() if the context is cancelled before the
// frame is decoded; frames already returned are unaffected by a later
// cancellation.
func (e *StreamEngine) Step(ctx context.Context) (*MaskOut, error) {
	mo, pending, err := e.StepPrepare(ctx, nil)
	if err != nil || pending == nil {
		return mo, err
	}
	return pending.Finish(pending.ExecuteLocal()), nil
}
