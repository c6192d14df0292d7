package core

import (
	"context"
	"fmt"

	"vrdann/internal/codec"
	"vrdann/internal/obs"
	"vrdann/internal/qos"
	"vrdann/internal/segment"
	"vrdann/internal/video"
)

// StepSelector picks the QoS ladder rung for a B-frame about to be
// processed (see internal/qos). It is consulted once per B-frame, before
// any per-frame work; anchors are never offered — their segmentations are
// the references every later frame depends on. A nil selector serves every
// B-frame on qos.StepRefine, the paper's canonical path.
type StepSelector func(codec.FrameInfo) qos.Step

// PendingNN is the NN half of one engine step, split off by StepPrepare so
// a scheduler can route it through a cross-stream batching engine instead
// of executing it inline. It carries exactly one of two kinds of work,
// mirroring the paper's two networks:
//
//   - anchor (I/P): an NN-L segmentation of the decoded frame;
//   - B-frame: an NN-S refinement of the MV-reconstructed mask between its
//     flanking anchor segmentations.
//
// The holder finishes the step by calling Finish with the computed mask
// (however it was computed — inline, on a worker, or as one lane of a
// fused batch). NN-L work holds the engine: it must be finished before the
// next StepPrepare on the same engine, because its mask joins the
// reference window. B-frame refinement work does not: StepPrepare has
// already closed the step, so the engine may step on while the refinement
// runs elsewhere, and its Finish touches only the work's own state.
type PendingNN struct {
	e  *StreamEngine
	mo *MaskOut

	// NN-L work: the decoded frame to segment (nil on the refinement
	// path). Anchors always carry it; a B-frame carries it only when the
	// QoS ladder promoted it to full re-segmentation (reseg below).
	frame *video.Frame

	// reseg marks a B-frame promoted to the full NN-L rung. Its mask is
	// emitted but must stay out of the reference window: the window's
	// pruning schedule only tracks anchor displays, and later frames'
	// bit-identity contract is anchored on anchor-only references.
	reseg bool
	// info is retained for reseg work so a deadline retraction can fall
	// back to the MV reconstruction without re-decoding.
	info codec.FrameInfo

	// B-frame work: the refinement sandwich inputs (nil for anchors). When
	// the residual skip cropped the frame, these are the dirty-rect crops.
	prev, next *video.Mask
	rec        *segment.ReconMask

	// Residual-skip crop state: when base is non-nil the sandwich above
	// covers only the dirty rectangle, and Finish composites the refined
	// crop over base (the full-frame MV reconstruction) at (cropX, cropY).
	base         *video.Mask
	cropX, cropY int
}

// IsAnchor reports whether this is NN-L (full segmentation) work, as
// opposed to NN-S (B-frame refinement) work. True for anchors and for
// B-frames promoted to the ladder's full rung.
func (pn *PendingNN) IsAnchor() bool { return pn.frame != nil }

// Retractable reports whether the work may be degraded after the fact (a
// deadline overrun while queued in a batcher): all B-frame work is, true
// anchors are not — their segmentations are references later frames need.
func (pn *PendingNN) Retractable() bool { return pn.frame == nil || pn.reseg }

// FallbackMask computes the ladder's next-cheaper result for retractable
// work without running the pending network: the raw MV reconstruction (for
// residual-skip crops, the full-frame base the refined crop would have been
// composited over). It returns nil for non-retractable work, or if the
// reconstruction itself fails.
func (pn *PendingNN) FallbackMask() *video.Mask {
	switch {
	case pn.base != nil:
		return pn.base
	case pn.rec != nil:
		return pn.rec.Binary()
	case pn.reseg:
		rec, err := segment.Reconstruct(pn.info, pn.e.segs, pn.e.w, pn.e.h, pn.e.cfg.BlockSize)
		if err != nil {
			return nil
		}
		return rec.Binary()
	}
	return nil
}

// Display returns the display index of the frame under work.
func (pn *PendingNN) Display() int { return pn.mo.Display }

// FrameType returns the coded type of the frame under work.
func (pn *PendingNN) FrameType() codec.FrameType { return pn.mo.Type }

// Frame returns the decoded anchor frame (nil for B-frame work).
func (pn *PendingNN) Frame() *video.Frame { return pn.frame }

// RefineInputs returns the NN-S sandwich inputs (all nil for anchor work).
func (pn *PendingNN) RefineInputs() (prev *video.Mask, rec *segment.ReconMask, next *video.Mask) {
	return pn.prev, pn.rec, pn.next
}

// Segmenter returns the stream's NN-L model.
func (pn *PendingNN) Segmenter() segment.Segmenter { return pn.e.p.NNL }

// ExecuteLocal computes the pending mask inline on the caller's goroutine
// with the engine's own models, recording the nn-l/refine span. Step and
// the run driver are built on it; a scheduler uses it as the unbatched
// fallback.
func (pn *PendingNN) ExecuteLocal() *video.Mask {
	p := pn.e.p
	if pn.frame != nil {
		t0 := p.Obs.Clock()
		m := p.NNL.Segment(pn.frame, pn.mo.Display)
		p.Obs.Span(obs.StageNNL, pn.mo.Display, byte(pn.mo.Type), t0)
		return m
	}
	return pn.refine(pn.e.refiner)
}

// refine runs B-frame NN-S work with r, recording the refine span. It
// reads only the work's own inputs, so it may run on any goroutine.
func (pn *PendingNN) refine(r *segment.Refiner) *video.Mask {
	c := pn.e.p.Obs
	t := c.Clock()
	m := r.Refine(pn.prev, pn.rec, pn.next)
	c.Span(obs.StageRefine, pn.mo.Display, byte(pn.mo.Type), t)
	return m
}

// Finish completes the step with the computed mask. For NN-L work, anchor
// masks join the engine's reference window and the window bookkeeping
// deferred by StepPrepare (high-watermark, gauge, pruning) runs exactly as
// the fused step would have run it. For residual-skip crops the mask is
// the refined dirty rectangle, composited here over the full-frame
// reconstruction.
func (pn *PendingNN) Finish(mask *video.Mask) *MaskOut {
	if pn.base != nil {
		segment.PasteMask(pn.base, mask, pn.cropX, pn.cropY)
		mask = pn.base
	}
	pn.mo.Mask = mask
	if pn.frame != nil {
		if !pn.reseg {
			pn.e.segs[pn.mo.Display] = mask
		}
		pn.e.finishStep()
	}
	return pn.mo
}

// sourceMask consults the pipeline's MaskSource for a frame, if one is
// configured. Drop-vetoed frames never reach it.
func (e *StreamEngine) sourceMask(info codec.FrameInfo) *video.Mask {
	if e.p.MaskSource == nil {
		return nil
	}
	return e.p.MaskSource(info.Display, info.Type)
}

// finishStep is the tail of a step: working-set accounting and reference
// pruning. It runs after every step, NN-bearing or not.
func (e *StreamEngine) finishStep() {
	if len(e.segs) > e.maxSegs {
		e.maxSegs = len(e.segs)
	}
	e.p.Obs.GaugeSet(obs.GaugeRefWindow, int64(len(e.segs)))
	// Prune references no later frame needs. The serial loop pruned after
	// emitting; pruning before the caller emits is equivalent because emit
	// never reads the window and the next Step sees the same pruned state.
	for d, last := range e.lastUse {
		if last <= e.pos {
			delete(e.segs, d)
			delete(e.lastUse, d)
		}
	}
}

// StepPrepare runs the decode-side half of a step — decode, ladder-rung
// selection, MV reconstruction — and either completes the frame itself
// (returning pending == nil: end of stream, shed B-frame, or unrefined
// reconstruction) or returns the frame's NN work as a PendingNN for the
// caller to execute and Finish. mo is non-nil exactly when pending is nil
// and a frame was produced; when pending is non-nil the MaskOut is
// delivered by Finish instead. B-frame refinement work is returned with
// the step already closed (window accounting and pruning done — B-frame
// masks never join the window), so the caller may prepare further steps
// before finishing it; NN-L work must be finished first.
//
// The selector is consulted once per B-frame. qos.StepSkip sheds the frame
// (side info is still consumed; the entropy coder must advance);
// qos.StepRecon stops at the raw MV reconstruction; qos.StepRefine is the
// canonical refinement path; qos.StepFull promotes the B-frame to NN-L
// re-segmentation when its pixels were decoded (side-info decoders fall
// back to refinement — there is nothing to segment). The pipeline's
// MaskSource (content cache) is consulted only on the canonical rung:
// degraded masks must neither be served from nor published to a cache
// keyed on the full-quality configuration. Anchors never consult the
// selector.
//
// Step is StepPrepare followed by pending.Finish(pending.ExecuteLocal()) —
// the serving layer swaps ExecuteLocal for a batched execution and
// everything else stays shared, which is what makes batched output
// bit-identical by construction. Under overload the selector slides
// B-frames down the ladder while the anchor chain stays intact.
func (e *StreamEngine) StepPrepare(ctx context.Context, sel StepSelector) (mo *MaskOut, pending *PendingNN, err error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
	}
	p := e.p
	out, derr := e.src.Next()
	if derr != nil {
		return nil, nil, fmt.Errorf("core: decode: %w", derr)
	}
	if out == nil {
		return nil, nil, nil
	}
	e.pos++
	info := out.Info
	mo = &MaskOut{Display: info.Display, Type: info.Type}
	switch info.Type {
	case codec.IFrame, codec.PFrame:
		if info.Type == codec.IFrame {
			e.stats.IFrames++
		} else {
			e.stats.PFrames++
		}
		if m := e.sourceMask(info); m != nil {
			// Externally supplied anchor mask (content cache hit): NN-L is
			// skipped, but the mask still enters the reference window exactly
			// as Finish would have placed it.
			mo.Mask = m
			e.segs[info.Display] = m
			break
		}
		e.stats.NNLRuns++
		return nil, &PendingNN{e: e, mo: mo, frame: out.Pixels}, nil
	case codec.BFrame:
		e.stats.BFrames++
		step := qos.StepRefine
		if sel != nil {
			step = sel(info)
		}
		if step == qos.StepSkip {
			break // shed: side info consumed, no mask computed
		}
		if step == qos.StepFull && out.Pixels != nil {
			// Ladder top rung: the B-frame is re-segmented by NN-L as if it
			// were an anchor, but reseg keeps it out of the reference window.
			e.stats.NNLRuns++
			return nil, &PendingNN{e: e, mo: mo, frame: out.Pixels, reseg: true, info: info}, nil
		}
		if step == qos.StepRefine {
			if m := e.sourceMask(info); m != nil {
				// Cache hit: reconstruction and NN-S are both skipped — the mask
				// is a pure function of the chunk bytes, which the source keys on.
				mo.Mask = m
				break
			}
		}
		t0 := p.Obs.Clock()
		rec, rerr := segment.Reconstruct(info, e.segs, e.w, e.h, e.cfg.BlockSize)
		p.Obs.Span(obs.StageReconstruct, info.Display, byte(info.Type), t0)
		if rerr != nil {
			return nil, nil, fmt.Errorf("core: frame %d: %w", info.Display, rerr)
		}
		e.stats.MVCount += len(info.MVs)
		for _, mv := range info.MVs {
			if mv.BiRef {
				e.stats.BiRefMVs++
			}
		}
		e.stats.IntraFallbackBlocks += info.Blocks - len(info.MVs)
		if e.recons != nil {
			e.recons[info.Display] = rec
		}
		if !e.refine || step == qos.StepRecon {
			mo.Mask = rec.Binary()
			break
		}
		prev, next := flankingAnchors(e.types, e.segs, info.Display)
		pn := &PendingNN{e: e, mo: mo, prev: prev, next: next, rec: rec}
		if p.SkipResidual {
			rect, dirty, total, known := segment.ResidualDirtyRect(info.BlockEnergy, e.w, e.h, e.cfg.BlockSize, p.SkipThreshold, segment.ResidualHalo)
			if !known {
				// No usable energy field (pre-field bitstream): the blocks were
				// never judged, so they count as unknown, not dirty.
				p.Obs.Count(obs.CounterQuantBlocksUnknown, int64(total))
			} else {
				p.Obs.Count(obs.CounterQuantBlocksSkipped, int64(total-dirty))
				p.Obs.Count(obs.CounterQuantBlocksDirty, int64(dirty))
			}
			if rect.Empty() {
				// Every block's motion-compensated prediction survived the
				// threshold: the reconstruction is the answer, no NN work.
				mo.Mask = rec.Binary()
				break
			}
			if !rect.Full(e.w, e.h) {
				pn.prev, pn.next, pn.rec = segment.CropMask(prev, rect), segment.CropMask(next, rect), rec.Crop(rect)
				pn.base, pn.cropX, pn.cropY = rec.Binary(), rect.X0, rect.Y0
			}
		}
		e.stats.NNSRuns++
		e.finishStep()
		return nil, pn, nil
	}
	e.finishStep()
	return mo, nil, nil
}
