// Package core implements the VR-DANN algorithm (Sec III): decode the
// bitstream for I/P pixels and B-frame motion vectors, segment I/P-frames
// with the large network NN-L, reconstruct each B-frame's segmentation from
// its motion vectors and the reference-frame results, and refine the
// reconstruction with the lightweight NN-S on a sandwich three-channel
// input. The same machinery extends to detection by treating the detector
// box as a rectangular mask (Sec III-B).
package core

import (
	"context"
	"fmt"

	"vrdann/internal/codec"
	"vrdann/internal/detect"
	"vrdann/internal/nn"
	"vrdann/internal/obs"
	"vrdann/internal/segment"
	"vrdann/internal/video"
)

// Pipeline bundles the two networks of the VR-DANN scheme.
type Pipeline struct {
	// NNL is the large segmentation network applied to I/P-frames (the paper
	// borrows FAVOS's ROI SegNet parameters).
	NNL segment.Segmenter
	// NNS is the lightweight refinement network for B-frames.
	NNS *nn.RefineNet
	// Quant, when non-nil, routes B-frame refinement through the int8
	// execution tier instead of the float NNS. Accuracy is gated on F-score
	// delta against the float path, not bit identity.
	Quant *nn.QuantRefineNet
	// Refine toggles NN-S refinement; disabling it yields the raw
	// motion-vector reconstruction (ablation of Sec III-A-2).
	Refine bool
	// SkipResidual enables residual-driven sparsity: B-frame blocks whose
	// decoded residual energy is at or below SkipThreshold keep their
	// MV-reconstructed mask, and NN-S runs only over the dirty rectangle.
	// A frame with no dirty blocks skips NN-S entirely.
	SkipResidual bool
	// SkipThreshold is the per-block residual-energy cutoff of SkipResidual;
	// 0 (the default) skips only blocks whose motion-compensated prediction
	// was bit-exact at the coding QP.
	SkipThreshold int
	// Workers sets how many goroutines run B-frame NN-S refinement — the
	// overlap of Sec IV's agent unit in software: NN-L anchor inference and
	// MV reconstruction proceed on the run's own goroutine while B-frames
	// are refined on Workers goroutines. <= 1 runs everything on one
	// goroutine, and so do runs without NN-S — RunDetection, and
	// segmentation with Refine off. Output is bit-identical either way
	// (see WithWorkers).
	Workers int
	// Obs, when non-nil, collects per-stage latency, queue-depth gauges and
	// span traces for the run. Nil (the default) costs one pointer check
	// per instrumentation site and nothing else.
	Obs *obs.Collector
}

// Option configures a Pipeline built with New.
type Option func(*Pipeline)

// WithWorkers sets the number of B-frame refinement workers. n <= 1 runs
// the whole pipeline on one goroutine; larger n refines B-frames on n
// goroutines while NN-L anchor inference proceeds. Only NN-S runs on the
// workers: detection and unrefined segmentation ignore n. Masks, detections,
// reconstructions and Stats are bit-identical for every n, so benchmarks
// can sweep 1..NumCPU freely.
func WithWorkers(n int) Option {
	return func(p *Pipeline) { p.Workers = n }
}

// WithObserver attaches a metrics collector to the pipeline.
func WithObserver(c *obs.Collector) Option {
	return func(p *Pipeline) { p.Obs = c }
}

// New builds a pipeline with refinement enabled whenever a refinement
// network is supplied, then applies the options.
func New(nnl segment.Segmenter, nns *nn.RefineNet, opts ...Option) *Pipeline {
	p := &Pipeline{NNL: nnl, NNS: nns, Refine: nns != nil}
	for _, o := range opts {
		o(p)
	}
	return p
}

// workers resolves the effective worker count (>= 1).
func (p *Pipeline) workers() int {
	if p.Workers < 1 {
		return 1
	}
	return p.Workers
}

// Stats counts the work the pipeline performed.
type Stats struct {
	IFrames, PFrames, BFrames int
	NNLRuns, NNSRuns          int
	MVCount                   int
	BiRefMVs                  int
	IntraFallbackBlocks       int
}

// Result is the output of a segmentation run.
type Result struct {
	Masks  []*video.Mask              // display order, one per frame
	Recons map[int]*segment.ReconMask // raw B-frame reconstructions
	Decode *codec.DecodeResult
	Stats  Stats
}

// RunSegmentation executes the full Fig 5 flow on an encoded bitstream.
//
// On success the returned Result is complete. On error the Result is still
// returned (not nil): its Stats hold exactly the counters of the frames
// stepped in decode order up to and including the failing frame —
// identical for every worker count — while its masks are partial and
// unspecified. Callers that only check err keep their existing behaviour.
func (p *Pipeline) RunSegmentation(stream []byte) (*Result, error) {
	return p.RunSegmentationContext(context.Background(), stream)
}

// RunSegmentationContext is RunSegmentation with cancellation: the context
// is checked before every frame; a cancelled run returns ctx.Err() after
// its refinement workers have drained. The partial Result's masks and
// Stats are unspecified on cancellation.
func (p *Pipeline) RunSegmentationContext(ctx context.Context, stream []byte) (*Result, error) {
	dec, err := codec.DecodeObserved(stream, codec.DecodeSideInfo, p.Obs)
	if err != nil {
		return nil, fmt.Errorf("core: decode: %w", err)
	}
	return p.runDecoded(ctx, dec)
}

// streaming returns the engine configuration of the batch pipeline; the
// worker count is passed to the engine directly.
func (p *Pipeline) streaming() *StreamingPipeline {
	return &StreamingPipeline{
		NNL: p.NNL, NNS: p.NNS, Quant: p.Quant, Refine: p.Refine,
		SkipResidual: p.SkipResidual, SkipThreshold: p.SkipThreshold,
		Obs: p.Obs,
	}
}

// runDecoded replays an up-front decode through one engine.
func (p *Pipeline) runDecoded(ctx context.Context, dec *codec.DecodeResult) (*Result, error) {
	res := &Result{
		Masks:  make([]*video.Mask, len(dec.Types)),
		Recons: make(map[int]*segment.ReconMask),
		Decode: dec,
	}
	e := p.streaming().replayEngine(dec, p.workers())
	e.recons = res.Recons
	_, err := e.run(ctx, func(mo *MaskOut) error {
		res.Masks[mo.Display] = mo.Mask
		return nil
	})
	res.Stats = e.stats
	return res, err
}

// FlankingAnchors returns the segmentations of the immediately preceding
// and following anchor frames available in segs — the sandwich channels of
// Sec III-A-2. Exposed for callers that re-run refinement on cached
// reconstructions (e.g. the INT8 deployment study).
func FlankingAnchors(types []codec.FrameType, segs map[int]*video.Mask, d int) (prev, next *video.Mask) {
	return flankingAnchors(types, segs, d)
}

// flankingAnchors returns the segmentations of the immediately preceding
// and following anchor frames (Sec III-A-2: "the temporally closest
// frames"). At sequence edges the available side is duplicated.
func flankingAnchors(types []codec.FrameType, segs map[int]*video.Mask, d int) (prev, next *video.Mask) {
	for i := d - 1; i >= 0; i-- {
		if types[i].IsAnchor() {
			if m, ok := segs[i]; ok {
				prev = m
				break
			}
		}
	}
	for i := d + 1; i < len(types); i++ {
		if types[i].IsAnchor() {
			if m, ok := segs[i]; ok {
				next = m
				break
			}
		}
	}
	if prev == nil {
		prev = next
	}
	if next == nil {
		next = prev
	}
	return prev, next
}

// BoxDetector produces scored detections for one decoded frame; it plays
// the role NN-L plays for segmentation when VR-DANN is applied to video
// detection.
type BoxDetector interface {
	Detect(f *video.Frame, display int) []detect.Detection
	Name() string
}

// DetectionResult is the output of a detection run.
type DetectionResult struct {
	Detections [][]detect.Detection // display order
	Decode     *codec.DecodeResult
	Stats      Stats
}

// RunDetection applies the VR-DANN scheme to video detection: the detector
// runs on I/P-frames; each detected box becomes a rectangular mask whose
// B-frame propagation reuses the segmentation reconstruction, and the
// propagated mask's bounding box is the B-frame detection (Sec III-B).
//
// Error-path Stats follow the RunSegmentation contract: on failure the
// returned result carries the decode-order prefix counters, identical for
// every worker count.
func (p *Pipeline) RunDetection(stream []byte, det BoxDetector) (*DetectionResult, error) {
	return p.RunDetectionContext(context.Background(), stream, det)
}

// RunDetectionContext is RunDetection with cancellation, under the same
// contract as RunSegmentationContext.
func (p *Pipeline) RunDetectionContext(ctx context.Context, stream []byte, det BoxDetector) (*DetectionResult, error) {
	dec, err := codec.DecodeObserved(stream, codec.DecodeSideInfo, p.Obs)
	if err != nil {
		return nil, fmt.Errorf("core: decode: %w", err)
	}
	return p.runDetectionDecoded(ctx, dec, det)
}

// runDetectionDecoded replays an up-front decode through one engine whose
// NN-L is the detector. Boxes propagate by MV reconstruction alone — the
// detection form has no NN-S — so the pipeline's refinement settings and
// Workers do not apply: the whole run is on the caller's goroutine.
func (p *Pipeline) runDetectionDecoded(ctx context.Context, dec *codec.DecodeResult, det BoxDetector) (*DetectionResult, error) {
	res := &DetectionResult{
		Detections: make([][]detect.Detection, len(dec.Types)),
		Decode:     dec,
	}
	nnl := &boxSegmenter{det: det, dets: res.Detections, scores: make([]float64, len(dec.Types))}
	e := (&StreamingPipeline{NNL: nnl, Obs: p.Obs}).replayEngine(dec, 1)
	_, err := e.run(ctx, func(mo *MaskOut) error {
		if mo.Type == codec.BFrame {
			res.Detections[mo.Display] = bDetection(dec.Infos[mo.Display], mo.Mask, nnl.scores)
		}
		return nil
	})
	res.Stats = e.stats
	return res, err
}

// boxSegmenter is the NN-L of the detection pipeline: it runs the detector
// on an anchor, records the detections and their best score, and
// rasterizes the boxes into the mask the B-frame reconstruction
// propagates.
type boxSegmenter struct {
	det    BoxDetector
	dets   [][]detect.Detection // by display index
	scores []float64            // best anchor score, by display index
}

func (b *boxSegmenter) Segment(f *video.Frame, display int) *video.Mask {
	dets := b.det.Detect(f, display)
	b.dets[display] = dets
	m, s := anchorBoxMask(dets, f.W, f.H)
	b.scores[display] = s
	return m
}

func (b *boxSegmenter) Name() string { return b.det.Name() }

// anchorBoxMask rasterizes an anchor frame's detections into the mask the
// B-frame reconstruction propagates, and returns the best score.
func anchorBoxMask(dets []detect.Detection, w, h int) (*video.Mask, float64) {
	m := video.NewMask(w, h)
	var s float64
	for _, dd := range dets {
		fillRect(m, dd.Box)
		if dd.Score > s {
			s = dd.Score
		}
	}
	return m, s
}

// bDetection derives one B-frame's detection from its propagated box mask
// (the unrefined MV reconstruction) and the scores of the anchors its
// motion vectors reference (Sec III-B).
func bDetection(info codec.FrameInfo, mask *video.Mask, scores []float64) []detect.Detection {
	score := 0.5
	if len(info.MVs) > 0 {
		score = 0
		for _, mv := range info.MVs {
			score += scores[mv.Ref]
		}
		score /= float64(len(info.MVs))
	}
	// Stray blocks whose motion vectors grazed the reference box would
	// blow up the bounding box; keep only the dominant component and trim
	// macro-block protrusions from its extent.
	box := detect.RobustBox(segment.LargestComponent(mask), 0.02)
	if box.Empty() {
		return nil
	}
	return []detect.Detection{{Box: box, Score: score}}
}

func fillRect(m *video.Mask, r video.Rect) {
	for y := r.Y0; y < r.Y1; y++ {
		for x := r.X0; x < r.X1; x++ {
			m.Set(x, y, 1)
		}
	}
}
