// Package experiments regenerates every table and figure of the VR-DANN
// paper's evaluation (Sec VI) on the synthetic substrate. A Harness caches
// the expensive shared artifacts — rendered suites, encoded streams, the
// trained NN-S — so the per-figure entry points stay cheap to compose.
package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"vrdann/internal/baseline"
	"vrdann/internal/codec"
	"vrdann/internal/core"
	"vrdann/internal/nn"
	"vrdann/internal/segment"
	"vrdann/internal/sim"
	"vrdann/internal/video"
)

// Config scopes an experiment run.
type Config struct {
	W, H       int // evaluation resolution for the accuracy pipelines
	DetW, DetH int // detection evaluation resolution (larger: box IoU is
	// sensitive to the macro-block granularity relative to object size)
	Frames      int // frames per evaluation sequence
	TrainFrames int // frames per training sequence
	Videos      int // restrict the suites to the first N sequences (0 = all)
	SimW, SimH  int // resolution the simulator scales workloads to

	Enc codec.Config
	Sim sim.Params

	// Oracle calibration: boundary-noise strengths standing in for the
	// respective segmentation networks (FAVOS's ROI SegNet is the
	// strongest; the paper borrows it as VR-DANN's NN-L).
	FAVOSNoise float64
	OSVOSNoise float64
	DFFNoise   float64
	// Detection jitter (pixels) standing in for the detector head.
	DetJitter float64

	Train core.TrainConfig
	Seed  int64
	// SkipThreshold is the residual-energy cutoff of the quant figure's
	// int8+skip path: blocks whose summed |residual levels| stay at or
	// below it reuse the MV-reconstructed mask without NN-S refinement.
	// The synthetic suite's sensor noise keeps block energies just above
	// zero, so a small nonzero cutoff separates "noise only" from "the
	// prediction actually missed" (the F-score gate checks it costs no
	// accuracy).
	SkipThreshold int
	// AdaptThink overrides the closed-loop viewer think time of the
	// online-adaptation figure (0 = the figure's 250ms default). The think
	// gap is the idle-gated trainer's entire compute budget, so harnesses
	// running under instrumentation that inflates step cost (-race) widen it
	// to keep the adaptation schedule comparable.
	AdaptThink time.Duration
	// Workers bounds the per-video parallelism of the suite loops
	// (0 = min(NumCPU, 8)).
	Workers int
	// PipelineWorkers is each VR-DANN pipeline's NN-S worker count
	// (core.WithWorkers): > 1 refines B-frames on that many goroutines
	// beside NN-L, <= 1 refines inline; detection has no NN-S and runs on
	// one goroutine either way. Results are bit-identical, so accuracy
	// tables are unaffected.
	PipelineWorkers int
}

// Default returns the configuration used for all reported numbers.
func Default() Config {
	return Config{
		W: 96, H: 64, DetW: 192, DetH: 128, Frames: 48, TrainFrames: 32,
		SimW: 854, SimH: 480,
		Enc:           codec.DefaultConfig(),
		Sim:           sim.DefaultParams(),
		FAVOSNoise:    0.05,
		OSVOSNoise:    0.045,
		DFFNoise:      0.065,
		DetJitter:     3.2,
		Train:         core.DefaultTrainConfig(),
		Seed:          1,
		SkipThreshold: 8,
	}
}

// Harness lazily materializes and caches the shared artifacts.
type Harness struct {
	Cfg Config

	mu      sync.Mutex
	suite   []*video.Video
	detSet  []*video.Video
	streams map[string]*codec.Stream
	decodes map[string]*codec.DecodeResult
	nns     *nn.RefineNet
	qnns    *nn.QuantRefineNet
}

// New constructs a harness.
func New(cfg Config) *Harness {
	return &Harness{
		Cfg:     cfg,
		streams: make(map[string]*codec.Stream),
		decodes: make(map[string]*codec.DecodeResult),
	}
}

// Suite returns the 20-sequence segmentation suite (rendered once).
func (h *Harness) Suite() []*video.Video {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.suite == nil {
		h.suite = video.MakeSuite(h.Cfg.W, h.Cfg.H, h.Cfg.Frames)
		if h.Cfg.Videos > 0 && h.Cfg.Videos < len(h.suite) {
			h.suite = h.suite[:h.Cfg.Videos]
		}
	}
	return h.suite
}

// DetectionSuite returns the speed-classed detection suite.
func (h *Harness) DetectionSuite() []*video.Video {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.detSet == nil {
		h.detSet = video.MakeDetectionSuite(h.Cfg.DetW, h.Cfg.DetH, h.Cfg.Frames)
		if h.Cfg.Videos > 0 && h.Cfg.Videos < len(h.detSet) {
			h.detSet = h.detSet[:h.Cfg.Videos]
		}
	}
	return h.detSet
}

// StreamFor encodes (and caches) one video under the given configuration.
func (h *Harness) StreamFor(v *video.Video, enc codec.Config) (*codec.Stream, error) {
	key := fmt.Sprintf("%s/%+v", v.Name, enc)
	h.mu.Lock()
	st, ok := h.streams[key]
	h.mu.Unlock()
	if ok {
		return st, nil
	}
	st, err := codec.Encode(v, enc)
	if err != nil {
		return nil, fmt.Errorf("experiments: encode %q: %w", v.Name, err)
	}
	h.mu.Lock()
	h.streams[key] = st
	h.mu.Unlock()
	return st, nil
}

// SideDecodeFor decodes (and caches) a stream in side-info mode.
func (h *Harness) SideDecodeFor(v *video.Video, enc codec.Config) (*codec.DecodeResult, error) {
	st, err := h.StreamFor(v, enc)
	if err != nil {
		return nil, err
	}
	key := fmt.Sprintf("%s/%+v", v.Name, enc)
	h.mu.Lock()
	dec, ok := h.decodes[key]
	h.mu.Unlock()
	if ok {
		return dec, nil
	}
	dec, err = codec.Decode(st.Data, codec.DecodeSideInfo)
	if err != nil {
		return nil, fmt.Errorf("experiments: decode %q: %w", v.Name, err)
	}
	h.mu.Lock()
	h.decodes[key] = dec
	h.mu.Unlock()
	return dec, nil
}

// NNS trains (once) and returns the refinement network, following the
// paper's recipe: held-out training sequences, two epochs.
func (h *Harness) NNS() (*nn.RefineNet, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.nns != nil {
		return h.nns, nil
	}
	train := video.MakeTrainingSet(h.Cfg.W, h.Cfg.H, h.Cfg.TrainFrames)
	net, err := core.TrainNNS(train, h.Cfg.Enc, h.Cfg.Train)
	if err != nil {
		return nil, err
	}
	h.nns = net
	return net, nil
}

// nnlFor builds the per-video NN-L oracle at the given strength and
// displacement depth (seeded per sequence so noise is deterministic but
// uncorrelated across videos).
func (h *Harness) nnlFor(v *video.Video, label string, strength float64, radius int) segment.Segmenter {
	return segment.NewOracle(label, v.Masks, strength, radius, h.Cfg.Seed+int64(hashName(v.Name)))
}

func hashName(s string) uint32 {
	var x uint32 = 2166136261
	for i := 0; i < len(s); i++ {
		x = (x ^ uint32(s[i])) * 16777619
	}
	return x % (1 << 16)
}

// RunVRDANN executes the VR-DANN pipeline on one video under the given
// encoder configuration, returning per-frame masks and run stats.
func (h *Harness) RunVRDANN(v *video.Video, enc codec.Config) (*core.Result, error) {
	nns, err := h.NNS()
	if err != nil {
		return nil, err
	}
	return h.RunVRDANNNet(v, enc, nns)
}

// RunVRDANNNet is RunVRDANN with an explicit refinement network — pass a
// Clone per goroutine when running videos concurrently (network layers
// cache forward-pass state).
func (h *Harness) RunVRDANNNet(v *video.Video, enc codec.Config, nns *nn.RefineNet) (*core.Result, error) {
	st, err := h.StreamFor(v, enc)
	if err != nil {
		return nil, err
	}
	p := &core.Pipeline{NNL: h.nnlFor(v, "NN-L(FAVOS)", h.Cfg.FAVOSNoise, 3), NNS: nns, Refine: true, Workers: h.Cfg.PipelineWorkers}
	return p.RunSegmentation(st.Data)
}

// workers resolves the configured suite-loop parallelism.
func (h *Harness) workers() int {
	if h.Cfg.Workers > 0 {
		return h.Cfg.Workers
	}
	n := runtime.NumCPU()
	if n > 8 {
		n = 8
	}
	if n < 1 {
		n = 1
	}
	return n
}

// forEach runs fn(i) for i in [0, n) on a bounded worker pool and returns
// the first error. Results must be written to index-addressed slots so
// aggregation stays deterministic.
func (h *Harness) forEach(n int, fn func(i int) error) error {
	workers := h.workers()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var wg sync.WaitGroup
	idx := make(chan int)
	errs := make([]error, n)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				errs[i] = fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// RunFAVOS executes the FAVOS baseline on one video.
func (h *Harness) RunFAVOS(v *video.Video) (*baseline.SegResult, error) {
	st, err := h.StreamFor(v, h.Cfg.Enc)
	if err != nil {
		return nil, err
	}
	// FAVOS couples the segmentation network with part tracking, which
	// sharpens localization beyond the raw network output (Sec VII-A-2);
	// VR-DANN borrows the network parameters but not the tracker, which is
	// why the paper finds FAVOS slightly ahead. The tracker's benefit is
	// modeled as a modest reduction of the effective boundary error.
	strength := h.Cfg.FAVOSNoise * 0.94
	return baseline.RunFAVOS(st.Data, h.nnlFor(v, "FAVOS", strength, 3), v.Masks[0])
}

// RunOSVOS executes the OSVOS baseline on one video.
func (h *Harness) RunOSVOS(v *video.Video) (*baseline.SegResult, error) {
	st, err := h.StreamFor(v, h.Cfg.Enc)
	if err != nil {
		return nil, err
	}
	return baseline.RunOSVOS(st.Data, h.nnlFor(v, "OSVOS", h.Cfg.OSVOSNoise, 4))
}

// RunDFF executes the DFF baseline on one video.
func (h *Harness) RunDFF(v *video.Video) (*baseline.SegResult, error) {
	st, err := h.StreamFor(v, h.Cfg.Enc)
	if err != nil {
		return nil, err
	}
	return baseline.RunDFF(st.Data, h.nnlFor(v, "DFF", h.Cfg.DFFNoise, 3), baseline.DefaultDFFConfig())
}

// ScoreMasks returns the sequence-mean boundary F and region J of
// predictions against the video's ground truth.
func ScoreMasks(pred []*video.Mask, v *video.Video) (f, j float64) {
	var s segment.SeqScore
	for i := range pred {
		s.Add(pred[i], v.Masks[i])
	}
	return s.Mean()
}
