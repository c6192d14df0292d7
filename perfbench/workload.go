package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"vrdann/internal/codec"
	"vrdann/internal/core"
	"vrdann/internal/qos"
	"vrdann/internal/segment"
	"vrdann/internal/serve"
	"vrdann/internal/video"
)

// Content geometry shared by every workload.
const (
	frameW, frameH = 96, 64
	// gopFrames is the chunk length of the real-time workloads: one GOP at
	// the codec's default I-period.
	gopFrames = 8
)

// slo is the latency every frame is measured against: one gopFrames chunk
// period of a 30 fps camera.
const slo = time.Second * gopFrames / 30

// workload is one traffic mix: what content each session streams, how
// chunks arrive, and the serving configuration they arrive at.
type workload struct {
	name string
	why  string
	// open selects an open loop (chunks sent on a fixed schedule) over a
	// closed loop (each session sends its next chunk when the last is
	// served).
	open bool
	// fps is each session's frame rate in an open loop.
	fps int
	// profiles is the motion character of each session's content; the
	// seed varies the rendered scene, not its statistics. Session s
	// streams content s, so the number of profiles is the number of
	// sessions.
	profiles    []video.SeqProfile
	chunkFrames int
	// chunks is the number of distinct chunks per content; sessions cycle
	// through them.
	chunks int
	// checkAll compares every served mask with the reference; otherwise
	// only anchors are compared (QoS may legitimately degrade B-frames).
	checkAll bool
	// config is the serving configuration; NewSegmenter and Obs are filled
	// per run.
	config func(m *models) serve.Config
}

// sessions is the number of server sessions, one per content.
func (w *workload) sessions() int { return len(w.profiles) }

// offeredFPS is the open-loop offered frame rate (0 for a closed loop).
func (w *workload) offeredFPS() float64 {
	if !w.open {
		return 0
	}
	return float64(w.sessions() * w.fps)
}

// period is how often an open-loop session sends a chunk.
func (w *workload) period() time.Duration {
	return time.Second * time.Duration(w.chunkFrames) / time.Duration(w.fps)
}

// due is the send time of session s's k-th chunk, relative to the start
// of the run. Sessions are spread evenly over one chunk period.
func (w *workload) due(s, k int) time.Duration {
	return time.Duration(k)*w.period() + time.Duration(s)*w.period()/time.Duration(w.sessions())
}

var workloads = []*workload{
	{
		name: "archive",
		why:  "closed loop, 2 streams of 48-frame chunks, reference config: NN-L and float NN-S compute dominate; masks bit-identical to the standalone pipeline",
		profiles: []video.SeqProfile{
			video.SuiteProfiles[0], // blackswan
			video.SuiteProfiles[3], // camel
		},
		chunkFrames: 48,
		chunks:      4,
		checkAll:    true,
		config: func(m *models) serve.Config {
			return serve.Config{NNS: m.nns}
		},
	},
	{
		name: "live",
		why:  "open loop, 3 cameras at 30 fps, anchor-heavy GOP chunks through batching, int8 NN-S with skip, QoS ladder, deadlines and cache fills",
		open: true,
		fps:  30,
		profiles: []video.SeqProfile{
			video.SuiteProfiles[4],  // car-roundabout
			video.SuiteProfiles[11], // goat
			video.SuiteProfiles[18], // scooter-black
		},
		chunkFrames: gopFrames,
		chunks:      64,
		config: func(m *models) serve.Config {
			return serve.Config{
				NNS:           m.nns,
				QuantNNS:      m.quant,
				SkipResidual:  true,
				SkipThreshold: 8,
				QoS:           &qos.Config{},
				MaxBatch:      2,
				FrameBudget:   slo,
				// Smaller than one cycle of the cameras' committed masks, so
				// every recurring chunk has been evicted again and the
				// cache stays on its miss-and-fill path.
				CacheBytes: 256 << 10,
			}
		},
	},
}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// chunk is one independently encoded GOP-aligned piece of a content, with
// its ground truth and the reference masks served output must equal.
type chunk struct {
	data  []byte
	types []codec.FrameType
	gt    []*video.Mask
	// ref holds the standalone pipeline's masks in display order; refF
	// their F-scores against gt.
	ref  []*video.Mask
	refF []float64
}

// buildContent renders and encodes every distinct chunk of the workload:
// content[c][k] is chunk k of content c. Each chunk is its own scene with
// the content's motion profile; the seed picks the scenes' textures, noise
// and deformations. Many short scenes average out how hard any one scene is
// to segment, so the accuracy figure moves little from seed to seed.
func buildContent(w *workload, seed int64) ([][]*chunk, error) {
	content := make([][]*chunk, len(w.profiles))
	var jobs []func() error
	for c, p := range w.profiles {
		content[c] = make([]*chunk, w.chunks)
		for k := range content[c] {
			ch := &chunk{}
			content[c][k] = ch
			p := p
			p.Seed = (p.Seed*1_000_003+seed)*7919 + int64(k)
			jobs = append(jobs, func() error {
				v := video.MakeSequence(p, frameW, frameH, w.chunkFrames)
				st, err := codec.Encode(v, codec.DefaultConfig())
				if err != nil {
					return fmt.Errorf("encode %s chunk: %w", v.Name, err)
				}
				ch.data, ch.types, ch.gt = st.Data, st.Types, v.Masks
				return nil
			})
		}
	}
	return content, parallel(jobs)
}

// buildReference computes every chunk's reference masks with a standalone
// core.StreamingPipeline on its own model clones — the serial single-stream
// path the serving layer must reproduce. Workloads that only check anchors
// skip NN-S, which does not touch anchor masks.
func buildReference(w *workload, m *models, content [][]*chunk) error {
	var jobs []func() error
	for _, cs := range content {
		for _, ch := range cs {
			jobs = append(jobs, func() error {
				p := &core.StreamingPipeline{NNL: m.nnl.fresh(), Workers: 1}
				if w.checkAll {
					p.NNS, p.Refine = m.nns.Clone(), true
				}
				ch.ref = make([]*video.Mask, len(ch.gt))
				ch.refF = make([]float64, len(ch.gt))
				return p.Run(ch.data, func(mo core.MaskOut) error {
					ch.ref[mo.Display] = mo.Mask
					ch.refF[mo.Display] = segment.PixelFScore(mo.Mask, ch.gt[mo.Display])
					return nil
				})
			})
		}
	}
	return parallel(jobs)
}

// parallel runs jobs on one goroutine per CPU and returns the first error.
func parallel(jobs []func() error) error {
	next := make(chan func() error)
	errs := make(chan error, len(jobs))
	var wg sync.WaitGroup
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for job := range next {
				errs <- job()
			}
		}()
	}
	for _, job := range jobs {
		next <- job
	}
	close(next)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
