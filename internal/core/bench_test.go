package core

import (
	"fmt"
	"math/rand"
	"testing"

	"vrdann/internal/codec"
	"vrdann/internal/nn"
	"vrdann/internal/segment"
	"vrdann/internal/video"
)

// BenchmarkPipelineSegmentation measures the end-to-end segmentation run at
// several worker counts. With workers > 1, B-frame NN-S refinement runs on
// the workers beside NN-L anchor inference and MV reconstruction; on a
// multi-core host the speedup approaches the NN-S share of total work.
func BenchmarkPipelineSegmentation(b *testing.B) {
	v := video.Generate(video.SceneSpec{
		Name: "bench", W: 128, H: 96, Frames: 32, Seed: 42, Noise: 1.5,
		Objects: []video.ObjectSpec{{
			Shape: video.ShapeDisk, Radius: 20, X: 48, Y: 48,
			VX: 1.5, VY: 0.7, Intensity: 220, Foreground: true,
		}},
	})
	st, err := codec.Encode(v, codec.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	nns := nn.NewRefineNet(rand.New(rand.NewSource(11)), 8)
	for _, nw := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", nw), func(b *testing.B) {
			b.ReportAllocs()
			p := New(segment.NewOracle("oracle", v.Masks, 0, 0, 1), nns, WithWorkers(nw))
			for i := 0; i < b.N; i++ {
				if _, err := p.RunSegmentation(st.Data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkStreamingSegmentation measures the incremental pipeline, which
// decodes frame by frame instead of up front, with the same worker sweep.
func BenchmarkStreamingSegmentation(b *testing.B) {
	v := video.Generate(video.SceneSpec{
		Name: "bench-stream", W: 128, H: 96, Frames: 32, Seed: 42, Noise: 1.5,
		Objects: []video.ObjectSpec{{
			Shape: video.ShapeDisk, Radius: 20, X: 48, Y: 48,
			VX: 1.5, VY: 0.7, Intensity: 220, Foreground: true,
		}},
	})
	st, err := codec.Encode(v, codec.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	nns := nn.NewRefineNet(rand.New(rand.NewSource(11)), 8)
	for _, nw := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", nw), func(b *testing.B) {
			b.ReportAllocs()
			p := &StreamingPipeline{
				NNL: segment.NewOracle("oracle", v.Masks, 0, 0, 1),
				NNS: nns, Refine: true, Workers: nw,
			}
			for i := 0; i < b.N; i++ {
				if err := p.Run(st.Data, func(MaskOut) error { return nil }); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPipelineDetection measures the detection run (Fig 11 geometry)
// with the same worker sweep. Detection has no NN-S, so every worker count
// runs on one goroutine; the sweep shows Workers leaves it unchanged.
func BenchmarkPipelineDetection(b *testing.B) {
	v := video.Generate(video.SceneSpec{
		Name: "bench-detect", W: 192, H: 128, Frames: 48, Seed: 42, Noise: 1.5,
		Objects: []video.ObjectSpec{{
			Shape: video.ShapeDisk, Radius: 24, X: 64, Y: 64,
			VX: 1.5, VY: 0.7, Intensity: 220, Foreground: true,
		}},
	})
	st, err := codec.Encode(v, codec.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	for _, nw := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", nw), func(b *testing.B) {
			b.ReportAllocs()
			p := &Pipeline{Workers: nw}
			for i := 0; i < b.N; i++ {
				if _, err := p.RunDetection(st.Data, &gtBoxDetector{v: v}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
