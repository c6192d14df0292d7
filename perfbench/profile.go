package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"vrdann/internal/codec"
	"vrdann/internal/core"
	"vrdann/internal/obs"
	"vrdann/internal/segment"
	"vrdann/internal/sim/dram"
	"vrdann/internal/sim/npu"
	"vrdann/internal/tensor"
	"vrdann/internal/video"
)

// profileReps is how many single calls each layer timing takes the median
// of.
const profileReps = 15

// profileLayers times the networks and the per-frame steps one call at a
// time, on the workload's own content, with the server stopped so nothing
// else runs. It fills the fcn.*, nns.*, segment.* and core.* metrics.
func profileLayers(w *workload, m *models, content [][]*chunk, out map[string]float64) error {
	frame, err := firstAnchor(content[0][0])
	if err != nil {
		return err
	}
	profileFCN(m, frame, out)
	x, err := profileSegment(w, m, content[0], out)
	if err != nil {
		return err
	}
	profileNNS(m, x, out)
	return profileStep(w, m, content[0], out)
}

// firstAnchor decodes a chunk's first frame, an I-frame.
func firstAnchor(ch *chunk) (*video.Frame, error) {
	dec, err := codec.NewStreamDecoder(ch.data, codec.DecodeSideInfo)
	if err != nil {
		return nil, err
	}
	f, err := dec.Next()
	if err != nil {
		return nil, err
	}
	return f.Pixels, nil
}

// profileFCN times each layer of a private NN-L clone, one Forward at a
// time. bytes counts the float32 input, output and parameter tensors a
// layer touches; npu_model_us is the sim/npu roofline for the same layer
// on the modelled int8 NPU — a model, not a measurement.
func profileFCN(m *models, frame *video.Frame, out map[string]float64) {
	net := m.nnl.net()
	x0 := segment.FrameToTensor(frame)
	net.Forward(x0) // size the layers' scratch
	names := fcnLayerNames()
	times := make([][]float64, len(net.Layers))
	for r := 0; r < profileReps; r++ {
		x := x0
		for i, l := range net.Layers {
			t0 := time.Now()
			x = l.Forward(x)
			times[i] = append(times[i], us(time.Since(t0)))
		}
	}
	model := npu.New(npu.DefaultConfig())
	bw := dram.DefaultConfig().PeakBandwidthGBps() // bytes per ns
	x := x0
	for i, l := range net.Layers {
		y := l.Forward(x)
		params := 0
		for _, p := range l.Params() {
			params += p.Numel()
		}
		macs := l.MACs()
		t := median(times[i])
		// The NPU holds int8 tensors: one byte per element.
		job := npu.Job{Ops: 2 * macs, WeightBytes: int64(params), InBytes: int64(x.Numel()), OutBytes: int64(y.Numel())}
		wb, act := model.TrafficBytes(job)
		p := "fcn." + names[i]
		out[p+".us"] = t
		out[p+".macs"] = float64(macs)
		out[p+".gmacs"] = float64(macs) / (t * 1e3)
		out[p+".bytes"] = float64(4 * (x.Numel() + y.Numel() + params))
		out[p+".npu_model_us"] = model.Run(job, float64(wb+act)/bw) / 1e3
		x = y
	}
	out["fcn.allocs_per_forward"] = allocsPer(func() { net.Forward(x0) })
}

// profileSegment times MV reconstruction, the sandwich build and NN-S
// refinement (on the workload's NN-S tier) over the B-frames of the
// content's chunks, anchored on the reference anchor masks. It returns one
// sandwich input for the NN-S profile.
func profileSegment(w *workload, m *models, chunks []*chunk, out map[string]float64) (*tensor.Tensor, error) {
	refiner := segment.NewRefiner(m.nns.Clone())
	if w.config(m).QuantNNS != nil {
		refiner = segment.NewQuantRefiner(m.quant.Clone())
	}
	var recon, sandwich, refine []float64
	var x *tensor.Tensor
	for _, ch := range chunks {
		dec, err := codec.NewStreamDecoder(ch.data, codec.DecodeSideInfo)
		if err != nil {
			return nil, err
		}
		segs := map[int]*video.Mask{}
		for d, t := range ch.types {
			if t.IsAnchor() {
				segs[d] = ch.ref[d]
			}
		}
		for {
			f, err := dec.Next()
			if err != nil {
				return nil, err
			}
			if f == nil {
				break
			}
			if f.Info.Type != codec.BFrame {
				continue
			}
			t0 := time.Now()
			rec, err := segment.Reconstruct(f.Info, segs, frameW, frameH, dec.Config().BlockSize)
			recon = append(recon, us(time.Since(t0)))
			if err != nil {
				return nil, fmt.Errorf("reconstruct frame %d: %w", f.Info.Display, err)
			}
			prev, next := core.FlankingAnchors(ch.types, segs, f.Info.Display)
			if x == nil {
				x = tensor.New(3, frameH, frameW)
			}
			t0 = time.Now()
			segment.SandwichInto(x, prev, rec, next)
			sandwich = append(sandwich, us(time.Since(t0)))
			t0 = time.Now()
			refiner.Refine(prev, rec, next)
			refine = append(refine, us(time.Since(t0)))
		}
		if len(refine) >= 48 {
			break
		}
	}
	if x == nil {
		return nil, fmt.Errorf("content has no B-frames")
	}
	out["segment.reconstruct_us"] = median(recon)
	out["segment.sandwich_us"] = median(sandwich)
	out["segment.refine_us"] = median(refine)
	return x, nil
}

// profileNNS times one NN-S forward on each tier, and the float network's
// three convolutions through its own per-layer observer stages.
func profileNNS(m *models, x *tensor.Tensor, out map[string]float64) {
	float := m.nns.Clone()
	quant := m.quant.Clone()
	float.Forward(x)
	quant.ForwardQuant(x)
	var ft, qt []float64
	for r := 0; r < profileReps; r++ {
		t0 := time.Now()
		float.Forward(x)
		ft = append(ft, ms(time.Since(t0)))
		t0 = time.Now()
		quant.ForwardQuant(x)
		qt = append(qt, ms(time.Since(t0)))
	}
	out["nns.float.forward_ms"] = median(ft)
	out["nns.int8.forward_ms"] = median(qt)
	out["nns.gmacs"] = float64(m.nns.StaticMACs(frameH, frameW)) / (out["nns.float.forward_ms"] * 1e6)
	out["nns.allocs_per_forward"] = allocsPer(func() { float.Forward(x) })

	col := obs.New()
	float.SetObserver(col)
	for r := 0; r < profileReps; r++ {
		float.Forward(x)
	}
	st := stageTotals([]*obs.Report{col.Snapshot()})
	for i, s := range []string{"nn-s/conv1", "nn-s/conv2", "nn-s/conv3"} {
		out[fmt.Sprintf("nns.conv%d.us", i+1)] = st[s].meanUS()
	}
}

// profileStep runs a standalone StreamEngine over 48 frames of the content
// on the workload's pipeline configuration and reports the time Step spends
// outside the NN-L, reconstruction and NN-S spans it records — decode,
// bookkeeping and glue.
func profileStep(w *workload, m *models, chunks []*chunk, out map[string]float64) error {
	cfg := w.config(m)
	col := obs.New()
	p := &core.StreamingPipeline{
		NNL: m.nnl.fresh(), NNS: cfg.NNS, Quant: cfg.QuantNNS, Refine: true,
		SkipResidual: cfg.SkipResidual, SkipThreshold: cfg.SkipThreshold,
		Workers: 1, Obs: col,
	}
	var step time.Duration
	frames := 0
	for _, ch := range chunks {
		dec, err := codec.NewStreamDecoder(ch.data, codec.DecodeSideInfo)
		if err != nil {
			return err
		}
		e := p.NewEngine(dec)
		for {
			t0 := time.Now()
			mo, err := e.Step(context.Background())
			step += time.Since(t0)
			if err != nil {
				return err
			}
			if mo == nil {
				break
			}
			frames++
		}
		if frames >= 48 {
			break
		}
	}
	st := stageTotals([]*obs.Report{col.Snapshot()})
	inner := st["nn-l"].total + st["reconstruct"].total + st["nn-s"].total
	out["core.step_self_us"] = us(step-time.Duration(inner)) / float64(frames)
	return nil
}

// allocsPer reports the heap allocations of one call of f, averaged over
// a few calls after a warm-up call.
func allocsPer(f func()) float64 {
	const n = 5
	f()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / n
}

// stageTotal sums one obs stage over several collectors.
type stageTotal struct{ total, count int64 }

func (s stageTotal) meanUS() float64 {
	if s.count == 0 {
		return 0
	}
	return float64(s.total) / float64(s.count) / 1e3
}

func stageTotals(reports []*obs.Report) map[string]stageTotal {
	out := map[string]stageTotal{}
	for _, r := range reports {
		for _, s := range r.Stages {
			t := out[s.Name]
			t.total += s.TotalNS
			t.count += s.Count
			out[s.Name] = t
		}
	}
	return out
}
