package segment

import (
	"vrdann/internal/nn"
	"vrdann/internal/obs"
	"vrdann/internal/tensor"
	"vrdann/internal/video"
)

// Sandwich builds the three-channel NN-S input of Sec III-A-2: channel 0 is
// the segmentation of the immediately preceding reference frame, channel 1
// the 2-bit reconstruction of the current B-frame (as 0/0.5/1 values), and
// channel 2 the segmentation of the immediately following reference frame.
func Sandwich(prev *video.Mask, recon *ReconMask, next *video.Mask) *tensor.Tensor {
	x := tensor.New(3, recon.H, recon.W)
	SandwichInto(x, prev, recon, next)
	return x
}

// SandwichInto is Sandwich writing into a caller-owned [3, H, W] tensor;
// every element is overwritten, so the buffer needs no zeroing between
// frames.
func SandwichInto(x *tensor.Tensor, prev *video.Mask, recon *ReconMask, next *video.Mask) {
	w, h := recon.W, recon.H
	plane := h * w
	for y := 0; y < h; y++ {
		for xx := 0; xx < w; xx++ {
			i := y*w + xx
			x.Data[i] = float32(prev.Pix[i])
			x.Data[plane+i] = recon.Value(xx, y)
			x.Data[2*plane+i] = float32(next.Pix[i])
		}
	}
}

// Refiner runs NN-S over a sequence of B-frames, reusing the sandwich
// input tensor across invocations so steady-state refinement allocates
// only the output mask: float refinement runs the network's batched
// forward on a batch of one (nn.RefineNet.ForwardBatch, bitwise equal to
// Forward, with its activations in reused scratch). A Refiner is not safe
// for concurrent use (the network owns that scratch); concurrent pipelines
// hold one Refiner per worker over a Clone of the network.
//
// Exactly one of Net and Quant is set: Net runs float inference, Quant the
// int8 execution tier (same decisions gated on F-score, not bit identity).
type Refiner struct {
	Net   *nn.RefineNet
	Quant *nn.QuantRefineNet
	in    *tensor.Tensor
}

// NewRefiner wraps a refinement network with a reusable input buffer.
func NewRefiner(net *nn.RefineNet) *Refiner { return &Refiner{Net: net} }

// NewQuantRefiner wraps an int8-compiled refinement network; Refine runs
// the quantized tier instead of float.
func NewQuantRefiner(q *nn.QuantRefineNet) *Refiner { return &Refiner{Quant: q} }

// observer returns whichever network's collector is attached.
func (r *Refiner) observer() *obs.Collector {
	if r.Quant != nil {
		return r.Quant.Observer()
	}
	return r.Net.Observer()
}

// Refine runs NN-S on the sandwich of (prev, recon, next) and returns the
// refined binary segmentation of the B-frame.
func (r *Refiner) Refine(prev *video.Mask, recon *ReconMask, next *video.Mask) *video.Mask {
	if r.in == nil || r.in.Shape[1] != recon.H || r.in.Shape[2] != recon.W {
		r.in = tensor.New(3, recon.H, recon.W)
	}
	c := r.observer()
	t := c.Clock()
	SandwichInto(r.in, prev, recon, next)
	c.Span(obs.StageSandwich, -1, obs.KindNone, t)
	var logits *tensor.Tensor
	if r.Quant != nil {
		logits = r.Quant.ForwardQuant(r.in)
	} else {
		logits = r.Net.ForwardBatch(r.in, 1)
	}
	m := video.NewMask(recon.W, recon.H)
	for i, v := range logits.Data {
		if v > 0 {
			m.Pix[i] = 1
		}
	}
	return m
}

// Refine runs NN-S on the sandwich input and returns the refined binary
// segmentation of the B-frame. One-shot form of Refiner.Refine.
func Refine(net *nn.RefineNet, prev *video.Mask, recon *ReconMask, next *video.Mask) *video.Mask {
	return NewRefiner(net).Refine(prev, recon, next)
}

// MaskToTensor converts a binary mask to a [1,H,W] tensor.
func MaskToTensor(m *video.Mask) *tensor.Tensor {
	t := tensor.New(1, m.H, m.W)
	for i, v := range m.Pix {
		t.Data[i] = float32(v)
	}
	return t
}

// FrameToTensor converts a luma frame to a [1,H,W] tensor scaled to [0,1].
func FrameToTensor(f *video.Frame) *tensor.Tensor {
	t := tensor.New(1, f.H, f.W)
	frameToTensorInto(t, f)
	return t
}

// frameToTensorInto is FrameToTensor writing into a [1,H,W] tensor.
func frameToTensorInto(t *tensor.Tensor, f *video.Frame) {
	for i, v := range f.Pix {
		t.Data[i] = float32(v) / 255
	}
}
