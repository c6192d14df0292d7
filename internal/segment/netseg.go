package segment

import (
	"vrdann/internal/nn"
	"vrdann/internal/tensor"
	"vrdann/internal/video"
)

// NetSegmenter runs a trained Go network (the pure-Go NN-L) as a Segmenter.
// Like the network it wraps, it is not safe for concurrent use.
type NetSegmenter struct {
	Label string
	Net   nn.Layer

	// in is the reused input tensor of the batched forward.
	in *tensor.Tensor
}

// batchForwarder is a network with an inference-only batched forward
// (nn.Sequential, and so nn.FCN) whose result aliases network scratch.
type batchForwarder interface {
	ForwardBatch(x *tensor.Tensor, n int) *tensor.Tensor
}

// Name implements Segmenter.
func (n *NetSegmenter) Name() string { return n.Label }

// Segment implements Segmenter. A network with a batched forward runs it
// on a batch of one over a reused input tensor, so steady-state
// segmentation allocates only the returned mask; the logits are bitwise
// those of Forward.
func (n *NetSegmenter) Segment(f *video.Frame, _ int) *video.Mask {
	var logits *tensor.Tensor
	if bf, ok := n.Net.(batchForwarder); ok {
		if n.in == nil || n.in.Shape[1] != f.H || n.in.Shape[2] != f.W {
			n.in = tensor.New(1, f.H, f.W)
		}
		frameToTensorInto(n.in, f)
		logits = bf.ForwardBatch(n.in, 1)
	} else {
		logits = n.Net.Forward(FrameToTensor(f))
	}
	m := video.NewMask(f.W, f.H)
	for i, v := range logits.Data {
		if v > 0 {
			m.Pix[i] = 1
		}
	}
	return m
}

var _ Segmenter = (*NetSegmenter)(nil)
var _ Segmenter = (*Oracle)(nil)
