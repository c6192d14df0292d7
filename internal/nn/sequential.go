package nn

import "vrdann/internal/tensor"

// Sequential chains layers; the output of each feeds the next.
type Sequential struct {
	Layers []Layer

	// bsc holds one pooled activation buffer per layer for ForwardBatch
	// (batch.go).
	bsc []*tensor.Tensor
}

// NewSequential builds a sequential network from the given layers.
func NewSequential(layers ...Layer) *Sequential {
	return &Sequential{Layers: layers}
}

// Forward implements Layer.
func (s *Sequential) Forward(x *tensor.Tensor) *tensor.Tensor {
	for _, l := range s.Layers {
		x = l.Forward(x)
	}
	return x
}

// Backward implements Layer.
func (s *Sequential) Backward(grad *tensor.Tensor) *tensor.Tensor {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		grad = s.Layers[i].Backward(grad)
	}
	return grad
}

// Params implements Layer.
func (s *Sequential) Params() []*tensor.Tensor {
	var ps []*tensor.Tensor
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// Grads implements Layer.
func (s *Sequential) Grads() []*tensor.Tensor {
	var gs []*tensor.Tensor
	for _, l := range s.Layers {
		gs = append(gs, l.Grads()...)
	}
	return gs
}

// MACs implements Layer.
func (s *Sequential) MACs() int64 {
	var n int64
	for _, l := range s.Layers {
		n += l.MACs()
	}
	return n
}

// Name implements Layer.
func (s *Sequential) Name() string { return "sequential" }
