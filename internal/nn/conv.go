package nn

import (
	"fmt"
	"math"
	"math/rand"

	"vrdann/internal/tensor"
)

// Conv2D is a 2-D convolution over CHW tensors with symmetric zero padding.
// Inference runs the direct kernel tensor.Conv2DInto; only Backward lowers
// the input to a patch matrix.
type Conv2D struct {
	InC, OutC    int
	KH, KW       int
	Stride, Pad  int
	Weight       *tensor.Tensor // [OutC, InC, KH, KW]
	Bias         *tensor.Tensor // [OutC]
	gradW, gradB *tensor.Tensor
	macs         int64

	// lastX is the input of the most recent Forward, kept for Backward;
	// cols is Backward's patch matrix, reused across training steps.
	lastX, cols *tensor.Tensor

	// scratch holds the kernel's padded input and packed weights, reused
	// by the serial and the batched (batch.go) forward.
	scratch tensor.ConvScratch

	// dq caches the per-channel int8 weights of the dynamic quantized path
	// (ForwardQuant, quantexec.go). Built lazily on first use; training
	// after deployment must not follow — the cache pins the weights.
	dq *dynQuant
}

// NewConv2D creates a convolution layer with He-initialized weights drawn
// from rng.
func NewConv2D(rng *rand.Rand, inC, outC, k, stride, pad int) *Conv2D {
	fanIn := float64(inC * k * k)
	std := math.Sqrt(2 / fanIn)
	return &Conv2D{
		InC: inC, OutC: outC, KH: k, KW: k, Stride: stride, Pad: pad,
		Weight: tensor.Randn(rng, std, outC, inC, k, k),
		Bias:   tensor.New(outC),
		gradW:  tensor.New(outC, inC, k, k),
		gradB:  tensor.New(outC),
	}
}

// Forward implements Layer. Apart from the returned tensor it allocates
// nothing once the layer has seen the input geometry.
func (c *Conv2D) Forward(x *tensor.Tensor) *tensor.Tensor {
	if len(x.Shape) != 3 || x.Shape[0] != c.InC {
		panic(fmt.Sprintf("nn: Conv2D expects [%d H W] input, got %v", c.InC, x.Shape))
	}
	outH := tensor.ConvOutSize(x.Shape[1], c.KH, c.Stride, c.Pad)
	outW := tensor.ConvOutSize(x.Shape[2], c.KW, c.Stride, c.Pad)
	out := tensor.New(c.OutC, outH, outW)
	tensor.Conv2DInto(out, x, c.Weight, c.Bias, c.Stride, c.Pad, &c.scratch)
	c.lastX = x
	c.macs = c.StaticMACs(x.Shape[1], x.Shape[2])
	return out
}

// Backward implements Layer. It lowers the last Forward input to a patch
// matrix, so the gradients are the usual GEMMs over it.
func (c *Conv2D) Backward(grad *tensor.Tensor) *tensor.Tensor {
	x := c.lastX
	outH, outW := grad.Shape[1], grad.Shape[2]
	rows := c.InC * c.KH * c.KW
	if c.cols != nil && c.cols.Shape[0] == rows && c.cols.Shape[1] == outH*outW {
		tensor.Im2ColInto(c.cols, x, c.KH, c.KW, c.Stride, c.Pad)
	} else {
		c.cols = tensor.Im2Col(x, c.KH, c.KW, c.Stride, c.Pad)
	}
	g2d := grad.Reshape(c.OutC, outH*outW)
	// Bias gradient: sum over spatial positions.
	for oc := 0; oc < c.OutC; oc++ {
		var s float32
		row := g2d.Data[oc*outH*outW : (oc+1)*outH*outW]
		for _, v := range row {
			s += v
		}
		c.gradB.Data[oc] += s
	}
	// Weight gradient: gradOut (OutC × P) × colsᵀ (P × K). MatMulBT streams
	// both operands row-major without materializing the transpose.
	gw := tensor.MatMulBT(g2d, c.cols)
	c.gradW.AddInPlace(gw.Reshape(c.Weight.Shape...))
	// Input gradient: Wᵀ × gradOut, scattered back to image space.
	w2d := c.Weight.Reshape(c.OutC, rows)
	gcols := tensor.MatMul(tensor.Transpose(w2d), g2d)
	return tensor.Col2Im(gcols, c.InC, x.Shape[1], x.Shape[2], c.KH, c.KW, c.Stride, c.Pad)
}

// Params implements Layer.
func (c *Conv2D) Params() []*tensor.Tensor { return []*tensor.Tensor{c.Weight, c.Bias} }

// Grads implements Layer.
func (c *Conv2D) Grads() []*tensor.Tensor { return []*tensor.Tensor{c.gradW, c.gradB} }

// MACs implements Layer.
func (c *Conv2D) MACs() int64 { return c.macs }

// Name implements Layer.
func (c *Conv2D) Name() string { return "conv2d" }

// StaticMACs returns the multiply-accumulate count of this convolution for
// an input of the given spatial size, without running it.
func (c *Conv2D) StaticMACs(h, w int) int64 {
	outH := tensor.ConvOutSize(h, c.KH, c.Stride, c.Pad)
	outW := tensor.ConvOutSize(w, c.KW, c.Stride, c.Pad)
	return int64(c.OutC) * int64(c.InC*c.KH*c.KW) * int64(outH*outW)
}

// WeightBytes returns the parameter footprint in bytes assuming 8-bit
// quantized deployment weights (as on the modeled INT8 NPU).
func (c *Conv2D) WeightBytes() int64 {
	return int64(c.Weight.Numel()) + int64(c.Bias.Numel())
}
