package nn

import (
	"fmt"

	"vrdann/internal/obs"
	"vrdann/internal/par"
	"vrdann/internal/tensor"
)

// Batched inference path. The serving layer's dynamic batching engine
// coalesces NN work from many streams into one fused execution per layer —
// the software reading of the paper's agent unit, which reorders work to
// minimize NN-L/NN-S kernel switching. A batch of n CHW items is packed
// item-major into one wide tensor ([n*C, H, W]); each convolution is one
// call of the direct kernel tensor.Conv2DInto over the whole batch (output
// rows of all items split across cores), and the channel-independent
// layers (pool, upsample, ReLU) treat the wide tensor as just more
// channels.
//
// Two invariants carry the whole design:
//
//  1. Bit identity. The kernel produces every output element of item i
//     from item i's input alone, with the same accumulation order as the
//     serial forward (which runs the same kernel), and every other layer is
//     element- or channel-local. A batched forward is therefore bitwise
//     equal to n serial forwards at any batch size.
//  2. No steady-state allocation. All intermediates live in pooled scratch
//     buffers (par.GetFloats) owned by the network instance and reused
//     across flushes, the kernels reuse each layer's padded-input scratch,
//     and the serial fallbacks run before any parallel closure is built.
//     TestForwardBatchZeroAlloc pins this.
//
// Batched forwards are inference-only (no activation caches for Backward)
// and, like the serial path, not safe for concurrent use of one instance.

// ForwardBatch runs the convolution over a batch of n items packed
// item-major into x ([n*InC, H, W]) and returns [n*OutC, outH, outW],
// bit-identical to n serial Forward calls. Inference-only: no state for
// Backward is recorded and MACs is not updated.
func (c *Conv2D) ForwardBatch(x *tensor.Tensor, n int) *tensor.Tensor {
	if len(x.Shape) != 3 || n <= 0 || x.Shape[0] != n*c.InC {
		panic(fmt.Sprintf("nn: Conv2D.ForwardBatch expects [%d*%d H W] input, got %v", n, c.InC, x.Shape))
	}
	outH := tensor.ConvOutSize(x.Shape[1], c.KH, c.Stride, c.Pad)
	outW := tensor.ConvOutSize(x.Shape[2], c.KW, c.Stride, c.Pad)
	dst := tensor.New(n*c.OutC, outH, outW)
	c.forwardBatchInto(dst, x)
	return dst
}

// forwardBatchInto is ForwardBatch writing into a caller-owned
// [n*OutC, outH, outW] tensor; the kernel takes the item-major batch as is
// and reuses the layer's scratch.
func (c *Conv2D) forwardBatchInto(dst, x *tensor.Tensor) {
	tensor.Conv2DInto(dst, x, c.Weight, c.Bias, c.Stride, c.Pad, &c.scratch)
}

// reluInPlace applies max(0, v) in place with the exact comparison the
// serial ReLU layer uses (v > 0 keeps v, anything else — including NaN —
// becomes 0).
func reluInPlace(x *tensor.Tensor) {
	for i, v := range x.Data {
		if v > 0 {
			x.Data[i] = v
		} else {
			x.Data[i] = 0
		}
	}
}

// maxPool2Batch is MaxPool2.Forward over a wide batch tensor, minus the
// argmax cache (inference-only). Pooling is channel-local, so the packed
// [n*C, H, W] layout needs no special handling.
func maxPool2Batch(dst, x *tensor.Tensor) {
	c, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
	// Serial fast path before the closure literal, as in maxPool2BatchI8.
	grain := par.Grain(c, h*w, par.MinWorkFloats)
	if grain >= c || par.MaxWorkers() == 1 {
		maxPool2Rows(dst, x, 0, c)
		return
	}
	par.For(c, grain, func(clo, chi int) {
		maxPool2Rows(dst, x, clo, chi)
	})
}

func maxPool2Rows(dst, x *tensor.Tensor, clo, chi int) {
	h, w := x.Shape[1], x.Shape[2]
	oh, ow := h/2, w/2
	for ch := clo; ch < chi; ch++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				base := (ch*h+oy*2)*w + ox*2
				best := x.Data[base]
				for dy := 0; dy < 2; dy++ {
					for dx := 0; dx < 2; dx++ {
						if v := x.Data[base+dy*w+dx]; v > best {
							best = v
						}
					}
				}
				dst.Data[(ch*oh+oy)*ow+ox] = best
			}
		}
	}
}

// upsample2Batch is Upsample2.Forward (nearest-neighbor ×2) over a wide
// batch tensor; like pooling it is channel-local.
func upsample2Batch(dst, x *tensor.Tensor) {
	c, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
	grain := par.Grain(c, 4*h*w, par.MinWorkFloats)
	if grain >= c || par.MaxWorkers() == 1 {
		upsample2Rows(dst, x, 0, c)
		return
	}
	par.For(c, grain, func(clo, chi int) {
		upsample2Rows(dst, x, clo, chi)
	})
}

func upsample2Rows(dst, x *tensor.Tensor, clo, chi int) {
	h, w := x.Shape[1], x.Shape[2]
	for ch := clo; ch < chi; ch++ {
		for y := 0; y < h; y++ {
			srcRow := (ch*h + y) * w
			for x2 := 0; x2 < w; x2++ {
				v := x.Data[srcRow+x2]
				d0 := (ch*h*2+y*2)*w*2 + x2*2
				d1 := d0 + w*2
				dst.Data[d0] = v
				dst.Data[d0+1] = v
				dst.Data[d1] = v
				dst.Data[d1+1] = v
			}
		}
	}
}

// concatChannelsBatch interleaves two item-major batch tensors along the
// channel axis: item i of dst is ConcatChannels(item i of a, item i of b).
func concatChannelsBatch(dst, a, b *tensor.Tensor, n int) {
	ca, cb := a.Shape[0]/n, b.Shape[0]/n
	hw := a.Shape[1] * a.Shape[2]
	for i := 0; i < n; i++ {
		copy(dst.Data[i*(ca+cb)*hw:], a.Data[i*ca*hw:(i+1)*ca*hw])
		copy(dst.Data[(i*(ca+cb)+ca)*hw:], b.Data[i*cb*hw:(i+1)*cb*hw])
	}
}

// ForwardBatch runs the chain over a batch of n items packed item-major
// into x ([n*C, H, W]) and returns the packed outputs, item i's bitwise
// equal to Forward on item i alone. Conv2D, ReLU, MaxPool2 and Upsample2
// run fused over the whole batch into per-layer scratch, with ReLU in
// place (on a copy when its input is the caller's x), so after warm-up the
// call allocates nothing; any other layer runs Forward item by item. The
// returned tensor aliases network-owned scratch: it is valid until the
// next ForwardBatch call on this instance. Inference-only, like
// RefineNet.ForwardBatch: nothing is kept for Backward and MACs is not
// updated.
func (s *Sequential) ForwardBatch(x *tensor.Tensor, n int) *tensor.Tensor {
	if len(x.Shape) != 3 || n <= 0 || x.Shape[0]%n != 0 {
		panic(fmt.Sprintf("nn: Sequential.ForwardBatch expects [%d*C H W] input, got %v", n, x.Shape))
	}
	if len(s.bsc) != len(s.Layers) {
		s.bsc = make([]*tensor.Tensor, len(s.Layers))
	}
	in := x
	for i, l := range s.Layers {
		c, h, w := x.Shape[0], x.Shape[1], x.Shape[2]
		switch l := l.(type) {
		case *Conv2D:
			if c != n*l.InC {
				panic(fmt.Sprintf("nn: Sequential.ForwardBatch layer %d expects [%d*%d H W] input, got %v", i, n, l.InC, x.Shape))
			}
			dst := ensureF3(&s.bsc[i], n*l.OutC, tensor.ConvOutSize(h, l.KH, l.Stride, l.Pad), tensor.ConvOutSize(w, l.KW, l.Stride, l.Pad))
			l.forwardBatchInto(dst, x)
			x = dst
		case *ReLU:
			if x == in {
				dst := ensureF3(&s.bsc[i], c, h, w)
				copy(dst.Data, x.Data)
				x = dst
			}
			reluInPlace(x)
		case *MaxPool2:
			dst := ensureF3(&s.bsc[i], c, h/2, w/2)
			maxPool2Batch(dst, x)
			x = dst
		case *Upsample2:
			dst := ensureF3(&s.bsc[i], c, 2*h, 2*w)
			upsample2Batch(dst, x)
			x = dst
		default:
			x = forwardItems(&s.bsc[i], l, x, n)
		}
	}
	return x
}

// forwardItems runs a layer without a fused batch form: Forward on each
// item of the packed batch x, the outputs packed into pooled scratch.
func forwardItems(scratch **tensor.Tensor, l Layer, x *tensor.Tensor, n int) *tensor.Tensor {
	c, h, w := x.Shape[0]/n, x.Shape[1], x.Shape[2]
	var dst *tensor.Tensor
	for i := 0; i < n; i++ {
		y := l.Forward(tensor.FromSlice(x.Data[i*c*h*w:(i+1)*c*h*w], c, h, w))
		if i == 0 {
			dst = ensureF3(scratch, n*y.Shape[0], y.Shape[1], y.Shape[2])
		}
		copy(dst.Data[i*len(y.Data):], y.Data)
	}
	return dst
}

// batchScratch holds the pooled activation buffers of RefineNet.ForwardBatch.
type batchScratch struct {
	skip, down, mid, up, cat, out *tensor.Tensor
}

// ForwardBatch runs NN-S over a batch of n sandwich inputs packed
// item-major into x ([n*3, H, W]) and returns [n, H, W] logits — item i's
// logit plane bitwise equal to Forward on item i alone. H and W must be
// even, as for Forward. The returned tensor aliases network-owned scratch:
// it is valid until the next ForwardBatch call on this instance, and
// callers must copy anything they keep. Per-layer conv timings are recorded
// against the attached observer exactly like the serial forward (one span
// per fused layer, not per item).
func (n *RefineNet) ForwardBatch(x *tensor.Tensor, items int) *tensor.Tensor {
	if len(x.Shape) != 3 || items <= 0 || x.Shape[0] != 3*items {
		panic(fmt.Sprintf("nn: RefineNet.ForwardBatch expects [%d*3 H W] input, got %v", items, x.Shape))
	}
	h, w := x.Shape[1], x.Shape[2]
	f := n.Features
	sc := &n.bsc
	t := n.obs.Clock()
	skip := ensureF3(&sc.skip, items*f, h, w)
	n.Conv1.forwardBatchInto(skip, x)
	n.obs.Span(obs.StageNNSConv1, -1, obs.KindNone, t)
	reluInPlace(skip) // in place: conv1's raw output is never read again
	down := ensureF3(&sc.down, items*f, h/2, w/2)
	maxPool2Batch(down, skip)
	t = n.obs.Clock()
	mid := ensureF3(&sc.mid, items*f, h/2, w/2)
	n.Conv2.forwardBatchInto(mid, down)
	n.obs.Span(obs.StageNNSConv2, -1, obs.KindNone, t)
	reluInPlace(mid)
	up := ensureF3(&sc.up, items*f, h, w)
	upsample2Batch(up, mid)
	cat := ensureF3(&sc.cat, items*2*f, h, w)
	concatChannelsBatch(cat, skip, up, items)
	t = n.obs.Clock()
	out := ensureF3(&sc.out, items, h, w)
	n.Conv3.forwardBatchInto(out, cat)
	n.obs.Span(obs.StageNNSConv3, -1, obs.KindNone, t)
	return out
}
