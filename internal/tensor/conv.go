package tensor

import (
	"fmt"

	"vrdann/internal/par"
)

// Im2Col lowers a CHW image tensor into a matrix of convolution patches.
//
// Input x has shape [C, H, W]. The result has shape
// [C*kh*kw, outH*outW] where outH and outW are the spatial output sizes of
// a convolution with the given kernel, stride and (symmetric zero) padding.
// Each column is one receptive field flattened channel-major.
func Im2Col(x *Tensor, kh, kw, stride, pad int) *Tensor {
	c, outH, outW := im2colDims(x, kh, kw, stride, pad)
	cols := New(c*kh*kw, outH*outW)
	im2colInto(cols, x, kh, kw, stride, pad, false)
	return cols
}

// Im2ColInto is Im2Col writing into a caller-owned buffer of shape
// [C*kh*kw, outH*outW], so the patch matrix can be reused across calls
// (Conv2D.Backward reuses one across training steps).
func Im2ColInto(cols *Tensor, x *Tensor, kh, kw, stride, pad int) {
	c, outH, outW := im2colDims(x, kh, kw, stride, pad)
	if len(cols.Shape) != 2 || cols.Shape[0] != c*kh*kw || cols.Shape[1] != outH*outW {
		panic(fmt.Sprintf("tensor: Im2ColInto dst shape %v, want [%d %d]", cols.Shape, c*kh*kw, outH*outW))
	}
	im2colInto(cols, x, kh, kw, stride, pad, true)
}

func im2colDims(x *Tensor, kh, kw, stride, pad int) (c, outH, outW int) {
	if len(x.Shape) != 3 {
		panic(fmt.Sprintf("tensor: Im2Col requires CHW input, got %v", x.Shape))
	}
	c = x.Shape[0]
	if stride < 1 {
		panic(fmt.Sprintf("tensor: Im2Col stride %d < 1", stride))
	}
	outH, outW = ConvOutSize(x.Shape[1], kh, stride, pad), ConvOutSize(x.Shape[2], kw, stride, pad)
	if outH <= 0 || outW <= 0 {
		panic(fmt.Sprintf("tensor: Im2Col produces empty output for input %v kernel %dx%d stride %d pad %d", x.Shape, kh, kw, stride, pad))
	}
	return c, outH, outW
}

// im2colInto fills cols; rows of the patch matrix — one per (channel, ky,
// kx) — are independent, so they are processed in parallel blocks. The
// serial path is split out so the steady-state reuse form allocates nothing
// (the parallel closure escapes to the heap).
func im2colInto(cols, x *Tensor, kh, kw, stride, pad int, zero bool) {
	rows := x.Shape[0] * kh * kw
	outH, outW := ConvOutSize(x.Shape[1], kh, stride, pad), ConvOutSize(x.Shape[2], kw, stride, pad)
	grain := par.Grain(rows, outH*outW, par.MinWorkFloats)
	if grain >= rows || par.MaxWorkers() == 1 {
		im2colRows(cols, x, kh, kw, stride, pad, 0, rows, zero)
		return
	}
	par.For(rows, grain, func(lo, hi int) {
		im2colRows(cols, x, kh, kw, stride, pad, lo, hi, zero)
	})
}

// im2colRows fills patch-matrix rows [lo, hi).
func im2colRows(cols, x *Tensor, kh, kw, stride, pad, lo, hi int, zero bool) {
	h, w := x.Shape[1], x.Shape[2]
	outH, outW := ConvOutSize(h, kh, stride, pad), ConvOutSize(w, kw, stride, pad)
	for r := lo; r < hi; r++ {
		ch := r / (kh * kw)
		ky := (r / kw) % kh
		kx := r % kw
		chBase := ch * h * w
		row := r * outH * outW
		if zero {
			clear(cols.Data[row : row+outH*outW])
		}
		for oy := 0; oy < outH; oy++ {
			iy := oy*stride + ky - pad
			if iy < 0 || iy >= h {
				continue
			}
			srcRow := chBase + iy*w
			dstRow := row + oy*outW
			for ox := 0; ox < outW; ox++ {
				ix := ox*stride + kx - pad
				if ix < 0 || ix >= w {
					continue
				}
				cols.Data[dstRow+ox] = x.Data[srcRow+ix]
			}
		}
	}
}

// Col2Im is the adjoint of Im2Col: it scatters (accumulates) the patch
// matrix back into a CHW image of shape [c, h, w]. Channels accumulate
// independently, so they are processed in parallel.
func Col2Im(cols *Tensor, c, h, w, kh, kw, stride, pad int) *Tensor {
	img := New(c, h, w)
	Col2ImInto(img, cols, kh, kw, stride, pad)
	return img
}

// Col2ImInto is Col2Im accumulating into a caller-owned, zeroed image
// tensor of shape [c, h, w].
func Col2ImInto(img, cols *Tensor, kh, kw, stride, pad int) {
	if len(img.Shape) != 3 {
		panic(fmt.Sprintf("tensor: Col2ImInto requires CHW dst, got %v", img.Shape))
	}
	c, h, w := img.Shape[0], img.Shape[1], img.Shape[2]
	outH, outW := ConvOutSize(h, kh, stride, pad), ConvOutSize(w, kw, stride, pad)
	if len(cols.Shape) != 2 || cols.Shape[0] != c*kh*kw || cols.Shape[1] != outH*outW {
		panic(fmt.Sprintf("tensor: Col2Im shape mismatch: cols %v, want [%d %d]", cols.Shape, c*kh*kw, outH*outW))
	}
	par.For(c, par.Grain(c, kh*kw*outH*outW, par.MinWorkFloats), func(clo, chi int) {
		for ch := clo; ch < chi; ch++ {
			chBase := ch * h * w
			for ky := 0; ky < kh; ky++ {
				for kx := 0; kx < kw; kx++ {
					row := ((ch*kh+ky)*kw + kx) * outH * outW
					for oy := 0; oy < outH; oy++ {
						iy := oy*stride + ky - pad
						if iy < 0 || iy >= h {
							continue
						}
						srcRow := row + oy*outW
						dstRow := chBase + iy*w
						for ox := 0; ox < outW; ox++ {
							ix := ox*stride + kx - pad
							if ix < 0 || ix >= w {
								continue
							}
							img.Data[dstRow+ix] += cols.Data[srcRow+ox]
						}
					}
				}
			}
		}
	})
}

// ConvOutSize returns the spatial output size of a convolution along one
// dimension: 0 when the kernel is larger than the padded input (integer
// division alone would truncate the negative span towards zero and
// report one output).
func ConvOutSize(in, k, stride, pad int) int {
	if in+2*pad < k {
		return 0
	}
	return (in+2*pad-k)/stride + 1
}

// ConvScratch holds the reusable buffers of Conv2DInto: the zero-padded
// input, the weights packed in groups of four output channels, and the
// input offset of every (channel, ky, kx) kernel tap. The zero value is
// ready to use. A scratch must not be shared by concurrent calls.
type ConvScratch struct {
	padded []float32
	packed [][4]float32
	offs   []int
}

// convGeom is the geometry of one Conv2DInto call. It is passed by value,
// so the parallel closure captures a copy and nothing escapes.
type convGeom struct {
	oc, oh, ow int
	wp, stride int
	inItem     int // padded floats per input item
}

// Conv2DInto writes the convolution of x with weight ([OC, C, KH, KW]) plus
// bias ([OC]) into dst, with symmetric zero padding pad. x holds n CHW
// images packed item-major ([n*C, H, W], n >= 1) and dst receives
// [n*OC, outH, outW], item i's channels contiguous. The kernel reads the
// input in place instead of lowering it to a patch matrix: the input is
// zero-padded once into scratch, and each output element is accumulated
// in a register, four output channels (or, for the OC%4 remainder, four
// output columns) at a time. On AVX2 hosts stride-1 rows go eight output
// columns at a time through the micro-kernels of conv_amd64.s; the scalar
// kernel computes the column tails (outW%8), other strides, and everything
// on other architectures.
//
// Each output element sums its (c, ky, kx) terms in ascending order from
// +0 and then adds the bias, the order Im2Col + MatMul + bias add uses, so
// the two agree bitwise for finite inputs. (MatMul skips zero weights;
// adding their ±0 products to a sum that is never -0 changes nothing, so
// the results can differ only where a zero weight meets an Inf or NaN
// input.) Output rows split across cores; each element is still produced
// by one goroutine, so results are bit-identical at any worker count and
// batch size. The AVX2 lanes run the scalar operation sequence (one
// multiply, then one add, per tap; no fused multiply-add), so they are
// bit-identical to it.
func Conv2DInto(dst, x, weight, bias *Tensor, stride, pad int, s *ConvScratch) {
	if len(x.Shape) != 3 || len(weight.Shape) != 4 || weight.Shape[1] == 0 || x.Shape[0]%weight.Shape[1] != 0 || x.Shape[0] == 0 {
		panic(fmt.Sprintf("tensor: Conv2DInto input %v does not match weight %v", x.Shape, weight.Shape))
	}
	c, h, w := weight.Shape[1], x.Shape[1], x.Shape[2]
	n := x.Shape[0] / c
	oc, kh, kw := weight.Shape[0], weight.Shape[2], weight.Shape[3]
	if stride < 1 {
		panic(fmt.Sprintf("tensor: Conv2DInto stride %d < 1", stride))
	}
	outH, outW := ConvOutSize(h, kh, stride, pad), ConvOutSize(w, kw, stride, pad)
	if outH <= 0 || outW <= 0 {
		panic(fmt.Sprintf("tensor: Conv2DInto produces empty output for input %v kernel %dx%d stride %d pad %d", x.Shape, kh, kw, stride, pad))
	}
	if len(bias.Data) != oc || len(dst.Shape) != 3 || dst.Shape[0] != n*oc || dst.Shape[1] != outH || dst.Shape[2] != outW {
		panic(fmt.Sprintf("tensor: Conv2DInto dst %v bias %v, want [%d %d %d] and [%d]", dst.Shape, bias.Shape, n*oc, outH, outW, oc))
	}
	hp, wp := h+2*pad, w+2*pad
	xp := x.Data
	if pad > 0 {
		s.padded = growFloats(s.padded, n*c*hp*wp)
		xp = s.padded
		padInto(xp, x.Data, n*c, h, w, pad)
	}
	k := c * kh * kw
	s.offs = s.offs[:0]
	for ch := 0; ch < c; ch++ {
		for ky := 0; ky < kh; ky++ {
			for kx := 0; kx < kw; kx++ {
				s.offs = append(s.offs, (ch*hp+ky)*wp+kx)
			}
		}
	}
	groups := oc / 4
	if cap(s.packed) < groups*k {
		s.packed = make([][4]float32, groups*k)
	}
	s.packed = s.packed[:groups*k]
	for gi := 0; gi < groups; gi++ {
		for r := 0; r < 4; r++ {
			for kk, v := range weight.Data[(gi*4+r)*k : (gi*4+r+1)*k] {
				s.packed[gi*k+kk][r] = v
			}
		}
	}
	g := convGeom{oc: oc, oh: outH, ow: outW, wp: wp, stride: stride, inItem: c * hp * wp}
	out, packed, offs, wd, bd := dst.Data, s.packed, s.offs, weight.Data, bias.Data
	rows := n * outH
	grain := par.Grain(rows, 2*oc*k*outW, par.MinWorkFloats)
	if grain >= rows || par.MaxWorkers() == 1 {
		convRows(out, xp, packed, wd, bd, offs, g, 0, rows)
		return
	}
	par.For(rows, grain, func(lo, hi int) {
		convRows(out, xp, packed, wd, bd, offs, g, lo, hi)
	})
}

// growFloats returns buf resliced to n elements, reallocated when its
// capacity is too small.
func growFloats(buf []float32, n int) []float32 {
	if cap(buf) < n {
		return make([]float32, n)
	}
	return buf[:n]
}

// padInto copies the [c, h, w] image src into the centre of the
// [c, h+2*pad, w+2*pad] buffer dst and zeroes the border, writing every
// element of dst once.
func padInto(dst, src []float32, c, h, w, pad int) {
	wp := w + 2*pad
	for ch := 0; ch < c; ch++ {
		plane := dst[ch*(h+2*pad)*wp : (ch+1)*(h+2*pad)*wp]
		clear(plane[:pad*wp])
		for y := 0; y < h; y++ {
			row := plane[(pad+y)*wp : (pad+y+1)*wp]
			clear(row[:pad])
			copy(row[pad:pad+w], src[(ch*h+y)*w:(ch*h+y+1)*w])
			clear(row[pad+w:])
		}
		clear(plane[(pad+h)*wp:])
	}
}

// convRows computes output rows [lo, hi) of every output channel, where
// row r is row r%outH of item r/outH. Output channels go in register
// blocks of four (one input load feeds four accumulators); the OC%4
// remainder goes in blocks of four output columns (one weight load feeds
// four accumulators), then one column at a time. For stride-1 rows on AVX2
// hosts the micro-kernels first take the columns in blocks of eight, and
// the scalar loops finish the tail.
func convRows(dst, xp []float32, packed [][4]float32, w, bias []float32, offs []int, g convGeom, lo, hi int) {
	k := len(offs)
	ohw := g.oh * g.ow
	groups := g.oc / 4
	blocks := 0 // output columns the AVX2 kernels take, in blocks of eight
	if useAVX2 && g.stride == 1 && k > 0 {
		blocks = g.ow / 8
	}
	for r := lo; r < hi; r++ {
		item, oy := r/g.oh, r%g.oh
		rowBase := item*g.inItem + oy*g.stride*g.wp
		out := dst[item*g.oc*ohw+oy*g.ow:]
		if blocks > 0 {
			// The kernels read up to the last tap of the last blocked
			// column, which the scalar kernel reads too; check it once.
			_ = xp[rowBase+blocks*8-1+offs[k-1]]
		}
		for gi := 0; gi < groups; gi++ {
			wg := packed[gi*k : (gi+1)*k]
			o := gi * 4
			b0, b1, b2, b3 := bias[o], bias[o+1], bias[o+2], bias[o+3]
			d0 := out[o*ohw:][:g.ow]
			d1 := out[(o+1)*ohw:][:g.ow]
			d2 := out[(o+2)*ohw:][:g.ow]
			d3 := out[(o+3)*ohw:][:g.ow]
			ox := 0
			if blocks > 0 {
				conv4x8AVX2(&d0[0], ohw, &xp[rowBase], &offs[0], &wg[0], k, &bias[o], blocks)
				ox = blocks * 8
			}
			for ; ox < g.ow; ox++ {
				a0, a1, a2, a3 := dotChannels4(xp, rowBase+ox*g.stride, offs, wg)
				d0[ox], d1[ox], d2[ox], d3[ox] = a0+b0, a1+b1, a2+b2, a3+b3
			}
		}
		for o := groups * 4; o < g.oc; o++ {
			wo := w[o*k : (o+1)*k]
			b := bias[o]
			d := out[o*ohw:][:g.ow]
			ox := 0
			if blocks > 0 {
				conv1x8AVX2(&d[0], &xp[rowBase], &offs[0], &wo[0], k, b, blocks)
				ox = blocks * 8
			}
			for ; ox+4 <= g.ow; ox += 4 {
				a0, a1, a2, a3 := dotColumns4(xp, rowBase+ox*g.stride, g.stride, offs, wo)
				d[ox], d[ox+1], d[ox+2], d[ox+3] = a0+b, a1+b, a2+b, a3+b
			}
			for ; ox < g.ow; ox++ {
				d[ox] = dot(xp, rowBase+ox*g.stride, offs, wo) + b
			}
		}
	}
}

// dotChannels4 returns the pre-bias outputs of four output channels at the
// output position whose top-left input tap is xp[base]. The tap loop is
// unrolled by two to halve its index overhead; each accumulator still adds
// its terms one at a time in tap order.
func dotChannels4(xp []float32, base int, offs []int, wg [][4]float32) (a0, a1, a2, a3 float32) {
	wg = wg[:len(offs)]
	i := 0
	for ; i+1 < len(offs); i += 2 {
		x, y := xp[base+offs[i]], xp[base+offs[i+1]]
		w, v := &wg[i], &wg[i+1]
		a0 += w[0] * x
		a1 += w[1] * x
		a2 += w[2] * x
		a3 += w[3] * x
		a0 += v[0] * y
		a1 += v[1] * y
		a2 += v[2] * y
		a3 += v[3] * y
	}
	if i < len(offs) {
		x, w := xp[base+offs[i]], &wg[i]
		a0 += w[0] * x
		a1 += w[1] * x
		a2 += w[2] * x
		a3 += w[3] * x
	}
	return
}

// dotColumns4 returns the pre-bias outputs of one output channel at four
// adjacent output columns, the first with top-left input tap xp[base],
// unrolled like dotChannels4.
func dotColumns4(xp []float32, base, stride int, offs []int, wo []float32) (a0, a1, a2, a3 float32) {
	wo = wo[:len(offs)]
	s2, s3 := 2*stride, 3*stride
	i := 0
	for ; i+1 < len(offs); i += 2 {
		j, k := base+offs[i], base+offs[i+1]
		w, v := wo[i], wo[i+1]
		a0 += w * xp[j]
		a1 += w * xp[j+stride]
		a2 += w * xp[j+s2]
		a3 += w * xp[j+s3]
		a0 += v * xp[k]
		a1 += v * xp[k+stride]
		a2 += v * xp[k+s2]
		a3 += v * xp[k+s3]
	}
	if i < len(offs) {
		j, w := base+offs[i], wo[i]
		a0 += w * xp[j]
		a1 += w * xp[j+stride]
		a2 += w * xp[j+s2]
		a3 += w * xp[j+s3]
	}
	return
}

// dot returns the pre-bias output of one output channel at one output
// position.
func dot(xp []float32, base int, offs []int, wo []float32) (a float32) {
	wo = wo[:len(offs)]
	for i, off := range offs {
		a += wo[i] * xp[base+off]
	}
	return
}
