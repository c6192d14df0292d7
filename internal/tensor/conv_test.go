package tensor

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// loweredConv is the reference convolution: Im2Col + MatMul + bias add,
// the lowering the direct kernel replaces, for one CHW image.
func loweredConv(x, weight, bias *Tensor, stride, pad int) *Tensor {
	oc, kh, kw := weight.Shape[0], weight.Shape[2], weight.Shape[3]
	cols := Im2Col(x, kh, kw, stride, pad)
	out := MatMul(weight.Reshape(oc, -1), cols)
	p := cols.Shape[1]
	for o := 0; o < oc; o++ {
		row := out.Data[o*p : (o+1)*p]
		for i := range row {
			row[i] += bias.Data[o]
		}
	}
	return out.Reshape(oc, ConvOutSize(x.Shape[1], kh, stride, pad), ConvOutSize(x.Shape[2], kw, stride, pad))
}

// convCase draws weights with every third one exactly zero and an input
// batch with about half its values ReLU-zeroed, the two places where the
// lowered path's zero-weight skip and the kernel's padding could diverge.
func convCase(rng *rand.Rand, n, inC, outC, k int, h, w int) (x, weight, bias *Tensor) {
	x = New(n*inC, h, w)
	for i := range x.Data {
		if v := rng.Float32()*2 - 1; v > 0 {
			x.Data[i] = v
		}
	}
	weight = New(outC, inC, k, k)
	for i := range weight.Data {
		if i%3 != 0 {
			weight.Data[i] = rng.Float32()*2 - 1
		}
	}
	bias = New(outC)
	for i := range bias.Data {
		bias.Data[i] = rng.Float32() - 0.5
	}
	return x, weight, bias
}

// TestConv2DIntoMatchesLowering pins the direct kernel to Im2Col + MatMul
// + bias bitwise (==, no tolerance) over kernel sizes, strides, paddings,
// odd spatial sizes, channel counts off the four-channel register block,
// batches of one to three items and one to four workers. One scratch
// serves every case, so its reuse across geometries is covered too.
func TestConv2DIntoMatchesLowering(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	var s ConvScratch
	for _, k := range []int{1, 3, 5} {
		for _, stride := range []int{1, 2} {
			for _, pad := range []int{0, 1, 2} {
				for _, ch := range [][2]int{{1, 1}, {3, 5}, {1, 4}, {5, 7}, {6, 9}} {
					h, w := 7+2*rng.Intn(3), 9+2*rng.Intn(3)
					n := 1 + rng.Intn(3)
					inC, outC := ch[0], ch[1]
					name := fmt.Sprintf("k%d-s%d-p%d-in%d-out%d-%dx%d-n%d", k, stride, pad, inC, outC, h, w, n)
					x, weight, bias := convCase(rng, n, inC, outC, k, h, w)
					outH, outW := ConvOutSize(h, k, stride, pad), ConvOutSize(w, k, stride, pad)
					for _, procs := range []int{1, 4} {
						prev := runtime.GOMAXPROCS(procs)
						dst := Full(-7, n*outC, outH, outW) // dirty: every element must be written
						Conv2DInto(dst, x, weight, bias, stride, pad, &s)
						runtime.GOMAXPROCS(prev)
						for i := 0; i < n; i++ {
							item := FromSlice(x.Data[i*inC*h*w:(i+1)*inC*h*w], inC, h, w)
							want := loweredConv(item, weight, bias, stride, pad)
							got := dst.Data[i*outC*outH*outW : (i+1)*outC*outH*outW]
							for j, v := range want.Data {
								if got[j] != v {
									t.Fatalf("%s procs %d item %d elem %d: kernel %v != lowered %v", name, procs, i, j, got[j], v)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestConv2DIntoValidation checks shape misuse panics instead of
// corrupting memory.
func TestConv2DIntoValidation(t *testing.T) {
	weight, bias := New(2, 3, 3, 3), New(2)
	cases := map[string]func(){
		"channels not a multiple of InC": func() { Conv2DInto(New(2, 4, 4), New(4, 4, 4), weight, bias, 1, 1, &ConvScratch{}) },
		"dst shape":                      func() { Conv2DInto(New(2, 3, 4), New(3, 4, 4), weight, bias, 1, 1, &ConvScratch{}) },
		"empty output":                   func() { Conv2DInto(New(2, 1, 1), New(3, 2, 2), weight, bias, 1, 0, &ConvScratch{}) },
	}
	for name, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}
