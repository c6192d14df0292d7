package tensor

import (
	"math/rand"
	"testing"
)

// randI8 fills an int8 tensor with values in [-127, 127].
func randI8(rng *rand.Rand, shape ...int) *I8 {
	t := NewI8(shape...)
	for i := range t.Data {
		t.Data[i] = int8(rng.Intn(255) - 127)
	}
	return t
}

// asFloat converts an int8 tensor to float32 for differential reference.
func asFloat(t *I8) *Tensor {
	f := New(t.Shape...)
	for i, v := range t.Data {
		f.Data[i] = float32(v)
	}
	return f
}

// TestMatMulI8MatchesFloat checks the int8 GEMM against the float kernel
// on integer-valued operands, where float32 arithmetic is exact: every
// int32 accumulator must equal the float accumulation bit-for-bit.
func TestMatMulI8MatchesFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dims := range [][3]int{{1, 1, 1}, {3, 7, 5}, {8, 27, 96}, {16, 144, 64}} {
		m, k, n := dims[0], dims[1], dims[2]
		a, b := randI8(rng, m, k), randI8(rng, k, n)
		got := MatMulI8(a, b)
		want := MatMul(asFloat(a), asFloat(b))
		for i := range got.Data {
			if float32(got.Data[i]) != want.Data[i] {
				t.Fatalf("[%d %d %d] element %d: int8 %d, float %g", m, k, n, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// TestMatMulI8IntoReuses checks the Into form overwrites (not accumulates)
// and matches the allocating form.
func TestMatMulI8IntoReuses(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a, b := randI8(rng, 4, 9), randI8(rng, 9, 13)
	dst := NewI32(4, 13)
	for i := range dst.Data {
		dst.Data[i] = -999 // stale garbage the kernel must overwrite
	}
	MatMulI8Into(dst, a, b)
	want := MatMulI8(a, b)
	for i := range dst.Data {
		if dst.Data[i] != want.Data[i] {
			t.Fatalf("element %d: Into %d, alloc %d", i, dst.Data[i], want.Data[i])
		}
	}
}

// TestIm2ColI8MatchesFloat checks the int8 lowering against the float
// lowering on the same integer values, covering padding and stride.
func TestIm2ColI8MatchesFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, c := range []struct{ ch, h, w, k, stride, pad int }{
		{1, 6, 6, 3, 1, 1},
		{3, 8, 10, 3, 1, 1},
		{4, 9, 9, 3, 2, 1},
		{2, 5, 7, 5, 1, 2},
	} {
		x := randI8(rng, c.ch, c.h, c.w)
		got := Im2ColI8(x, c.k, c.k, c.stride, c.pad)
		want := Im2Col(asFloat(x), c.k, c.k, c.stride, c.pad)
		if got.Shape[0] != want.Shape[0] || got.Shape[1] != want.Shape[1] {
			t.Fatalf("%+v: shape %v, want %v", c, got.Shape, want.Shape)
		}
		for i := range got.Data {
			if float32(got.Data[i]) != want.Data[i] {
				t.Fatalf("%+v: element %d: int8 %d, float %g", c, i, got.Data[i], want.Data[i])
			}
		}
	}
}

// TestIm2ColBatchI8MatchesSerial checks that the wide batched lowering is
// the column-block concatenation of per-item lowerings.
func TestIm2ColBatchI8MatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const n, ch, h, w, k = 3, 2, 6, 8, 3
	x := randI8(rng, n*ch, h, w)
	wide := Im2ColBatchI8(x, n, k, k, 1, 1)
	oHW := h * w
	for i := 0; i < n; i++ {
		item := I8FromSlice(x.Data[i*ch*h*w:(i+1)*ch*h*w], ch, h, w)
		single := Im2ColI8(item, k, k, 1, 1)
		for r := 0; r < single.Shape[0]; r++ {
			for col := 0; col < oHW; col++ {
				got := wide.Data[r*n*oHW+i*oHW+col]
				want := single.Data[r*oHW+col]
				if got != want {
					t.Fatalf("item %d row %d col %d: wide %d, serial %d", i, r, col, got, want)
				}
			}
		}
	}
}

// Benchmark shapes mirror the NN-S conv1 GEMM over a batch of 8 96×64
// sandwiches: [F, C*9] × [C*9, n*HW].
const (
	benchM = 8
	benchK = 27
	benchN = 8 * 96 * 64
)

func BenchmarkMatMulFloat(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	a8, b8 := randI8(rng, benchM, benchK), randI8(rng, benchK, benchN)
	a, bb := asFloat(a8), asFloat(b8)
	dst := New(benchM, benchN)
	b.SetBytes(int64(2 * benchM * benchK * benchN))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(dst, a, bb)
	}
}

func BenchmarkMatMulI8(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	a, bb := randI8(rng, benchM, benchK), randI8(rng, benchK, benchN)
	dst := NewI32(benchM, benchN)
	b.SetBytes(int64(2 * benchM * benchK * benchN))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulI8Into(dst, a, bb)
	}
}

func BenchmarkIm2ColBatchI8(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	x := randI8(rng, 8*3, 96, 64)
	cols := NewI8(27, 8*96*64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Im2ColBatchI8Into(cols, x, 8, 3, 3, 1, 1)
	}
}
