// Package tensor provides dense float32 tensors and the linear-algebra
// primitives needed by the neural-network substrate. It is deliberately
// small: shapes are explicit int slices, storage is a flat []float32 in
// row-major order, and all operations are implemented with plain loops so
// the package depends only on the standard library and the internal/par
// parallelism substrate. Inference convolutions run the direct kernel
// Conv2DInto, which reads the input in place; training lowers with Im2Col
// and Col2Im around MatMul. The heavy kernels split across cores via
// par.For; each output element is still produced by one goroutine with
// the serial accumulation order, so results are bit-identical at any
// worker count.
package tensor

import (
	"fmt"
	"math"
	"math/rand"

	"vrdann/internal/par"
)

// Tensor is a dense, row-major float32 tensor.
//
// The zero value is not usable; construct tensors with New, Zeros, Full,
// FromSlice or Randn.
type Tensor struct {
	Shape []int
	Data  []float32
}

// New allocates a zero-filled tensor with the given shape.
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{Shape: s, Data: make([]float32, n)}
}

// Zeros is an alias of New, provided for readability at call sites.
func Zeros(shape ...int) *Tensor { return New(shape...) }

// Full allocates a tensor with every element set to v.
func Full(v float32, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = v
	}
	return t
}

// FromSlice wraps data in a tensor of the given shape. The slice is used
// directly (not copied); len(data) must equal the shape volume.
func FromSlice(data []float32, shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %v (%d)", len(data), shape, n))
	}
	s := make([]int, len(shape))
	copy(s, shape)
	return &Tensor{Shape: s, Data: data}
}

// Randn fills a new tensor with N(0, std²) samples drawn from rng.
func Randn(rng *rand.Rand, std float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.Data {
		t.Data[i] = float32(rng.NormFloat64() * std)
	}
	return t
}

// Numel returns the number of elements.
func (t *Tensor) Numel() int { return len(t.Data) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.Shape[i] }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	c := New(t.Shape...)
	copy(c.Data, t.Data)
	return c
}

// Reshape returns a tensor sharing t's storage with a new shape. One
// dimension may be -1, in which case it is inferred.
func (t *Tensor) Reshape(shape ...int) *Tensor {
	n := 1
	infer := -1
	for i, d := range shape {
		if d == -1 {
			if infer >= 0 {
				panic("tensor: multiple -1 dimensions in Reshape")
			}
			infer = i
			continue
		}
		n *= d
	}
	s := make([]int, len(shape))
	copy(s, shape)
	if infer >= 0 {
		if n == 0 || len(t.Data)%n != 0 {
			panic(fmt.Sprintf("tensor: cannot infer dimension for shape %v from %d elements", shape, len(t.Data)))
		}
		s[infer] = len(t.Data) / n
		n *= s[infer]
	}
	if n != len(t.Data) {
		panic(fmt.Sprintf("tensor: reshape %v -> %v changes element count", t.Shape, shape))
	}
	return &Tensor{Shape: s, Data: t.Data}
}

// At returns the element at the given multi-index.
func (t *Tensor) At(idx ...int) float32 {
	return t.Data[t.offset(idx)]
}

// Set stores v at the given multi-index.
func (t *Tensor) Set(v float32, idx ...int) {
	t.Data[t.offset(idx)] = v
}

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.Shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match shape %v", len(idx), t.Shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.Shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.Shape))
		}
		off = off*t.Shape[i] + x
	}
	return off
}

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.Shape) != len(o.Shape) {
		return false
	}
	for i := range t.Shape {
		if t.Shape[i] != o.Shape[i] {
			return false
		}
	}
	return true
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float32) {
	for i := range t.Data {
		t.Data[i] = v
	}
}

// Scale multiplies every element by s in place.
func (t *Tensor) Scale(s float32) {
	for i := range t.Data {
		t.Data[i] *= s
	}
}

// AddInPlace adds o element-wise into t. Shapes must match.
func (t *Tensor) AddInPlace(o *Tensor) {
	if !t.SameShape(o) {
		panic(fmt.Sprintf("tensor: AddInPlace shape mismatch %v vs %v", t.Shape, o.Shape))
	}
	for i := range t.Data {
		t.Data[i] += o.Data[i]
	}
}

// AxpyInPlace computes t += a*o element-wise.
func (t *Tensor) AxpyInPlace(a float32, o *Tensor) {
	if !t.SameShape(o) {
		panic(fmt.Sprintf("tensor: AxpyInPlace shape mismatch %v vs %v", t.Shape, o.Shape))
	}
	for i := range t.Data {
		t.Data[i] += a * o.Data[i]
	}
}

// Add returns t + o as a new tensor.
func Add(t, o *Tensor) *Tensor {
	c := t.Clone()
	c.AddInPlace(o)
	return c
}

// Sub returns t - o as a new tensor.
func Sub(t, o *Tensor) *Tensor {
	if !t.SameShape(o) {
		panic(fmt.Sprintf("tensor: Sub shape mismatch %v vs %v", t.Shape, o.Shape))
	}
	c := New(t.Shape...)
	for i := range c.Data {
		c.Data[i] = t.Data[i] - o.Data[i]
	}
	return c
}

// Mul returns the element-wise (Hadamard) product.
func Mul(t, o *Tensor) *Tensor {
	if !t.SameShape(o) {
		panic(fmt.Sprintf("tensor: Mul shape mismatch %v vs %v", t.Shape, o.Shape))
	}
	c := New(t.Shape...)
	for i := range c.Data {
		c.Data[i] = t.Data[i] * o.Data[i]
	}
	return c
}

// Sum returns the sum of all elements (accumulated in float64).
func (t *Tensor) Sum() float64 {
	var s float64
	for _, v := range t.Data {
		s += float64(v)
	}
	return s
}

// Mean returns the arithmetic mean of all elements.
func (t *Tensor) Mean() float64 {
	if len(t.Data) == 0 {
		return 0
	}
	return t.Sum() / float64(len(t.Data))
}

// Max returns the maximum element; it panics on an empty tensor.
func (t *Tensor) Max() float32 {
	if len(t.Data) == 0 {
		panic("tensor: Max of empty tensor")
	}
	m := t.Data[0]
	for _, v := range t.Data[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Min returns the minimum element; it panics on an empty tensor.
func (t *Tensor) Min() float32 {
	if len(t.Data) == 0 {
		panic("tensor: Min of empty tensor")
	}
	m := t.Data[0]
	for _, v := range t.Data[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// L2Norm returns the Euclidean norm of the flattened tensor.
func (t *Tensor) L2Norm() float64 {
	var s float64
	for _, v := range t.Data {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}

// MatMul computes C = A×B for 2-D tensors A (m×k) and B (k×n). Row blocks
// of C are computed in parallel when the product is large enough to pay
// for the fan-out (see internal/par).
func MatMul(a, b *Tensor) *Tensor {
	m, n := matMulDims(a, b)
	c := New(m, n)
	matMulInto(c, a, b, false)
	return c
}

// MatMulInto computes dst = A×B, overwriting dst, which must already have
// shape [m, n]. It allocates nothing, so callers can reuse an output
// buffer across invocations.
func MatMulInto(dst, a, b *Tensor) {
	m, n := matMulDims(a, b)
	if len(dst.Shape) != 2 || dst.Shape[0] != m || dst.Shape[1] != n {
		panic(fmt.Sprintf("tensor: MatMulInto dst shape %v, want [%d %d]", dst.Shape, m, n))
	}
	matMulInto(dst, a, b, true)
}

func matMulDims(a, b *Tensor) (m, n int) {
	if len(a.Shape) != 2 || len(b.Shape) != 2 {
		panic(fmt.Sprintf("tensor: MatMul requires 2-D operands, got %v and %v", a.Shape, b.Shape))
	}
	if a.Shape[1] != b.Shape[0] {
		panic(fmt.Sprintf("tensor: MatMul inner dimension mismatch %v × %v", a.Shape, b.Shape))
	}
	return a.Shape[0], b.Shape[1]
}

func matMulInto(c, a, b *Tensor, zero bool) {
	m, k := a.Shape[0], a.Shape[1]
	n := b.Shape[1]
	grain := par.Grain(m, 2*k*n, par.MinWorkFloats)
	if grain >= m || par.MaxWorkers() == 1 {
		// Serial fast path: skip the fork-join machinery (and its closure
		// allocation) when the product would not split anyway.
		matMulRows(c, a, b, 0, m, zero)
		return
	}
	par.For(m, grain, func(lo, hi int) { matMulRows(c, a, b, lo, hi, zero) })
}

// matMulRows computes rows [lo, hi) of c = a×b.
func matMulRows(c, a, b *Tensor, lo, hi int, zero bool) {
	k, n := a.Shape[1], b.Shape[1]
	for i := lo; i < hi; i++ {
		arow := a.Data[i*k : (i+1)*k]
		crow := c.Data[i*n : (i+1)*n]
		if zero {
			clear(crow)
		}
		// ikj loop order keeps the B row in cache.
		for kk := 0; kk < k; kk++ {
			av := arow[kk]
			if av == 0 {
				continue
			}
			brow := b.Data[kk*n : (kk+1)*n]
			for j := range crow {
				crow[j] += av * brow[j]
			}
		}
	}
}

// MatMulBT computes C = A×Bᵀ for A (m×p) and B (n×p): C[i,j] is the dot
// product of row i of A and row j of B. Both operands stream row-major, so
// this is the allocation-free replacement for MatMul(a, Transpose(b)).
func MatMulBT(a, b *Tensor) *Tensor {
	if len(a.Shape) != 2 || len(b.Shape) != 2 {
		panic(fmt.Sprintf("tensor: MatMulBT requires 2-D operands, got %v and %v", a.Shape, b.Shape))
	}
	m, p := a.Shape[0], a.Shape[1]
	n, p2 := b.Shape[0], b.Shape[1]
	if p != p2 {
		panic(fmt.Sprintf("tensor: MatMulBT inner dimension mismatch %v × %vᵀ", a.Shape, b.Shape))
	}
	c := New(m, n)
	par.For(m, par.Grain(m, 2*p*n, par.MinWorkFloats), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := a.Data[i*p : (i+1)*p]
			crow := c.Data[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				brow := b.Data[j*p : (j+1)*p]
				var s float32
				for kk, av := range arow {
					s += av * brow[kk]
				}
				crow[j] = s
			}
		}
	})
	return c
}

// Transpose returns the transpose of a 2-D tensor.
func Transpose(a *Tensor) *Tensor {
	if len(a.Shape) != 2 {
		panic(fmt.Sprintf("tensor: Transpose requires a 2-D operand, got %v", a.Shape))
	}
	m, n := a.Shape[0], a.Shape[1]
	t := New(n, m)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			t.Data[j*m+i] = a.Data[i*n+j]
		}
	}
	return t
}

// Apply returns a new tensor with f applied to every element.
func Apply(t *Tensor, f func(float32) float32) *Tensor {
	c := New(t.Shape...)
	for i, v := range t.Data {
		c.Data[i] = f(v)
	}
	return c
}

// ApplyInPlace applies f to every element of t.
func (t *Tensor) ApplyInPlace(f func(float32) float32) {
	for i, v := range t.Data {
		t.Data[i] = f(v)
	}
}

// AllClose reports whether every pair of elements differs by at most tol.
func AllClose(a, b *Tensor, tol float64) bool {
	if !a.SameShape(b) {
		return false
	}
	for i := range a.Data {
		if math.Abs(float64(a.Data[i])-float64(b.Data[i])) > tol {
			return false
		}
	}
	return true
}
