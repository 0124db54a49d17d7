// Package tensor provides the dense linear-algebra and reverse-mode
// automatic-differentiation substrate for the graph neural models used in
// the paper's node-attribute-completion study (Table IV). It is a minimal,
// stdlib-only stand-in for the frameworks the original baselines were built
// on: float64 matrices, a gradient tape with the operations two-layer
// GCN/GAT/GraphSage/VAE models need, CSR sparse-dense products for
// adjacency propagation, and an Adam optimizer.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Matrix is a dense row-major float64 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// NewMatrix allocates a zeroed Rows×Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from row slices (all equal length).
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic(fmt.Sprintf("tensor: ragged rows: %d vs %d", len(r), m.Cols))
		}
		copy(m.Data[i*m.Cols:], r)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view of row i (no copy).
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns an independent copy.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Zero clears all elements in place.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets all elements to v.
func (m *Matrix) Fill(v float64) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

func (m *Matrix) sameShape(o *Matrix) bool { return m.Rows == o.Rows && m.Cols == o.Cols }

func assertShape(a, b *Matrix, op string) {
	if !a.sameShape(b) {
		panic(fmt.Sprintf("tensor: %s shape mismatch: %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// MatMulInto computes dst = a·b. dst must be preallocated a.Rows×b.Cols and
// distinct from a and b.
func MatMulInto(dst, a, b *Matrix) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmul shapes %dx%d · %dx%d -> %dx%d", a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
	dst.Zero()
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

// MatMul returns a·b.
func MatMul(a, b *Matrix) *Matrix {
	out := NewMatrix(a.Rows, b.Cols)
	MatMulInto(out, a, b)
	return out
}

// Transpose returns aᵀ.
func Transpose(a *Matrix) *Matrix {
	out := NewMatrix(a.Cols, a.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			out.Data[j*out.Cols+i] = a.Data[i*a.Cols+j]
		}
	}
	return out
}

// AddInPlace accumulates src into dst.
func AddInPlace(dst, src *Matrix) {
	assertShape(dst, src, "add")
	for i, v := range src.Data {
		dst.Data[i] += v
	}
}

// ScaleInPlace multiplies every element by s.
func ScaleInPlace(m *Matrix, s float64) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// Glorot fills m with Xavier/Glorot-uniform values from rng.
func Glorot(m *Matrix, rng *rand.Rand) {
	limit := math.Sqrt(6.0 / float64(m.Rows+m.Cols))
	for i := range m.Data {
		m.Data[i] = (rng.Float64()*2 - 1) * limit
	}
}

// MaxAbsDiff reports the largest absolute element difference (for tests).
func MaxAbsDiff(a, b *Matrix) float64 {
	assertShape(a, b, "diff")
	max := 0.0
	for i := range a.Data {
		if d := math.Abs(a.Data[i] - b.Data[i]); d > max {
			max = d
		}
	}
	return max
}
