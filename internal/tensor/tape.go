package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Node is a tape-recorded value: the forward result and, after Backward, its
// gradient. Parameters are Nodes with requiresGrad set.
type Node struct {
	Value        *Matrix
	Grad         *Matrix
	requiresGrad bool
	back         func()
	inputs       []*Node
}

// Tape records operations for reverse-mode differentiation. Create a fresh
// tape per training step; parameters live outside the tape and are attached
// through Param.
type Tape struct {
	nodes []*Node
}

// NewTape returns an empty tape.
func NewTape() *Tape { return &Tape{} }

func (t *Tape) node(v *Matrix, grad bool, back func(), inputs ...*Node) *Node {
	n := &Node{Value: v, requiresGrad: grad, back: back, inputs: inputs}
	if grad {
		n.Grad = NewMatrix(v.Rows, v.Cols)
	}
	t.nodes = append(t.nodes, n)
	return n
}

func anyGrad(ns ...*Node) bool {
	for _, n := range ns {
		if n.requiresGrad {
			return true
		}
	}
	return false
}

// Parameter is a trainable matrix with persistent gradient storage, shared
// across tapes: each training step records a new tape whose Param nodes
// accumulate into the same Grad, which the optimizer consumes and clears.
type Parameter struct {
	Value *Matrix
	Grad  *Matrix
}

// NewParameter wraps m as a trainable parameter.
func NewParameter(m *Matrix) *Parameter {
	return &Parameter{Value: m, Grad: NewMatrix(m.Rows, m.Cols)}
}

// Param attaches a parameter to the tape.
func (t *Tape) Param(p *Parameter) *Node {
	n := &Node{Value: p.Value, Grad: p.Grad, requiresGrad: true}
	t.nodes = append(t.nodes, n)
	return n
}

// Const wraps a constant (no gradient) matrix.
func (t *Tape) Const(m *Matrix) *Node {
	return t.node(m, false, nil)
}

// Backward runs reverse-mode accumulation from loss, which must be 1×1.
func (t *Tape) Backward(loss *Node) {
	if loss.Value.Rows != 1 || loss.Value.Cols != 1 {
		panic(fmt.Sprintf("tensor: Backward needs scalar loss, got %dx%d", loss.Value.Rows, loss.Value.Cols))
	}
	if !loss.requiresGrad {
		return // nothing trainable contributed
	}
	loss.Grad.Data[0] = 1
	for i := len(t.nodes) - 1; i >= 0; i-- {
		n := t.nodes[i]
		if n.back != nil && n.requiresGrad {
			n.back()
		}
	}
}

// MatMul returns a·b.
func (t *Tape) MatMul(a, b *Node) *Node {
	v := MatMul(a.Value, b.Value)
	out := t.node(v, anyGrad(a, b), nil, a, b)
	if out.requiresGrad {
		out.back = func() {
			if a.requiresGrad {
				AddInPlace(a.Grad, MatMul(out.Grad, Transpose(b.Value)))
			}
			if b.requiresGrad {
				AddInPlace(b.Grad, MatMul(Transpose(a.Value), out.Grad))
			}
		}
	}
	return out
}

// Add returns a + b (same shape).
func (t *Tape) Add(a, b *Node) *Node {
	assertShape(a.Value, b.Value, "Add")
	v := a.Value.Clone()
	AddInPlace(v, b.Value)
	out := t.node(v, anyGrad(a, b), nil, a, b)
	if out.requiresGrad {
		out.back = func() {
			if a.requiresGrad {
				AddInPlace(a.Grad, out.Grad)
			}
			if b.requiresGrad {
				AddInPlace(b.Grad, out.Grad)
			}
		}
	}
	return out
}

// Sub returns a − b.
func (t *Tape) Sub(a, b *Node) *Node {
	assertShape(a.Value, b.Value, "Sub")
	v := a.Value.Clone()
	for i, x := range b.Value.Data {
		v.Data[i] -= x
	}
	out := t.node(v, anyGrad(a, b), nil, a, b)
	if out.requiresGrad {
		out.back = func() {
			if a.requiresGrad {
				AddInPlace(a.Grad, out.Grad)
			}
			if b.requiresGrad {
				for i, g := range out.Grad.Data {
					b.Grad.Data[i] -= g
				}
			}
		}
	}
	return out
}

// Mul returns the elementwise product a ⊙ b.
func (t *Tape) Mul(a, b *Node) *Node {
	assertShape(a.Value, b.Value, "Mul")
	v := a.Value.Clone()
	for i, x := range b.Value.Data {
		v.Data[i] *= x
	}
	out := t.node(v, anyGrad(a, b), nil, a, b)
	if out.requiresGrad {
		out.back = func() {
			if a.requiresGrad {
				for i, g := range out.Grad.Data {
					a.Grad.Data[i] += g * b.Value.Data[i]
				}
			}
			if b.requiresGrad {
				for i, g := range out.Grad.Data {
					b.Grad.Data[i] += g * a.Value.Data[i]
				}
			}
		}
	}
	return out
}

// Scale returns s·a for a constant scalar s.
func (t *Tape) Scale(a *Node, s float64) *Node {
	v := a.Value.Clone()
	ScaleInPlace(v, s)
	out := t.node(v, a.requiresGrad, nil, a)
	if out.requiresGrad {
		out.back = func() {
			for i, g := range out.Grad.Data {
				a.Grad.Data[i] += g * s
			}
		}
	}
	return out
}

// AddRowVec adds a 1×C bias row to every row of a (R×C).
func (t *Tape) AddRowVec(a, bias *Node) *Node {
	if bias.Value.Rows != 1 || bias.Value.Cols != a.Value.Cols {
		panic("tensor: AddRowVec needs 1xC bias")
	}
	v := a.Value.Clone()
	for i := 0; i < v.Rows; i++ {
		row := v.Row(i)
		for j := range row {
			row[j] += bias.Value.Data[j]
		}
	}
	out := t.node(v, anyGrad(a, bias), nil, a, bias)
	if out.requiresGrad {
		out.back = func() {
			if a.requiresGrad {
				AddInPlace(a.Grad, out.Grad)
			}
			if bias.requiresGrad {
				for i := 0; i < out.Grad.Rows; i++ {
					row := out.Grad.Row(i)
					for j, g := range row {
						bias.Grad.Data[j] += g
					}
				}
			}
		}
	}
	return out
}

// ReLU returns max(a, 0) elementwise.
func (t *Tape) ReLU(a *Node) *Node {
	v := a.Value.Clone()
	for i, x := range v.Data {
		if x < 0 {
			v.Data[i] = 0
		}
	}
	out := t.node(v, a.requiresGrad, nil, a)
	if out.requiresGrad {
		out.back = func() {
			for i, g := range out.Grad.Data {
				if a.Value.Data[i] > 0 {
					a.Grad.Data[i] += g
				}
			}
		}
	}
	return out
}

// Tanh returns tanh(a) elementwise.
func (t *Tape) Tanh(a *Node) *Node {
	v := a.Value.Clone()
	for i, x := range v.Data {
		v.Data[i] = math.Tanh(x)
	}
	out := t.node(v, a.requiresGrad, nil, a)
	if out.requiresGrad {
		out.back = func() {
			for i, g := range out.Grad.Data {
				y := out.Value.Data[i]
				a.Grad.Data[i] += g * (1 - y*y)
			}
		}
	}
	return out
}

// Exp returns e^a elementwise.
func (t *Tape) Exp(a *Node) *Node {
	v := a.Value.Clone()
	for i, x := range v.Data {
		v.Data[i] = math.Exp(x)
	}
	out := t.node(v, a.requiresGrad, nil, a)
	if out.requiresGrad {
		out.back = func() {
			for i, g := range out.Grad.Data {
				a.Grad.Data[i] += g * out.Value.Data[i]
			}
		}
	}
	return out
}

// Dropout zeroes elements with probability p during training, scaling the
// survivors by 1/(1−p) (inverted dropout). With p ≤ 0 it is the identity.
func (t *Tape) Dropout(a *Node, p float64, rng *rand.Rand) *Node {
	if p <= 0 {
		return a
	}
	mask := NewMatrix(a.Value.Rows, a.Value.Cols)
	keep := 1 - p
	for i := range mask.Data {
		if rng.Float64() < keep {
			mask.Data[i] = 1 / keep
		}
	}
	v := a.Value.Clone()
	for i := range v.Data {
		v.Data[i] *= mask.Data[i]
	}
	out := t.node(v, a.requiresGrad, nil, a)
	if out.requiresGrad {
		out.back = func() {
			for i, g := range out.Grad.Data {
				a.Grad.Data[i] += g * mask.Data[i]
			}
		}
	}
	return out
}

// Sum reduces a to a 1×1 scalar.
func (t *Tape) Sum(a *Node) *Node {
	s := 0.0
	for _, x := range a.Value.Data {
		s += x
	}
	v := NewMatrix(1, 1)
	v.Data[0] = s
	out := t.node(v, a.requiresGrad, nil, a)
	if out.requiresGrad {
		out.back = func() {
			g := out.Grad.Data[0]
			for i := range a.Grad.Data {
				a.Grad.Data[i] += g
			}
		}
	}
	return out
}

// Mean reduces a to its scalar mean.
func (t *Tape) Mean(a *Node) *Node {
	n := float64(len(a.Value.Data))
	return t.Scale(t.Sum(a), 1/n)
}

// MaskedBCE computes the mean binary cross-entropy between sigmoid logits
// and targets over the rows selected by rowMask (1 = include). It fuses the
// sigmoid for numerical stability (logits in, probabilities never clipped).
func (t *Tape) MaskedBCE(logits *Node, targets *Matrix, rowMask []bool) *Node {
	assertShape(logits.Value, targets, "MaskedBCE")
	rows := 0
	for _, m := range rowMask {
		if m {
			rows++
		}
	}
	if rows == 0 {
		panic("tensor: MaskedBCE with empty mask")
	}
	count := float64(rows * logits.Value.Cols)
	v := NewMatrix(1, 1)
	for i := 0; i < logits.Value.Rows; i++ {
		if !rowMask[i] {
			continue
		}
		lr := logits.Value.Row(i)
		tr := targets.Row(i)
		for j, x := range lr {
			// log(1+e^x) computed stably.
			var softplus float64
			if x > 0 {
				softplus = x + math.Log1p(math.Exp(-x))
			} else {
				softplus = math.Log1p(math.Exp(x))
			}
			v.Data[0] += softplus - tr[j]*x
		}
	}
	v.Data[0] /= count
	out := t.node(v, logits.requiresGrad, nil, logits)
	if out.requiresGrad {
		out.back = func() {
			g := out.Grad.Data[0] / count
			for i := 0; i < logits.Value.Rows; i++ {
				if !rowMask[i] {
					continue
				}
				lr := logits.Value.Row(i)
				tr := targets.Row(i)
				gr := logits.Grad.Row(i)
				for j, x := range lr {
					sig := 1 / (1 + math.Exp(-x))
					gr[j] += g * (sig - tr[j])
				}
			}
		}
	}
	return out
}

// Custom creates a node with caller-provided forward value and backward
// function; backward receives the node so it can read Grad and push into the
// inputs' Grad matrices. Used for fused primitives like GAT attention.
func (t *Tape) Custom(value *Matrix, inputs []*Node, backward func(out *Node)) *Node {
	out := t.node(value, anyGrad(inputs...), nil, inputs...)
	if out.requiresGrad {
		out.back = func() { backward(out) }
	}
	return out
}
