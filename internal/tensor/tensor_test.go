package tensor

import (
	"math"
	"math/rand"
	"testing"
)

func randMatrix(rng *rand.Rand, r, c int) *Matrix {
	m := NewMatrix(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// numericalGrad estimates d loss/d p[k] by central differences, where loss
// is rebuilt from scratch by f.
func numericalGrad(p *Parameter, f func() float64) *Matrix {
	const h = 1e-5
	g := NewMatrix(p.Value.Rows, p.Value.Cols)
	for k := range p.Value.Data {
		orig := p.Value.Data[k]
		p.Value.Data[k] = orig + h
		up := f()
		p.Value.Data[k] = orig - h
		down := f()
		p.Value.Data[k] = orig
		g.Data[k] = (up - down) / (2 * h)
	}
	return g
}

func checkGrad(t *testing.T, name string, p *Parameter, f func(tape *Tape) *Node) {
	t.Helper()
	p.Grad.Zero()
	tape := NewTape()
	loss := f(tape)
	tape.Backward(loss)
	analytic := p.Grad.Clone()
	numeric := numericalGrad(p, func() float64 {
		return f(NewTape()).Value.Data[0]
	})
	if d := MaxAbsDiff(analytic, numeric); d > 1e-6 {
		t.Fatalf("%s: gradient mismatch %v\nanalytic=%v\nnumeric=%v", name, d, analytic.Data, numeric.Data)
	}
}

func TestMatMulShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randMatrix(rng, 3, 4)
	b := randMatrix(rng, 4, 2)
	c := MatMul(a, b)
	if c.Rows != 3 || c.Cols != 2 {
		t.Fatalf("shape %dx%d", c.Rows, c.Cols)
	}
	// Spot check one entry.
	want := 0.0
	for k := 0; k < 4; k++ {
		want += a.At(1, k) * b.At(k, 0)
	}
	if math.Abs(c.At(1, 0)-want) > 1e-12 {
		t.Fatalf("c[1,0] = %v, want %v", c.At(1, 0), want)
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randMatrix(rng, 3, 5)
	if MaxAbsDiff(Transpose(Transpose(a)), a) != 0 {
		t.Fatal("transpose twice is not identity")
	}
}

func TestGradMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	w := NewParameter(randMatrix(rng, 4, 3))
	x := randMatrix(rng, 2, 4)
	checkGrad(t, "matmul", w, func(tape *Tape) *Node {
		return tape.Mean(tape.MatMul(tape.Const(x), tape.Param(w)))
	})
}

func TestGradChainedOps(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	w := NewParameter(randMatrix(rng, 3, 3))
	b := NewParameter(randMatrix(rng, 1, 3))
	x := randMatrix(rng, 5, 3)
	for name, f := range map[string]func(*Tape) *Node{
		"relu": func(tape *Tape) *Node {
			return tape.Mean(tape.ReLU(tape.MatMul(tape.Const(x), tape.Param(w))))
		},
		"tanh": func(tape *Tape) *Node {
			return tape.Mean(tape.Tanh(tape.MatMul(tape.Const(x), tape.Param(w))))
		},
		"exp": func(tape *Tape) *Node {
			return tape.Mean(tape.Exp(tape.Scale(tape.MatMul(tape.Const(x), tape.Param(w)), 0.1)))
		},
		"bias": func(tape *Tape) *Node {
			return tape.Mean(tape.AddRowVec(tape.MatMul(tape.Const(x), tape.Param(w)), tape.Param(b)))
		},
	} {
		checkGrad(t, name, w, f)
	}
	checkGrad(t, "bias-b", b, func(tape *Tape) *Node {
		return tape.Mean(tape.AddRowVec(tape.MatMul(tape.Const(x), tape.Param(w)), tape.Param(b)))
	})
}

func TestGradElementwisePair(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := NewParameter(randMatrix(rng, 2, 3))
	other := randMatrix(rng, 2, 3)
	checkGrad(t, "mul", a, func(tape *Tape) *Node {
		return tape.Mean(tape.Mul(tape.Param(a), tape.Const(other)))
	})
	checkGrad(t, "sub", a, func(tape *Tape) *Node {
		return tape.Mean(tape.Mul(tape.Sub(tape.Param(a), tape.Const(other)), tape.Sub(tape.Param(a), tape.Const(other))))
	})
	checkGrad(t, "add", a, func(tape *Tape) *Node {
		return tape.Mean(tape.Mul(tape.Add(tape.Param(a), tape.Const(other)), tape.Const(other)))
	})
}

func TestGradMaskedBCE(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	w := NewParameter(randMatrix(rng, 3, 4))
	x := randMatrix(rng, 5, 3)
	targets := NewMatrix(5, 4)
	for i := range targets.Data {
		if rng.Float64() < 0.3 {
			targets.Data[i] = 1
		}
	}
	mask := []bool{true, false, true, true, false}
	checkGrad(t, "maskedBCE", w, func(tape *Tape) *Node {
		logits := tape.MatMul(tape.Const(x), tape.Param(w))
		return tape.MaskedBCE(logits, targets, mask)
	})
}

func TestGradSpMM(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	adj := NewCSR(3, 3, [][]SparseEntry{
		{{Col: 1, Val: 0.5}, {Col: 2, Val: 0.5}},
		{{Col: 0, Val: 1}},
		{{Col: 0, Val: 0.3}, {Col: 1, Val: 0.7}},
	})
	w := NewParameter(randMatrix(rng, 2, 2))
	x := randMatrix(rng, 3, 2)
	checkGrad(t, "spmm", w, func(tape *Tape) *Node {
		h := tape.MatMul(tape.Const(x), tape.Param(w))
		return tape.Mean(tape.SpMM(adj, h))
	})
}

func TestCSRMulMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	dense := NewMatrix(4, 5)
	var entries [][]SparseEntry
	for i := 0; i < 4; i++ {
		var row []SparseEntry
		for j := 0; j < 5; j++ {
			if rng.Float64() < 0.4 {
				v := rng.NormFloat64()
				dense.Set(i, j, v)
				row = append(row, SparseEntry{Col: j, Val: v})
			}
		}
		entries = append(entries, row)
	}
	csr := NewCSR(4, 5, entries)
	d := randMatrix(rng, 5, 3)
	if diff := MaxAbsDiff(csr.MulDense(d), MatMul(dense, d)); diff > 1e-12 {
		t.Fatalf("SpMM differs from dense by %v", diff)
	}
	// Transpose consistency.
	dt := Transpose(dense)
	d2 := randMatrix(rng, 4, 2)
	if diff := MaxAbsDiff(csr.Transpose().MulDense(d2), MatMul(dt, d2)); diff > 1e-12 {
		t.Fatalf("CSR transpose differs from dense by %v", diff)
	}
}

func TestDropoutTrainAndIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x := randMatrix(rng, 10, 10)
	tape := NewTape()
	id := tape.Dropout(tape.Const(x), 0, rng)
	if MaxAbsDiff(id.Value, x) != 0 {
		t.Fatal("p=0 dropout is not identity")
	}
	dropped := tape.Dropout(tape.Const(x), 0.5, rng)
	zeros := 0
	for i := range dropped.Value.Data {
		if dropped.Value.Data[i] == 0 {
			zeros++
		}
	}
	if zeros == 0 || zeros == len(dropped.Value.Data) {
		t.Fatalf("dropout zeroed %d of %d elements", zeros, len(dropped.Value.Data))
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	// Minimise ||w - target||² — Adam should get close quickly.
	rng := rand.New(rand.NewSource(10))
	w := NewParameter(randMatrix(rng, 2, 2))
	target := randMatrix(rng, 2, 2)
	opt := NewAdam(0.1)
	opt.Register(w)
	for step := 0; step < 300; step++ {
		tape := NewTape()
		diff := tape.Sub(tape.Param(w), tape.Const(target))
		loss := tape.Mean(tape.Mul(diff, diff))
		tape.Backward(loss)
		opt.Step()
	}
	if d := MaxAbsDiff(w.Value, target); d > 1e-2 {
		t.Fatalf("Adam failed to converge: diff %v", d)
	}
}

func TestCustomOpGrad(t *testing.T) {
	// Custom square op: out = a², backward 2·a·grad.
	rng := rand.New(rand.NewSource(11))
	a := NewParameter(randMatrix(rng, 2, 3))
	checkGrad(t, "custom-square", a, func(tape *Tape) *Node {
		an := tape.Param(a)
		v := an.Value.Clone()
		for i := range v.Data {
			v.Data[i] *= v.Data[i]
		}
		sq := tape.Custom(v, []*Node{an}, func(out *Node) {
			for i, g := range out.Grad.Data {
				an.Grad.Data[i] += 2 * an.Value.Data[i] * g
			}
		})
		return tape.Mean(sq)
	})
}

func TestBackwardWithoutParamsIsNoop(t *testing.T) {
	tape := NewTape()
	x := tape.Const(FromRows([][]float64{{1}}))
	loss := tape.Mean(x)
	tape.Backward(loss) // must not panic
}

func TestGlorotRange(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	m := NewMatrix(10, 10)
	Glorot(m, rng)
	limit := math.Sqrt(6.0 / 20.0)
	for _, v := range m.Data {
		if v < -limit || v > limit {
			t.Fatalf("Glorot value %v outside ±%v", v, limit)
		}
	}
}

func BenchmarkMatMul128(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := randMatrix(rng, 128, 128)
	y := randMatrix(rng, 128, 128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(x, y)
	}
}

func BenchmarkSpMMCitation(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	const n, h = 2000, 32
	entries := make([][]SparseEntry, n)
	for i := 0; i < n; i++ {
		for k := 0; k < 4; k++ {
			entries[i] = append(entries[i], SparseEntry{Col: rng.Intn(n), Val: 0.25})
		}
	}
	csr := NewCSR(n, n, entries)
	d := randMatrix(rng, n, h)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		csr.MulDense(d)
	}
}
