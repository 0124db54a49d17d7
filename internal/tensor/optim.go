package tensor

import "math"

// Adam implements the Adam optimizer over a fixed set of parameter matrices.
// Gradients are read from the paired grad matrices and cleared after each
// step.
type Adam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Epsilon float64

	params []*Matrix
	grads  []*Matrix
	m, v   []*Matrix
	step   int
}

// NewAdam creates an optimizer with the conventional defaults.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8}
}

// Register adds parameters to the optimizer.
func (a *Adam) Register(ps ...*Parameter) {
	for _, p := range ps {
		a.params = append(a.params, p.Value)
		a.grads = append(a.grads, p.Grad)
		a.m = append(a.m, NewMatrix(p.Value.Rows, p.Value.Cols))
		a.v = append(a.v, NewMatrix(p.Value.Rows, p.Value.Cols))
	}
}

// Step applies one Adam update and zeroes the gradients.
func (a *Adam) Step() {
	a.step++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.step))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.step))
	for i, p := range a.params {
		g := a.grads[i]
		m, v := a.m[i], a.v[i]
		for k := range p.Data {
			gk := g.Data[k]
			m.Data[k] = a.Beta1*m.Data[k] + (1-a.Beta1)*gk
			v.Data[k] = a.Beta2*v.Data[k] + (1-a.Beta2)*gk*gk
			mh := m.Data[k] / bc1
			vh := v.Data[k] / bc2
			p.Data[k] -= a.LR * mh / (math.Sqrt(vh) + a.Epsilon)
		}
		g.Zero()
	}
}
