// Package mdl implements the description-length machinery CSPM is built on
// (paper §III and §IV-C/D): Shannon optimal code lengths, the standard code
// table ST over attribute values, and conditional-entropy code lengths for
// inverted-database lines.
//
// All code lengths are in bits (logs base 2) and follow the Krimp convention
// that only lengths matter — no actual codes are materialised. The
// convention 0·log 0 = 0 is applied throughout.
package mdl

import (
	"math"

	"cspm/internal/graph"
)

// XLogX returns x·log2(x) with 0·log 0 = 0. The description length of the
// inverted database (Eq. 8) is a signed sum of these terms.
func XLogX(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return x * math.Log2(x)
}

// StandardTable is the standard code table ST (paper §III): the optimal
// per-value encoding of attribute values from their global frequencies in
// the vertex→attribute mapping, ignoring labels and structure.
type StandardTable struct {
	freq  []int     // indexed by AttrID
	lens  []float64 // lens[a] = L_ST(a), computed once from freq and total
	total int
}

// NewStandardTable counts attribute-value occurrences over all vertices of g.
func NewStandardTable(g *graph.Graph) *StandardTable {
	st := &StandardTable{freq: make([]int, g.NumAttrValues())}
	for v := 0; v < g.NumVertices(); v++ {
		for _, a := range g.Attrs(graph.VertexID(v)) {
			st.freq[a]++
			st.total++
		}
	}
	st.fillLens()
	return st
}

// NewStandardTableFromFreqs builds an ST from precomputed frequencies,
// indexed by AttrID. Used by the transaction-database miners (Krimp/SLIM).
func NewStandardTableFromFreqs(freq []int) *StandardTable {
	st := &StandardTable{freq: append([]int(nil), freq...)}
	for _, f := range freq {
		st.total += f
	}
	st.fillLens()
	return st
}

// fillLens tabulates every value's code length, so Len and SetLen — priced
// on every merge evaluation that creates a leafset — never take a logarithm.
func (st *StandardTable) fillLens() {
	st.lens = make([]float64, len(st.freq))
	for a, f := range st.freq {
		if f == 0 || st.total == 0 {
			st.lens[a] = math.Inf(1)
		} else {
			st.lens[a] = -math.Log2(float64(f) / float64(st.total))
		}
	}
}

// Freqs returns a copy of the per-value occurrence counts, indexed by
// AttrID — the table's complete state, so NewStandardTableFromFreqs(Freqs())
// reconstructs an identical table (the global attribute context shipped to
// remote shard workers).
func (st *StandardTable) Freqs() []int {
	return append([]int(nil), st.freq...)
}

// Len returns L_ST(a) = −log2(freq(a)/total) in bits (Eq. 5 applied to the
// mapping-table frequencies). Values never seen get +Inf.
func (st *StandardTable) Len(a graph.AttrID) float64 {
	if uint(a) >= uint(len(st.lens)) {
		return math.Inf(1)
	}
	return st.lens[a]
}

// SetLen returns Σ_{a∈set} L_ST(a), the cost of spelling out a value set
// with standard codes — the model-cost currency for new leafsets (§IV-E).
func (st *StandardTable) SetLen(set []graph.AttrID) float64 {
	sum := 0.0
	for _, a := range set {
		sum += st.Len(a)
	}
	return sum
}

// CondCodeLen returns the conditional-entropy code length of an
// inverted-database line (Eq. 6): L(SL | Sc) = −log2(fL/fc).
// fL must satisfy 0 < fL ≤ fc; violations return +Inf.
func CondCodeLen(fL, fc int) float64 {
	if fL <= 0 || fc <= 0 || fL > fc {
		return math.Inf(1)
	}
	return -math.Log2(float64(fL) / float64(fc))
}

// CondEntropy computes H(Y|X) from Eq. (7) given each line's (fL, fc) and
// the total frequency s = Σ fL. It is the average per-line encoding cost,
// reported by the miner for diagnostics.
func CondEntropy(lines [][2]int) float64 {
	s := 0
	for _, ln := range lines {
		s += ln[0]
	}
	if s == 0 {
		return 0
	}
	h := 0.0
	for _, ln := range lines {
		fL, fc := float64(ln[0]), float64(ln[1])
		if fL <= 0 || fc <= 0 {
			continue
		}
		h -= (fL / float64(s)) * math.Log2(fL/fc)
	}
	return h
}
