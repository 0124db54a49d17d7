package completion

import (
	"math"
	"sync"

	"cspm/internal/cspm"
	"cspm/internal/epoch"
	"cspm/internal/graph"
	"cspm/internal/tensor"
)

// Scorer ranks candidate attribute values for attribute-missing vertices
// using a mined a-star model (paper Algorithm 5): a core value whose a-star
// leafset resembles the vertex's neighbour attributes — and whose code is
// short — is a likely missing value.
//
// NewScorer indexes the model once, so scoring a vertex touches only the
// a-stars whose leafsets share a value with its neighbourhood. The index is
// immutable and per-call scratch comes from a pool: a Scorer is safe for
// concurrent use.
type Scorer struct {
	model *cspm.Model
	g     *graph.Graph

	// baseline[a] is core value a's score when no leaf value matches: the
	// max of −2·CodeLen over the a-stars with a in their coreset, or −Inf
	// when there are none (Algorithm 5 line 1).
	baseline []float64
	// postings[offsets[a]:offsets[a+1]] lists the a-stars with leaf value a,
	// once per occurrence: Algorithm 5's overlap |SL ∩ N| counts a leaf
	// value listed twice twice.
	offsets  []int32
	postings []int32
	scratch  sync.Pool // *scoreScratch
}

// scoreScratch is one call's working state, reused across calls through
// Scorer.scratch: hits is all zero and touched empty between calls.
type scoreScratch struct {
	hits    []int32   // per a-star: leaf values found around the vertex
	seen    epoch.Set // values already walked for this vertex
	touched []int32   // a-stars with hits > 0, in first-hit order
}

// NewScorer builds a scorer from a model mined on (a training view of) g,
// indexing the model once for every later ScoreNode call. Neither the model
// nor g may change afterwards.
func NewScorer(model *cspm.Model, g *graph.Graph) *Scorer {
	nA := g.NumAttrValues()
	s := &Scorer{
		model:    model,
		g:        g,
		baseline: make([]float64, nA),
		offsets:  make([]int32, nA+1),
	}
	for i := range s.baseline {
		s.baseline[i] = math.Inf(-1)
	}
	for _, p := range model.Patterns {
		cl := -2 * p.CodeLen
		for _, cv := range p.CoreValues {
			if cl > s.baseline[cv] {
				s.baseline[cv] = cl
			}
		}
		for _, a := range p.LeafValues {
			if int(a) < nA { // a value outside g's vocabulary never matches
				s.offsets[a+1]++
			}
		}
	}
	for a := 0; a < nA; a++ {
		s.offsets[a+1] += s.offsets[a]
	}
	s.postings = make([]int32, s.offsets[nA])
	fill := append([]int32(nil), s.offsets[:nA]...)
	for i, p := range model.Patterns {
		for _, a := range p.LeafValues {
			if int(a) < nA {
				s.postings[fill[a]] = int32(i)
				fill[a]++
			}
		}
	}
	nP := len(model.Patterns)
	s.scratch.New = func() any {
		sc := &scoreScratch{hits: make([]int32, nP)}
		sc.seen.Grow(nA)
		return sc
	}
	return s
}

// ScoreNode returns a score per attribute value for vertex v: higher is more
// likely. Values never seen in any a-star keep −Inf (Algorithm 5 line 1).
// The caller owns the returned row.
func (s *Scorer) ScoreNode(v graph.VertexID) []float64 {
	row := make([]float64, len(s.baseline))
	s.scoreInto(v, row)
	return row
}

// scoreInto writes v's scores into dst, which must hold |A| entries.
//
// Every a-star scores cl = −w·L(S) with w = 2 − |SL ∩ N|/|SL| (Algorithm 5
// lines 5–6), and a value's score is the max over the a-stars in whose
// coreset it appears. An a-star with no leaf value around v has w exactly 2,
// its baseline contribution; a matched one has w < 2 and, code lengths
// being non-negative, a score no lower than its baseline. So the row is the
// baseline raised by the matched a-stars alone, and since a max does not
// depend on the order it is taken in, the result is bit-identical to
// scoring every a-star.
func (s *Scorer) scoreInto(v graph.VertexID, dst []float64) {
	sc := s.scratch.Get().(*scoreScratch)
	s.scoreWith(sc, v, dst)
	s.scratch.Put(sc)
}

// scoreWith is scoreInto over an explicit scratch, which it leaves ready
// for the next call.
func (s *Scorer) scoreWith(sc *scoreScratch, v graph.VertexID, dst []float64) {
	copy(dst, s.baseline)
	sc.seen.Bump()
	for _, u := range s.g.Neighbors(v) {
		for _, a := range s.g.Attrs(u) {
			if !sc.seen.Mark(int(a)) {
				continue
			}
			for _, p := range s.postings[s.offsets[a]:s.offsets[a+1]] {
				if sc.hits[p] == 0 {
					sc.touched = append(sc.touched, p)
				}
				sc.hits[p]++
			}
		}
	}
	for _, pi := range sc.touched {
		p := &s.model.Patterns[pi]
		match := float64(sc.hits[pi]) / float64(len(p.LeafValues))
		sc.hits[pi] = 0
		w := 2 - match
		cl := -w * p.CodeLen
		for _, cv := range p.CoreValues {
			if cl > dst[cv] {
				dst[cv] = cl
			}
		}
	}
	sc.touched = sc.touched[:0]
}

// ScoreMatrix scores every test node of the task, returning an n×|A| matrix
// with zero rows for non-test vertices.
func (s *Scorer) ScoreMatrix(task *Task) *tensor.Matrix {
	out := tensor.NewMatrix(task.G.NumVertices(), task.NumAttr)
	for _, v := range task.TestNodes {
		s.scoreInto(v, out.Row(int(v)))
	}
	return out
}

// Fuse combines model probabilities with CSPM scores as in Fig. 7: both
// score vectors are min-max normalised per row and multiplied. Rows where
// CSPM is silent (all −Inf) fall back to the model alone.
func Fuse(modelScores, cspmScores *tensor.Matrix, testNodes []graph.VertexID) *tensor.Matrix {
	out := modelScores.Clone()
	for _, v := range testNodes {
		mrow := out.Row(int(v))
		if fused := FuseRows(mrow, cspmScores.Row(int(v))); fused != nil {
			copy(mrow, fused)
		}
	}
	return out
}

// FuseRows fuses one vertex's model and CSPM score rows with Fuse's exact
// per-row rule, without requiring whole-graph matrices — the row-granular
// entry point the serving layer scores requests through. It returns nil
// when the model row carries no finite signal (nothing to fuse onto).
func FuseRows(modelRow, cspmRow []float64) []float64 {
	mn := normalizeRow(modelRow)
	if mn == nil {
		return nil
	}
	cn := normalizeRow(cspmRow)
	if cn == nil {
		return mn
	}
	for j := range mn {
		mn[j] *= cn[j]
	}
	return mn
}

// normalizeRow min-max normalises a copy of row into [ε, 1]; returns nil if
// the row carries no finite signal. The ε floor keeps the multiplication
// from zeroing a value that one source is merely lukewarm about.
func normalizeRow(row []float64) []float64 {
	const eps = 1e-3
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range row {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			continue
		}
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if math.IsInf(lo, 1) {
		return nil // nothing finite
	}
	out := make([]float64, len(row))
	span := hi - lo
	for j, v := range row {
		switch {
		case math.IsInf(v, -1) || math.IsNaN(v):
			out[j] = eps / 2 // silent values rank below every scored value
		case span == 0:
			out[j] = 1
		default:
			out[j] = eps + (1-eps)*(v-lo)/span
		}
	}
	return out
}
