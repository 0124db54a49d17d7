package serve

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	icspm "cspm/internal/cspm"
	"cspm/internal/graph"
)

// rankRowReference ranks by sorting every finite entry of the row: the
// oracle the bounded top-k rankRow must match.
func rankRowReference(row []float64, vocab *graph.Vocab, k int) []CandidateJSON {
	out := make([]CandidateJSON, 0, len(row))
	for id, score := range row {
		if math.IsInf(score, 0) || math.IsNaN(score) {
			continue
		}
		out = append(out, CandidateJSON{Value: vocab.Name(graph.AttrID(id)), Score: score})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score > out[j].Score
		}
		return out[i].Value < out[j].Value
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// scoreNodeReference is Algorithm 5 scored the direct way, every a-star
// against the neighbour attribute set, so serve tests check the indexed
// completion.Scorer against the definition rather than against itself.
func scoreNodeReference(model *icspm.Model, g *graph.Graph, v graph.VertexID) []float64 {
	scores := make([]float64, g.NumAttrValues())
	for i := range scores {
		scores[i] = math.Inf(-1)
	}
	neighbors := make(map[graph.AttrID]struct{})
	for _, u := range g.Neighbors(v) {
		for _, a := range g.Attrs(u) {
			neighbors[a] = struct{}{}
		}
	}
	for _, p := range model.Patterns {
		match := 0.0
		if len(p.LeafValues) > 0 {
			hit := 0
			for _, a := range p.LeafValues {
				if _, ok := neighbors[a]; ok {
					hit++
				}
			}
			match = float64(hit) / float64(len(p.LeafValues))
		}
		cl := -(2 - match) * p.CodeLen
		for _, cv := range p.CoreValues {
			if cl > scores[cv] {
				scores[cv] = cl
			}
		}
	}
	return scores
}

// TestRankRowMatchesReference runs the bounded top-k against the sorting
// oracle on tie-heavy rows (so the name tie-break decides most places) and
// rows with ±Inf, NaN and signed zeros, at every interesting k around the
// number of finite entries and at the default top_k.
func TestRankRowMatchesReference(t *testing.T) {
	const nA = 64
	rng := rand.New(rand.NewSource(1))
	// Names in an order unrelated to ids, so id order never stands in for
	// the name tie-break.
	b := graph.NewBuilder(1)
	for _, i := range rng.Perm(nA) {
		b.Vocab().ID(fmt.Sprintf("val%03d", i))
	}
	vocab := b.Build().Vocab()

	draw := func(pool []float64) []float64 {
		row := make([]float64, nA)
		for j := range row {
			row[j] = pool[rng.Intn(len(pool))]
		}
		return row
	}
	negZero := math.Copysign(0, -1)
	rows := map[string][]float64{
		"ties":       draw([]float64{-3, -1.5, 0}),
		"non-finite": draw([]float64{-2, 0, negZero, 7, math.Inf(-1), math.Inf(1), math.NaN()}),
		"mostly-inf": draw([]float64{1, math.Inf(-1), math.Inf(-1), math.Inf(-1), math.NaN()}),
		"silent":     draw([]float64{math.Inf(-1), math.NaN()}),
	}
	single := draw([]float64{math.Inf(-1)})
	single[17] = 4
	rows["single"] = single

	for name, row := range rows {
		finite := 0
		for _, x := range row {
			if !math.IsInf(x, 0) && !math.IsNaN(x) {
				finite++
			}
		}
		// handleComplete never passes a top_k below 1. The k below finite
		// make the heap evict.
		for _, k := range []int{1, finite / 2, defaultTopK, finite - 1, finite, finite + 1, maxTopK} {
			if k < 1 {
				continue
			}
			got := rankRow(row, vocab, k)
			want := rankRowReference(row, vocab, k)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s (%d finite), k=%d:\n got %s\nwant %s", name, finite, k, fmtCandidates(got), fmtCandidates(want))
			}
		}
	}
}
