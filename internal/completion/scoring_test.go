package completion

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"cspm/internal/cspm"
	"cspm/internal/dataset"
	"cspm/internal/graph"
)

// scoreNodeReference is Algorithm 5 scored the direct way, every a-star
// against the neighbour attribute set: the oracle the indexed ScoreNode
// must match bit for bit.
func scoreNodeReference(model *cspm.Model, g *graph.Graph, v graph.VertexID) []float64 {
	scores := make([]float64, g.NumAttrValues())
	for i := range scores {
		scores[i] = math.Inf(-1)
	}
	neighbors := neighborAttrs(g, v)
	for _, p := range model.Patterns {
		match := similarity(p.LeafValues, neighbors)
		w := 2 - match
		cl := -w * p.CodeLen
		for _, cv := range p.CoreValues {
			if cl > scores[cv] {
				scores[cv] = cl
			}
		}
	}
	return scores
}

// neighborAttrs collects the attribute-value set visible around v.
func neighborAttrs(g *graph.Graph, v graph.VertexID) map[graph.AttrID]struct{} {
	out := make(map[graph.AttrID]struct{})
	for _, u := range g.Neighbors(v) {
		for _, a := range g.Attrs(u) {
			out[a] = struct{}{}
		}
	}
	return out
}

// similarity is |SL ∩ N| / |SL|, 0 for an empty leafset.
func similarity(leaf []graph.AttrID, neighbors map[graph.AttrID]struct{}) float64 {
	if len(leaf) == 0 {
		return 0
	}
	hit := 0
	for _, a := range leaf {
		if _, ok := neighbors[a]; ok {
			hit++
		}
	}
	return float64(hit) / float64(len(leaf))
}

// sameBits reports the first index where two rows differ in their IEEE-754
// bits (so −0 ≠ +0 and NaN = NaN), or -1.
func sameBits(got, want []float64) int {
	if len(got) != len(want) {
		return 0
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i
		}
	}
	return -1
}

// benchmarkGraphs are the served graphs of the repo benchmark, built the
// way its workloads build them: the mid archipelago (4,210 vertices, 360
// values) and the small graph (444 vertices).
func benchmarkGraphs() map[string]*graph.Graph {
	mid := dataset.BenchIslands()
	mid.MinNodes, mid.MaxNodes = 250, 500
	small := dataset.DefaultIslands()
	small.Seed = 7
	return map[string]*graph.Graph{
		"mid":   dataset.IslandsWithEdgeSeeds(mid, nil),
		"small": dataset.Islands(small),
	}
}

// servedModel mines g the way the serving layer publishes a model.
func servedModel(g *graph.Graph) *cspm.Model {
	return cspm.MineShardedCached(g, cspm.Options{CollectStats: true}, nil)
}

func TestScoreNodeMatchesReference(t *testing.T) {
	for name, g := range benchmarkGraphs() {
		t.Run(name, func(t *testing.T) {
			model := servedModel(g)
			s := NewScorer(model, g)
			// The reference costs ~1.5 ms a vertex on the mid archipelago:
			// spread the vertices over every core.
			workers := runtime.GOMAXPROCS(0)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for v := w; v < g.NumVertices(); v += workers {
						got := s.ScoreNode(graph.VertexID(v))
						want := scoreNodeReference(model, g, graph.VertexID(v))
						if i := sameBits(got, want); i >= 0 {
							t.Errorf("vertex %d value %d: indexed %v, reference %v", v, i, got[i], want[i])
							return
						}
					}
				}(w)
			}
			wg.Wait()
		})
	}
}

func TestScoreNodeConcurrent(t *testing.T) {
	g := benchmarkGraphs()["small"]
	model := servedModel(g)
	want := make([][]float64, g.NumVertices())
	for v := range want {
		want[v] = scoreNodeReference(model, g, graph.VertexID(v))
	}
	s := NewScorer(model, g)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			n := len(want)
			for i := 0; i < n; i++ {
				v := (i + w*n/8) % n // each goroutine starts elsewhere
				got := s.ScoreNode(graph.VertexID(v))
				if j := sameBits(got, want[v]); j >= 0 {
					t.Errorf("goroutine %d vertex %d value %d: got %v, want %v", w, v, j, got[j], want[v][j])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

func TestScoreMatrixScoresInPlace(t *testing.T) {
	task := smallTask(t)
	train := task.TrainGraph()
	s := NewScorer(cspm.Mine(train), train)
	m := s.ScoreMatrix(task)
	test := make(map[int]bool, len(task.TestNodes))
	for _, v := range task.TestNodes {
		test[int(v)] = true
		if i := sameBits(m.Row(int(v)), s.ScoreNode(v)); i >= 0 {
			t.Fatalf("test vertex %d value %d: matrix %v, ScoreNode %v", v, i, m.Row(int(v))[i], s.ScoreNode(v)[i])
		}
	}
	for v := 0; v < task.G.NumVertices(); v++ {
		if test[v] {
			continue
		}
		for j, x := range m.Row(v) {
			if math.Float64bits(x) != 0 {
				t.Fatalf("non-test vertex %d value %d: %v, want +0", v, j, x)
			}
		}
	}
}

// fuzzGraph builds a small random graph over exactly nA values: some
// vertices isolated, some with no attributes.
func fuzzGraph(rng *rand.Rand, n, nA int) *graph.Graph {
	b := graph.NewBuilder(n)
	for a := 0; a < nA; a++ {
		b.Vocab().ID(fmt.Sprintf("v%d", a))
	}
	for v := 0; v < n; v++ {
		for range rng.Intn(4) {
			_ = b.AddAttrID(graph.VertexID(v), graph.AttrID(rng.Intn(nA)))
		}
	}
	for range rng.Intn(3 * n) {
		_ = b.AddEdge(graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n)))
	}
	return b.Build()
}

// fuzzModel hand-builds a model over nA values: empty and duplicated
// leafsets, duplicated cores, zero (of either sign) and infinite code
// lengths, and values no a-star mentions.
func fuzzModel(rng *rand.Rand, nA, nP int) *cspm.Model {
	codeLens := []float64{0, math.Copysign(0, -1), math.Inf(1), 1, 2.5}
	m := &cspm.Model{}
	for range nP {
		var p cspm.AStar
		for range 1 + rng.Intn(3) {
			p.CoreValues = append(p.CoreValues, graph.AttrID(rng.Intn(nA)))
		}
		for range rng.Intn(5) {
			p.LeafValues = append(p.LeafValues, graph.AttrID(rng.Intn(nA)))
		}
		if rng.Intn(2) == 0 {
			p.CodeLen = codeLens[rng.Intn(len(codeLens))]
		} else {
			p.CodeLen = rng.ExpFloat64() * 20
		}
		m.Patterns = append(m.Patterns, p)
	}
	return m
}

func FuzzScoreNode(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(5), uint8(6))
	f.Add(int64(2), uint8(1), uint8(1), uint8(0))
	f.Add(int64(3), uint8(30), uint8(12), uint8(40))
	f.Add(int64(4), uint8(5), uint8(20), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, nV, nA, nP uint8) {
		rng := rand.New(rand.NewSource(seed))
		n, values := 1+int(nV%32), 1+int(nA%16)
		g := fuzzGraph(rng, n, values)
		model := fuzzModel(rng, values, int(nP%48))
		s := NewScorer(model, g)
		// One explicit scratch reused for every vertex, each call crossing
		// the epoch wrap with every value stamped at generation 1, so a
		// stale mark surviving the wrap would hide a value.
		sc := s.scratch.New().(*scoreScratch)
		dst := make([]float64, values)
		for v := 0; v < n; v++ {
			want := scoreNodeReference(model, g, graph.VertexID(v))
			got := s.ScoreNode(graph.VertexID(v))
			if i := sameBits(got, want); i >= 0 {
				t.Fatalf("ScoreNode(%d) value %d: got %v, want %v", v, i, got[i], want[i])
			}
			sc.seen.SetGeneration(1)
			for a := range values {
				sc.seen.Mark(a)
			}
			sc.seen.SetGeneration(math.MaxUint32)
			s.scoreWith(sc, graph.VertexID(v), dst)
			if i := sameBits(dst, want); i >= 0 {
				t.Fatalf("reused scratch, vertex %d value %d: got %v, want %v", v, i, dst[i], want[i])
			}
		}
	})
}
