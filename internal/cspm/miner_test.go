package cspm

import (
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"cspm/internal/graph"
	"cspm/internal/invdb"
)

func fig1(t testing.TB) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(5)
	for v, vals := range map[graph.VertexID][]string{
		0: {"a"}, 1: {"a", "c"}, 2: {"c"}, 3: {"b"}, 4: {"a", "b"},
	} {
		for _, val := range vals {
			if err := b.AddAttr(v, val); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, e := range [][2]graph.VertexID{{0, 1}, {0, 2}, {0, 3}, {2, 4}, {3, 4}} {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

func randomGraph(rng *rand.Rand, n, attrs int, edgeP, attrP float64) *graph.Graph {
	b := graph.NewBuilder(n)
	names := make([]string, attrs)
	for i := range names {
		names[i] = string(rune('a' + i))
	}
	for v := 0; v < n; v++ {
		got := false
		for _, name := range names {
			if rng.Float64() < attrP {
				_ = b.AddAttr(graph.VertexID(v), name)
				got = true
			}
		}
		if !got {
			_ = b.AddAttr(graph.VertexID(v), names[rng.Intn(len(names))])
		}
	}
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < edgeP {
				_ = b.AddEdge(graph.VertexID(u), graph.VertexID(v))
			}
		}
	}
	return b.Build()
}

func TestMineFig1(t *testing.T) {
	g := fig1(t)
	m := Mine(g)
	if len(m.Patterns) == 0 {
		t.Fatal("no patterns mined")
	}
	if m.FinalDL > m.BaselineDL {
		t.Fatalf("mining increased DL: %v > %v", m.FinalDL, m.BaselineDL)
	}
	// Patterns must come out sorted by ascending code length.
	for i := 1; i < len(m.Patterns); i++ {
		if m.Patterns[i].CodeLen < m.Patterns[i-1].CodeLen {
			t.Fatalf("patterns unsorted at %d: %v < %v", i, m.Patterns[i].CodeLen, m.Patterns[i-1].CodeLen)
		}
	}
	// The paper's worked merge: ({a},{b,c}) should be discovered.
	found := false
	for _, p := range m.MultiLeaf() {
		if p.Format(g.Vocab()) == "({a}, {b c})" {
			found = true
			if p.FL != 2 {
				t.Errorf("({a},{b,c}).FL = %d, want 2", p.FL)
			}
		}
	}
	if !found {
		t.Error("merged pattern ({a},{b c}) not in model")
	}
}

func TestMineBasicMatchesPartialOnFig1(t *testing.T) {
	g := fig1(t)
	basic := MineWithOptions(g, Options{Variant: Basic, CollectStats: true})
	partial := MineWithOptions(g, Options{Variant: Partial, CollectStats: true})
	if math.Abs(basic.FinalDL-partial.FinalDL) > 1e-9 {
		t.Fatalf("Basic DL %v != Partial DL %v", basic.FinalDL, partial.FinalDL)
	}
	if len(basic.Patterns) != len(partial.Patterns) {
		t.Fatalf("pattern counts differ: %d vs %d", len(basic.Patterns), len(partial.Patterns))
	}
}

// On random graphs the two variants may diverge slightly (Partial skips
// refreshing pairs whose shared-coreset frequencies changed through
// unrelated merges — an approximation the paper accepts); verify both
// compress and land within a small relative distance of each other.
func TestBasicVsPartialCloseOnRandomGraphs(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 30, 6, 0.15, 0.4)
		basic := MineWithOptions(g, Options{Variant: Basic})
		partial := MineWithOptions(g, Options{Variant: Partial})
		if basic.FinalDL > basic.BaselineDL+1e-9 {
			t.Fatalf("seed %d: Basic expanded DL", seed)
		}
		if partial.FinalDL > partial.BaselineDL+1e-9 {
			t.Fatalf("seed %d: Partial expanded DL", seed)
		}
		if basic.BaselineDL > 0 {
			rel := math.Abs(basic.FinalDL-partial.FinalDL) / basic.BaselineDL
			if rel > 0.02 {
				t.Fatalf("seed %d: variants diverged by %.2f%% of baseline", seed, 100*rel)
			}
		}
	}
}

func TestEveryRecordedMergeCompresses(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomGraph(rng, 40, 6, 0.12, 0.4)
	for _, variant := range []Variant{Basic, Partial} {
		m := MineWithOptions(g, Options{Variant: variant, CollectStats: true})
		prev := m.BaselineDL
		for _, it := range m.PerIter {
			if it.Gain < 0 {
				t.Fatalf("%v: iteration %d applied negative gain %v", variant, it.Iteration, it.Gain)
			}
			if it.TotalDL > prev+1e-9 {
				t.Fatalf("%v: DL increased at iteration %d: %v -> %v", variant, it.Iteration, prev, it.TotalDL)
			}
			prev = it.TotalDL
			if it.UpdateRatio < 0 || it.UpdateRatio > 1+1e-9 {
				t.Fatalf("%v: update ratio %v outside [0,1]", variant, it.UpdateRatio)
			}
		}
	}
}

func TestPartialDoesFewerGainEvals(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomGraph(rng, 60, 8, 0.1, 0.35)
	basic := MineWithOptions(g, Options{Variant: Basic, CollectStats: true})
	partial := MineWithOptions(g, Options{Variant: Partial, CollectStats: true})
	if basic.Iterations == 0 {
		t.Skip("graph produced no merges")
	}
	if partial.GainEvals >= basic.GainEvals {
		t.Fatalf("Partial evals %d >= Basic evals %d — optimization not effective",
			partial.GainEvals, basic.GainEvals)
	}
}

func TestDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := randomGraph(rng, 25, 5, 0.2, 0.4)
	m1 := MineWithOptions(g, Options{CollectStats: true})
	m2 := MineWithOptions(g, Options{CollectStats: true})
	if m1.FinalDL != m2.FinalDL || len(m1.Patterns) != len(m2.Patterns) {
		t.Fatal("mining is not deterministic")
	}
	for i := range m1.Patterns {
		if !reflect.DeepEqual(m1.Patterns[i], m2.Patterns[i]) {
			t.Fatalf("pattern %d differs between runs", i)
		}
	}
}

func TestMaxIterations(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomGraph(rng, 40, 6, 0.15, 0.4)
	full := MineWithOptions(g, Options{CollectStats: true})
	if full.Iterations < 2 {
		t.Skip("not enough merges to test the cap")
	}
	capped := MineWithOptions(g, Options{CollectStats: true, MaxIterations: 1})
	if capped.Iterations > 1 {
		t.Fatalf("MaxIterations=1 ran %d iterations", capped.Iterations)
	}
}

func TestAblationDisableModelCost(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randomGraph(rng, 40, 6, 0.15, 0.4)
	with := MineWithOptions(g, Options{CollectStats: true})
	without := MineWithOptions(g, Options{CollectStats: true, DisableModelCost: true})
	// Without the model-cost guard the miner merges at least as eagerly.
	if without.Iterations < with.Iterations {
		t.Fatalf("ablation merged less: %d < %d", without.Iterations, with.Iterations)
	}
}

func TestModelHelpers(t *testing.T) {
	g := fig1(t)
	m := Mine(g)
	if got := m.TopK(2); len(got) != 2 {
		t.Fatalf("TopK(2) = %d patterns", len(got))
	}
	if got := m.TopK(10_000); len(got) != len(m.Patterns) {
		t.Fatal("TopK should clamp")
	}
	if r := m.CompressionRatio(); r <= 0 || r > 1 {
		t.Fatalf("CompressionRatio = %v", r)
	}
	for _, p := range m.Patterns {
		c := p.Confidence()
		if c < 0 || c > 1 {
			t.Fatalf("Confidence = %v outside [0,1]", c)
		}
	}
}

func TestAStarFormat(t *testing.T) {
	v := graph.NewVocab()
	icdm, pods, edbt := v.ID("ICDM"), v.ID("PODS"), v.ID("EDBT")
	s := AStar{CoreValues: []graph.AttrID{icdm}, LeafValues: []graph.AttrID{pods, edbt}}
	if got := s.Format(v); got != "({ICDM}, {EDBT PODS})" {
		t.Fatalf("Format = %q", got)
	}
}

func TestCandidateSet(t *testing.T) {
	cs := newCandidateSet()
	cs.Set(1, 2, 5.0)
	cs.Set(3, 4, 9.0)
	cs.Set(1, 2, 7.0) // supersedes
	if len(cs.live) != 2 {
		t.Fatalf("Len = %d, want 2", len(cs.live))
	}
	a, b, gain, ok := cs.PopMax()
	if !ok || gain != 9.0 || pairKey(a, b) != pairKey(3, 4) {
		t.Fatalf("PopMax = (%d,%d,%v,%v)", a, b, gain, ok)
	}
	a, b, gain, ok = cs.PopMax()
	if !ok || gain != 7.0 || pairKey(a, b) != pairKey(1, 2) {
		t.Fatalf("PopMax = (%d,%d,%v,%v), want updated gain 7", a, b, gain, ok)
	}
	if _, _, _, ok := cs.PopMax(); ok {
		t.Fatal("PopMax on empty set returned ok")
	}
	cs.Set(5, 6, 1.0)
	cs.Remove(5, 6)
	if _, _, _, ok := cs.PopMax(); ok {
		t.Fatal("removed entry still popped")
	}
}

func TestPairKeySymmetric(t *testing.T) {
	if pairKey(2, 9) != pairKey(9, 2) {
		t.Fatal("pairKey is order-sensitive")
	}
	a, b := unpackPair(pairKey(9, 2))
	if a != 2 || b != 9 {
		t.Fatalf("unpackPair = (%d,%d)", a, b)
	}
}

func TestOptionsValidate(t *testing.T) {
	if err := (Options{MaxIterations: -1}).Validate(); err == nil {
		t.Fatal("negative MaxIterations accepted")
	}
	if err := (Options{Workers: -1}).Validate(); err == nil {
		t.Fatal("negative Workers accepted")
	}
	if err := (Options{}).Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Options{Workers: 4}).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRdict(t *testing.T) {
	r := make(rdict)
	r.add(1, 2)
	r.add(1, 3)
	if got := slices.Sorted(maps.Keys(r[1])); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("related = %v", got)
	}
	r.removePair(1, 2)
	if got := slices.Sorted(maps.Keys(r[1])); len(got) != 1 || got[0] != 3 {
		t.Fatalf("after removePair related = %v", got)
	}
	cs := newCandidateSet()
	cs.Set(1, 3, 2.0)
	r.removeLeafset(1, cs)
	if len(r) != 0 {
		t.Fatalf("rdict not empty after removeLeafset: %v", r)
	}
	if len(cs.live) != 0 {
		t.Fatal("candidates not cleared with leafset")
	}
}

func TestMineDBWithPreparedDatabase(t *testing.T) {
	g := fig1(t)
	db := invdb.FromGraph(g)
	m := MineDB(db, g.Vocab(), Options{CollectStats: true})
	if m.FinalDL > m.BaselineDL {
		t.Fatal("MineDB expanded DL")
	}
}

func TestWorkersMatchSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	g := randomGraph(rng, 50, 7, 0.12, 0.4)
	for _, variant := range []Variant{Basic, Partial} {
		serial := MineWithOptions(g, Options{Variant: variant, CollectStats: true})
		parallel := MineWithOptions(g, Options{Variant: variant, CollectStats: true, Workers: 4})
		if serial.FinalDL != parallel.FinalDL {
			t.Fatalf("%v: parallel DL %v != serial %v", variant, parallel.FinalDL, serial.FinalDL)
		}
		if len(serial.Patterns) != len(parallel.Patterns) {
			t.Fatalf("%v: pattern counts differ", variant)
		}
		for i := range serial.Patterns {
			if !reflect.DeepEqual(serial.Patterns[i], parallel.Patterns[i]) {
				t.Fatalf("%v: pattern %d differs under parallel evaluation", variant, i)
			}
		}
	}
}

// TestMinedPositionsAreSoundMatches cross-validates the miner against the
// declarative a-star matching semantics of §IV-A: every mined pattern's
// occurrence count fL can never exceed the number of vertices its
// (core, leafset) shape actually matches in the graph.
func TestMinedPositionsAreSoundMatches(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := randomGraph(rng, 35, 5, 0.15, 0.45)
	m := Mine(g)
	for _, p := range m.Patterns {
		shape, err := graph.NewAStarShape(p.CoreValues, p.LeafValues)
		if err != nil {
			t.Fatalf("mined pattern is malformed: %v", err)
		}
		matches := shape.Matches(g)
		if p.FL > len(matches) {
			t.Fatalf("pattern %s claims fL=%d but only %d vertices match",
				p.Format(g.Vocab()), p.FL, len(matches))
		}
	}
}
