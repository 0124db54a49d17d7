package invdb

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"cspm/internal/graph"
	"cspm/internal/mdl"
)

// islands builds two attribute-disjoint components: a triangle on values
// {a,b,c} and an edge on values {x,y}.
func islands(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(5)
	for v, vals := range [][]string{{"a"}, {"b", "c"}, {"a", "c"}, {"x"}, {"x", "y"}} {
		for _, val := range vals {
			if err := b.AddAttr(graph.VertexID(v), val); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, e := range [][2]graph.VertexID{{0, 1}, {1, 2}, {0, 2}, {3, 4}} {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

func TestShardStatsUnionMatchesGlobal(t *testing.T) {
	g := islands(t)
	st := mdl.NewStandardTable(g)
	whole := FromGraph(g)
	a := shardDB(g, st, []graph.VertexID{0, 1, 2})
	b := shardDB(g, st, []graph.VertexID{3, 4})
	union := a.AppendLineStats(nil)
	union = b.AppendLineStats(union)
	ud, um := CanonicalDL(st, whole.CoreCodeLen, union)
	wd, wm := canonicalDLOf(whole)
	if math.Float64bits(ud+um) != math.Float64bits(wd+wm) {
		t.Fatalf("union of shard stats prices %v, global %v", ud+um, wd+wm)
	}
	if ue, we := condEntropyOf(union), condEntropyOf(whole.AppendLineStats(nil)); math.Float64bits(ue) != math.Float64bits(we) {
		t.Fatalf("cond entropy differs: %v vs %v", ue, we)
	}
}

func TestCanonicalDLMatchesRecomputeAndIsOrderFree(t *testing.T) {
	g := islands(t)
	db := FromGraph(g)
	// Apply one compressing merge if available so the line set is nontrivial.
	ids := db.AppendActiveLeafsets(nil)
merge:
	for i := 0; i < len(ids); i++ {
		for j := i + 1; j < len(ids); j++ {
			if ev := db.EvalMerge(ids[i], ids[j]); ev.Gain > 0 {
				db.ApplyMerge(ids[i], ids[j])
				break merge
			}
		}
	}
	data, model := canonicalDLOf(db)
	rd, rm := db.recomputeDL()
	if math.Abs((data+model)-(rd+rm)) > 1e-9 {
		t.Fatalf("canonical %v far from recompute %v", data+model, rd+rm)
	}
	// Pure function of the multiset: shuffled stats yield identical bits.
	stats := db.AppendLineStats(nil)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 5; trial++ {
		rng.Shuffle(len(stats), func(i, j int) { stats[i], stats[j] = stats[j], stats[i] })
		d2, m2 := CanonicalDL(db.st, db.CoreCodeLen, stats)
		if math.Float64bits(d2) != math.Float64bits(data) || math.Float64bits(m2) != math.Float64bits(model) {
			t.Fatalf("trial %d: canonical DL depends on input order", trial)
		}
	}
}

func TestNormalizeLineStatsFoldsDuplicates(t *testing.T) {
	stats := []LineStat{
		{Core: 2, Leaf: []graph.AttrID{1}, FL: 3},
		{Core: 1, Leaf: []graph.AttrID{0, 2}, FL: 1},
		{Core: 2, Leaf: []graph.AttrID{1}, FL: 4},
		{Core: 1, Leaf: []graph.AttrID{0}, FL: 2},
	}
	out := NormalizeLineStats(stats)
	if len(out) != 3 {
		t.Fatalf("len = %d, want 3", len(out))
	}
	// The input must survive untouched: canonical computations are chained
	// over the same slice (CanonicalDL then CanonicalCondEntropy).
	if len(stats) != 4 || stats[0].Core != 2 || stats[0].FL != 3 || stats[2].FL != 4 {
		t.Fatalf("input slice mutated: %+v", stats)
	}
	if out[0].Core != 1 || len(out[0].Leaf) != 1 || out[0].FL != 2 {
		t.Fatalf("out[0] = %+v", out[0])
	}
	if out[1].Core != 1 || len(out[1].Leaf) != 2 {
		t.Fatalf("out[1] = %+v", out[1])
	}
	if out[2].Core != 2 || out[2].FL != 7 {
		t.Fatalf("duplicate not folded: %+v", out[2])
	}
}

// remapShard extracts the shard-job view of verts: per-local-vertex attrs
// (global ids) and local adjacency — exactly what the distributed miner
// ships to a worker.
func remapShard(g *graph.Graph, verts []graph.VertexID) (attrs [][]graph.AttrID, adj [][]graph.VertexID) {
	local := make(map[graph.VertexID]graph.VertexID, len(verts))
	for li, gv := range verts {
		local[gv] = graph.VertexID(li)
	}
	attrs = make([][]graph.AttrID, len(verts))
	adj = make([][]graph.VertexID, len(verts))
	for li, gv := range verts {
		attrs[li] = append([]graph.AttrID(nil), g.Attrs(gv)...)
		for _, u := range g.Neighbors(gv) {
			adj[li] = append(adj[li], local[u])
		}
	}
	return attrs, adj
}

// shardDB builds the group DB of verts from its shard-job rows, priced
// against st, as the component miner does.
func shardDB(g *graph.Graph, st *mdl.StandardTable, verts []graph.VertexID) *DB {
	attrs, adj := remapShard(g, verts)
	return FromShardData(st, g.NumAttrValues(), attrs, adj)
}

// groupDB builds the group DB of verts as its shard job ships it: values
// renumbered in the order of their global ids and priced by the group's
// own standard table, its value counts over the graph's N.
func groupDB(g *graph.Graph, verts []graph.VertexID) *DB {
	st, nA, attrs, adj := groupRows(g, verts)
	return FromShardData(st, nA, attrs, adj)
}

// TestFromGraphShardIdentityMatchesFromGraph pins the group constructor
// to the whole-graph one on the identity shard: over every vertex's rows,
// against the group table rebuilt from the rows' value counts and N,
// FromShardData builds FromGraph's lines and prices them to the same bits.
func TestFromGraphShardIdentityMatchesFromGraph(t *testing.T) {
	g := islands(t)
	whole := FromGraph(g)
	verts := make([]graph.VertexID, g.NumVertices())
	for v := range verts {
		verts[v] = graph.VertexID(v)
	}
	got := groupDB(g, verts)
	if got.numLines != whole.numLines {
		t.Fatalf("line counts differ: %d vs %d", got.numLines, whole.numLines)
	}
	if math.Float64bits(got.BaselineDL()) != math.Float64bits(whole.BaselineDL()) {
		t.Fatalf("baseline %v != whole-graph baseline %v", got.BaselineDL(), whole.BaselineDL())
	}
	if !reflect.DeepEqual(got.AppendLineStats(nil), whole.AppendLineStats(nil)) {
		t.Fatal("line stats differ")
	}
	gi, gm := canonicalDLOf(got)
	wi, wm := canonicalDLOf(whole)
	if math.Float64bits(gi) != math.Float64bits(wi) || math.Float64bits(gm) != math.Float64bits(wm) {
		t.Fatalf("canonical DLs differ: (%v,%v) vs (%v,%v)", gi, gm, wi, wm)
	}
}

// TestFromShardDataMatchesFromGraphShard checks each attribute-closed
// component group on its own: the group built from its shipped rows holds
// exactly the whole graph's lines whose coreset value occurs in the group,
// and prices its baseline to the same bits whether it is built in global
// ids against the global table or as the shard job ships it, in local ids
// against the group's own table.
func TestFromShardDataMatchesFromGraphShard(t *testing.T) {
	g := islands(t)
	st := mdl.NewStandardTable(g)
	whole := FromGraph(g).AppendLineStats(nil)
	for _, verts := range [][]graph.VertexID{
		{0, 1, 2},       // triangle component
		{3, 4},          // edge component
		{0, 1, 2, 3, 4}, // whole graph
	} {
		inShard := make(map[CoresetID]bool)
		for _, v := range verts {
			for _, a := range g.Attrs(v) {
				inShard[CoresetID(a)] = true
			}
		}
		var want []LineStat
		for _, s := range whole {
			if inShard[s.Core] {
				want = append(want, s)
			}
		}
		got := shardDB(g, st, verts)
		shipped := groupDB(g, verts)
		if !reflect.DeepEqual(NormalizeLineStats(got.AppendLineStats(nil)), NormalizeLineStats(want)) {
			t.Fatalf("verts %v: lines differ from the whole graph's lines of the shard", verts)
		}
		if got.numLines != len(want) {
			t.Fatalf("verts %v: line counts differ: %d vs %d", verts, got.numLines, len(want))
		}
		if math.Float64bits(got.BaselineDL()) != math.Float64bits(shipped.BaselineDL()) {
			t.Fatalf("verts %v: baseline %v != shipped-table baseline %v", verts, got.BaselineDL(), shipped.BaselineDL())
		}
		gi, gm := canonicalDLOf(got)
		si, sm := canonicalDLOf(shipped)
		if math.Float64bits(gi) != math.Float64bits(si) || math.Float64bits(gm) != math.Float64bits(sm) {
			t.Fatalf("verts %v: canonical DLs differ: (%v,%v) vs (%v,%v)", verts, gi, gm, si, sm)
		}
	}
}

// TestMergeRunsMatchesCanonicalDL splits random line multisets into
// normalized runs — with coresets spread over several runs, equal lines in
// different runs and empty runs — and checks MergeRuns against
// NormalizeLineStats and CanonicalDL of the concatenation, bit for bit.
func TestMergeRunsMatchesCanonicalDL(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	b := graph.NewBuilder(1)
	for a := range 8 {
		_ = b.AddAttr(0, string(rune('a'+a)))
	}
	st := mdl.NewStandardTable(b.Build())
	coreCode := func(c CoresetID) float64 { return 1 + float64(c)/3 }
	for trial := range 500 {
		k := 1 + rng.Intn(4)
		runs := make([]Run, k)
		var all []LineStat
		for r := range runs {
			var lines []LineStat
			for range rng.Intn(9) {
				leaf := []graph.AttrID{graph.AttrID(rng.Intn(4))}
				if rng.Intn(2) == 0 {
					leaf = append(leaf, leaf[0]+1+graph.AttrID(rng.Intn(3)))
				}
				lines = append(lines, LineStat{Core: CoresetID(rng.Intn(5)), Leaf: leaf, FL: 1 + rng.Intn(6)})
			}
			all = append(all, lines...)
			lines = Normalized(lines)
			if !IsNormalized(lines) {
				t.Fatal("Normalized returned unnormalized lines")
			}
			runs[r] = Run{Lines: lines, Leaves: LeafOrder(lines)}
		}
		data, model, norm := MergeRuns(st, coreCode, runs)
		wd, wm := CanonicalDL(st, coreCode, all)
		if math.Float64bits(data) != math.Float64bits(wd) || math.Float64bits(model) != math.Float64bits(wm) {
			t.Fatalf("trial %d: MergeRuns DL (%v, %v), CanonicalDL (%v, %v)", trial, data, model, wd, wm)
		}
		if want := NormalizeLineStats(all); !reflect.DeepEqual(norm, want) && len(want) > 0 {
			t.Fatalf("trial %d: merged lines %v, want %v", trial, norm, want)
		}
	}
}

// TestLeafOrder pins LeafOrder: the first line of each distinct leafset,
// in ascending content order.
func TestLeafOrder(t *testing.T) {
	lines := []LineStat{
		{Core: 0, Leaf: []graph.AttrID{2}, FL: 1},
		{Core: 0, Leaf: []graph.AttrID{0, 1}, FL: 1},
		{Core: 1, Leaf: []graph.AttrID{0}, FL: 1},
		{Core: 1, Leaf: []graph.AttrID{2}, FL: 1},
		{Core: 2, Leaf: []graph.AttrID{0, 1}, FL: 1},
	}
	if got, want := LeafOrder(lines), []int32{2, 1, 0}; !slices.Equal(got, want) {
		t.Fatalf("LeafOrder = %v, want %v", got, want)
	}
}
