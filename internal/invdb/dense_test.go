package invdb

import (
	"math"
	"testing"

	"cspm/internal/dataset"
	"cspm/internal/graph"
	"cspm/internal/intset"
	"cspm/internal/mdl"
)

// benchGraphs are the repo benchmark's two served graphs: the mid
// archipelago (twelve islands of 250-500 vertices) and the small graph (six
// default islands, seed 7).
func benchGraphs() map[string]*graph.Graph {
	mid := dataset.BenchIslands()
	mid.MinNodes, mid.MaxNodes = 250, 500
	small := dataset.DefaultIslands()
	small.Seed = 7
	return map[string]*graph.Graph{
		"mid":   dataset.IslandsWithEdgeSeeds(mid, nil),
		"small": dataset.Islands(small),
	}
}

// shardDBs builds one shard DB per attribute-closed component group of g,
// priced against g's global standard table, as the component miner does.
func shardDBs(g *graph.Graph) []*DB {
	p := graph.AttrClosedComponents(g)
	groups := make([][]graph.VertexID, p.Count)
	for v, id := range p.Group {
		groups[id] = append(groups[id], graph.VertexID(v))
	}
	st := mdl.NewStandardTable(g)
	dbs := make([]*DB, len(groups))
	for i, verts := range groups {
		dbs[i] = shardDB(g, st, verts)
	}
	return dbs
}

// coOccurringPairs lists every leafset pair x < y sharing a coreset, in
// ascending (coreset, x, y) discovery order without duplicates.
func coOccurringPairs(db *DB) [][2]LeafsetID {
	seen := make(map[[2]LeafsetID]bool)
	var pairs [][2]LeafsetID
	for c := range db.byCore {
		ids := db.byCore[c].ids
		for i := range ids {
			for j := i + 1; j < len(ids); j++ {
				p := [2]LeafsetID{ids[i], ids[j]}
				if !seen[p] {
					seen[p] = true
					pairs = append(pairs, p)
				}
			}
		}
	}
	return pairs
}

// evalSlice evaluates the pair on the sorted-slice path by clearing the
// DB's bitmap width for the duration of the call.
func evalSlice(db *DB, x, y LeafsetID, sc *EvalScratch) MergeEval {
	w := db.bmWords
	db.bmWords = 0
	defer func() { db.bmWords = w }()
	return db.evalMergeScratch(x, y, sc)
}

// TestBitmapPathMatchesSlicePath is the bit-identity proof of the bitmap
// kernels: on every shard DB of both benchmark graphs, every co-occurring
// pair evaluates to the same MergeEval (==, no tolerance) on the bitmap and
// the sorted-slice path, at every step of a greedy search. The search runs
// to completion on the small graph and for a bounded prefix on the mid
// archipelago; after every ApplyMerge the consistency check asserts each
// line's bitmap equals the bitmap of its Pos.
func TestBitmapPathMatchesSlicePath(t *testing.T) {
	steps := map[string]int{"small": math.MaxInt, "mid": 25}
	if testing.Short() {
		steps = map[string]int{"small": 8, "mid": 2}
	}
	for name, g := range benchGraphs() {
		evals, fused := 0, 0
		for i, db := range shardDBs(g) {
			if db.bmWords == 0 {
				t.Fatalf("%s shard %d: took the sorted-slice path", name, i)
			}
			sc := NewEvalScratch()
			for step := 0; step < steps[name]; step++ {
				var best MergeEval
				for _, p := range coOccurringPairs(db) {
					dense := db.evalMergeScratch(p[0], p[1], sc)
					if slice := evalSlice(db, p[0], p[1], sc); dense != slice {
						t.Fatalf("%s shard %d step %d: bitmap %+v != slice %+v", name, i, step, dense, slice)
					}
					evals++
					if z, ok := db.lookupUnion(p[0], p[1], sc); ok && z != p[0] && z != p[1] {
						for _, e := range coresetIDsOf(db, z) {
							if db.byCore[e].get(p[0]) != nil && db.byCore[e].get(p[1]) != nil {
								fused++
							}
						}
					}
					if dense.Gain > best.Gain {
						best = dense
					}
				}
				if best.Gain <= 0 {
					break
				}
				db.ApplyMerge(best.X, best.Y)
				checkConsistency(t, db)
				if t.Failed() {
					t.FailNow()
				}
			}
		}
		// The fused |x∩y|, |(x∩y)\z| kernel runs where the union leafset
		// already owns a line under a shared coreset; the search must reach
		// such coresets for the proof to cover it. (On component shards x∩y
		// is empty there; TestUnionCollisionWithExistingLine pins the
		// overlapping case.)
		if fused == 0 {
			t.Fatalf("%s: %d evaluations, none ran the fused kernel", name, evals)
		}
	}
}

// TestFootprintPrefilterExact is the exactness proof of the footprint
// prefilter: on every shard DB of both benchmark graphs, at every step of a
// greedy search (to completion on the small graph, a bounded prefix on the
// mid archipelago), every co-occurring pair evaluates to the same MergeEval
// (==, no tolerance) through evalMergeScratch as through the unfiltered
// evalLines. A skipped pair never reaches the union lookup, so an untouched
// union buffer marks it; the filter must skip some pairs on each graph.
func TestFootprintPrefilterExact(t *testing.T) {
	steps := map[string]int{"small": math.MaxInt, "mid": 25}
	if testing.Short() {
		steps = map[string]int{"small": 8, "mid": 2}
	}
	for name, g := range benchGraphs() {
		evals, skipped := 0, 0
		for i, db := range shardDBs(g) {
			sc := NewEvalScratch()
			for step := 0; step < steps[name]; step++ {
				var best MergeEval
				for _, p := range coOccurringPairs(db) {
					sc.unionBuf = sc.unionBuf[:0]
					got := db.evalMergeScratch(p[0], p[1], sc)
					if len(sc.unionBuf) == 0 {
						skipped++
					}
					if want := db.evalLines(p[0], p[1], db.leafIndex(p[0]), db.leafIndex(p[1]), sc); got != want {
						t.Fatalf("%s shard %d step %d: prefiltered %+v != unfiltered %+v", name, i, step, got, want)
					}
					evals++
					if got.Gain > best.Gain {
						best = got
					}
				}
				if best.Gain <= 0 {
					break
				}
				db.ApplyMerge(best.X, best.Y)
				checkConsistency(t, db)
				if t.Failed() {
					t.FailNow()
				}
			}
		}
		if skipped == 0 {
			t.Fatalf("%s: the footprint test skipped none of %d evaluations", name, evals)
		}
		t.Logf("%s: footprint test skipped %d of %d evaluations", name, skipped, evals)
	}
}

func TestBitmapWordsBound(t *testing.T) {
	for _, tc := range []struct {
		maxPos uint32
		want   int
	}{
		{0, 1}, {63, 1}, {64, 2}, {511, 8}, {maxBitmapUniverse - 1, maxBitmapUniverse / 64}, {maxBitmapUniverse, 0},
	} {
		if got := bitmapWords([]intset.Set{intset.New(0), intset.New(tc.maxPos)}); got != tc.want {
			t.Errorf("bitmapWords(max position %d) = %d, want %d", tc.maxPos, got, tc.want)
		}
	}
	if got := bitmapWords([]intset.Set{nil, nil}); got != 0 {
		t.Errorf("bitmapWords of an empty universe = %d, want 0", got)
	}
}

// TestXLogXTable pins the table's contract: it spans every count up to the
// largest coreset frequency, and xlogx equals mdl.XLogX bit for bit inside
// the table and past its end.
func TestXLogXTable(t *testing.T) {
	db := shardDBs(benchGraphs()["small"])[0]
	maxFreq := 0
	for _, f := range db.coreFreq {
		maxFreq = max(maxFreq, f)
	}
	if len(db.xlx) != maxFreq+1 {
		t.Fatalf("table spans %d counts, want max f_c + 1 = %d", len(db.xlx), maxFreq+1)
	}
	check := func(n int) {
		if got, want := db.xlogx(n), mdl.XLogX(float64(n)); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("xlogx(%d) = %v, want %v", n, got, want)
		}
	}
	for n := 0; n < len(db.xlx)+256; n++ {
		check(n)
	}
	for _, n := range []int{1 << 20, 1<<31 - 1, 1 << 40} {
		check(n)
	}
}

// TestUnionCollisionWithExistingLine pins the merge case where the union
// leafset already owns a line under a shared coreset, so ApplyMerge grows
// that line in place: lines {a} {0,1,2,3}, {b} {1,2,3,5} and {a,b} {3,4}
// under coreset c. Both kernel paths must agree (|x∩y| = 3, |(x∩y)\z| = 2),
// the gain must match the from-scratch DL delta, and the grown line's
// bitmap must follow its positions.
func TestUnionCollisionWithExistingLine(t *testing.T) {
	g := fig1(t)
	a, b, c := attr(t, g, "a"), attr(t, g, "b"), attr(t, g, "c")
	content := make([][]graph.AttrID, g.NumAttrValues())
	corePos := make([]intset.Set, g.NumAttrValues())
	for v := range content {
		content[v] = []graph.AttrID{graph.AttrID(v)}
	}
	corePos[c] = intset.New(0, 1, 2, 3, 4, 5)
	db := newDB(mdl.NewStandardTable(g), content, corePos)
	lines := []struct {
		leaf []graph.AttrID
		pos  intset.Set
	}{
		{[]graph.AttrID{a}, intset.New(0, 1, 2, 3)},
		{[]graph.AttrID{b}, intset.New(1, 2, 3, 5)},
		{[]graph.AttrID{min(a, b), max(a, b)}, intset.New(3, 4)},
	}
	db.reserveBitmaps(len(lines))
	for _, ln := range lines {
		db.insertLine(&Line{Core: CoresetID(c), Leaf: db.leafsets.Intern(ln.leaf), Pos: ln.pos})
	}
	db.finish()
	if db.bmWords != 1 {
		t.Fatalf("bitmap width %d, want 1 word", db.bmWords)
	}
	x, y := db.leafsets.Single(a), db.leafsets.Single(b)
	sc := NewEvalScratch()
	ev := db.evalMergeScratch(x, y, sc)
	if slice := evalSlice(db, x, y, sc); ev != slice {
		t.Fatalf("bitmap %+v != slice %+v", ev, slice)
	}
	dataBefore, modelBefore := db.recomputeDL()
	res := db.ApplyMerge(x, y)
	dataAfter, modelAfter := db.recomputeDL()
	if want := (dataBefore + modelBefore) - (dataAfter + modelAfter); !almost(res.Gain, want) || !almost(ev.Gain, want) {
		t.Fatalf("eval gain %v, applied gain %v, recomputed delta %v", ev.Gain, res.Gain, want)
	}
	if got := db.byCore[c].get(res.New).Pos; !got.Equal(intset.New(1, 2, 3, 4)) {
		t.Fatalf("union line positions %v, want [1 2 3 4]", got)
	}
	checkConsistency(t, db)
}
