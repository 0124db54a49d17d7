package invdb

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"cspm/internal/graph"
	"cspm/internal/intset"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// coresetIDsOf returns the coresets under which leafset ls owns lines,
// sorted ascending.
func coresetIDsOf(db *DB, ls LeafsetID) []CoresetID {
	if ix := db.leafIndex(ls); ix != nil {
		return ix.ids
	}
	return nil
}

// canonicalDLOf prices the DB's current lines in the canonical order.
func canonicalDLOf(db *DB) (data, model float64) {
	return CanonicalDL(db.st, db.CoreCodeLen, db.AppendLineStats(nil))
}

// condEntropyOf computes H(Y|X) (Eq. 7) over a line multiset in the
// canonical order.
func condEntropyOf(stats []LineStat) float64 {
	return CanonicalCondEntropy(NormalizeLineStats(stats))
}

// fig1 builds the paper's running example. Vertex ids: v1..v5 → 0..4.
func fig1(t *testing.T) *graph.Graph {
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

func attr(t *testing.T, g *graph.Graph, name string) graph.AttrID {
	t.Helper()
	id, ok := g.Vocab().Lookup(name)
	if !ok {
		t.Fatalf("attribute %q not in vocab", name)
	}
	return id
}

// lineOf fetches the line for (core value name, single leaf value name).
func lineOf(t *testing.T, db *DB, g *graph.Graph, core, leaf string) *Line {
	t.Helper()
	c := CoresetID(attr(t, g, core))
	ls, ok := db.Leafsets().byKey[string(appendLeafsetKey(nil, []graph.AttrID{attr(t, g, leaf)}))]
	if !ok {
		return nil
	}
	return db.byCore[c].get(ls)
}

func TestFig1MappingTable(t *testing.T) {
	g := fig1(t)
	db := FromGraph(g)
	// Fig. 2(a): a → {v1,v2,v5}, b → {v4,v5}, c → {v2,v3}.
	want := map[string]intset.Set{
		"a": intset.New(0, 1, 4),
		"b": intset.New(3, 4),
		"c": intset.New(1, 2),
	}
	for name, pos := range want {
		got := db.corePos[CoresetID(attr(t, g, name))]
		if !got.Equal(pos) {
			t.Errorf("positions(%s) = %v, want %v", name, got, pos)
		}
	}
}

func TestFig1InitialLines(t *testing.T) {
	g := fig1(t)
	db := FromGraph(g)
	if db.numLines != 8 {
		t.Fatalf("numLines = %d, want 8", db.numLines)
	}
	// Manual expansion of Fig. 2(b)-style inverted database.
	want := map[[2]string]intset.Set{
		{"a", "a"}: intset.New(0, 1), // v1 (nbr v2), v2 (nbr v1)
		{"a", "b"}: intset.New(0, 4), // v1 (nbr v4), v5 (nbr v4)
		{"a", "c"}: intset.New(0, 4), // v1 (nbrs v2,v3), v5 (nbr v3)
		{"b", "a"}: intset.New(3),    // v4 (nbrs v1,v5)
		{"b", "b"}: intset.New(3, 4), // v4 (nbr v5), v5 (nbr v4)
		{"b", "c"}: intset.New(4),    // v5 (nbr v3)
		{"c", "a"}: intset.New(1, 2), // paper's highlighted record {{a},{c},{v2,v3}}
		{"c", "b"}: intset.New(2),    // v3 (nbr v5)
	}
	for key, pos := range want {
		ln := lineOf(t, db, g, key[0], key[1])
		if ln == nil {
			t.Errorf("line (core=%s, leaf=%s) missing", key[0], key[1])
			continue
		}
		if !ln.Pos.Equal(pos) {
			t.Errorf("line (core=%s, leaf=%s) positions = %v, want %v", key[0], key[1], ln.Pos, pos)
		}
	}
	// f_c = Σ fL per coreset (Eq. 8 note): a:6, b:4, c:3.
	for name, fc := range map[string]int{"a": 6, "b": 4, "c": 3} {
		if got := db.coreFreq[attr(t, g, name)]; got != fc {
			t.Errorf("coreFreq[%s] = %d, want %d", name, got, fc)
		}
	}
}

func TestFig1DLBookkeeping(t *testing.T) {
	g := fig1(t)
	db := FromGraph(g)
	data, model := db.recomputeDL()
	if !almost(data, db.dataDL) || !almost(model, db.modelDL) {
		t.Fatalf("incremental DL (%v,%v) != recomputed (%v,%v)", db.dataDL, db.modelDL, data, model)
	}
	if !almost(db.BaselineDL(), db.TotalDL()) {
		t.Fatal("baseline should equal total before merges")
	}
}

// TestFig4Merge replays the paper's worked merge of leafsets {b} and {c}
// (Fig. 4): totally merged under coreset {a} (case 2), one line totally
// merged under coreset {b} (case 3).
func TestFig4Merge(t *testing.T) {
	g := fig1(t)
	db := FromGraph(g)
	lsB := db.Leafsets().Single(attr(t, g, "b"))
	lsC := db.Leafsets().Single(attr(t, g, "c"))

	ev := db.EvalMerge(lsB, lsC)
	if ev.CoOccurs != 2 {
		t.Fatalf("CoOccurs = %d, want 2 (coresets a and b)", ev.CoOccurs)
	}
	// Data gain by hand: coreset a: fe 6→4, lines (2,2)→(merged 2);
	// coreset b: fe 4→3, lines (2,1)→(1,1).
	x6, x4, x3, x2 := 6*math.Log2(6), 8.0, 3*math.Log2(3), 2.0
	wantData := (x6 - x4) + (x2 - 2*x2) + (x4 - x3) + (0 - x2)
	if !almost(ev.DataGain, wantData) {
		t.Fatalf("DataGain = %v, want %v", ev.DataGain, wantData)
	}

	before := db.TotalDL()
	res := db.ApplyMerge(lsB, lsC)
	if !almost(res.Gain, before-db.TotalDL()) {
		t.Fatalf("reported gain %v != DL drop %v", res.Gain, before-db.TotalDL())
	}
	if !almost(res.Gain, ev.Gain) {
		t.Fatalf("EvalMerge gain %v != ApplyMerge gain %v", ev.Gain, res.Gain)
	}

	// Post-merge state per Fig. 4.
	lsBC := db.Leafsets().Union(lsB, lsC)
	a := CoresetID(attr(t, g, "a"))
	bCore := CoresetID(attr(t, g, "b"))
	if ln := db.byCore[a].get(lsBC); ln == nil || !ln.Pos.Equal(intset.New(0, 4)) {
		t.Errorf("({a},{b,c}) = %v, want positions {v1,v5}", ln)
	}
	if ln := db.byCore[a].get(lsB); ln != nil {
		t.Errorf("({a},{b}) should be totally merged, still has %v", ln.Pos)
	}
	if ln := db.byCore[a].get(lsC); ln != nil {
		t.Errorf("({a},{c}) should be totally merged, still has %v", ln.Pos)
	}
	if ln := db.byCore[bCore].get(lsBC); ln == nil || !ln.Pos.Equal(intset.New(4)) {
		t.Errorf("({b},{b,c}) = %v, want positions {v5}", ln)
	}
	if ln := db.byCore[bCore].get(lsB); ln == nil || !ln.Pos.Equal(intset.New(3)) {
		t.Errorf("({b},{b}) = %v, want positions {v4}", ln)
	}
	if ln := db.byCore[bCore].get(lsC); ln != nil {
		t.Errorf("({b},{c}) should be totally merged, still has %v", ln.Pos)
	}
	// Frequencies after: a: 4, b: 3, c: 3 (untouched).
	for name, fc := range map[string]int{"a": 4, "b": 3, "c": 3} {
		if got := db.coreFreq[attr(t, g, name)]; got != fc {
			t.Errorf("coreFreq[%s] = %d, want %d", name, got, fc)
		}
	}
	// Leafset {c} is gone everywhere; {b} survives; result reports that.
	if len(res.Total) != 1 || res.Total[0] != lsC {
		t.Errorf("Total = %v, want [{c}]", res.Total)
	}
	if len(res.Part) != 1 || res.Part[0] != lsB {
		t.Errorf("Part = %v, want [{b}]", res.Part)
	}

	checkConsistency(t, db)
}

// checkConsistency verifies the structural invariants of the DB, including
// the compact-index ones: sorted id slices parallel to the line slices, each
// line reachable from both of its indexes, and the dense leafset index in
// step with the active-leafset counter and AppendActiveLeafsets.
func checkConsistency(t *testing.T, db *DB) {
	t.Helper()
	data, model := db.recomputeDL()
	if !almost(data, db.dataDL) {
		t.Errorf("dataDL drifted: incremental %v, recomputed %v", db.dataDL, data)
	}
	if !almost(model, db.modelDL) {
		t.Errorf("modelDL drifted: incremental %v, recomputed %v", db.modelDL, model)
	}
	lines := 0
	for c := range db.byCore {
		ix := &db.byCore[c]
		checkIndex(t, db, ix)
		sum := 0
		for i, ln := range ix.lines {
			if ln.FL() == 0 {
				t.Errorf("empty line survived at coreset %d", c)
			}
			if ln.Core != CoresetID(c) || ln.Leaf != ix.ids[i] {
				t.Errorf("index mismatch on line %+v", ln)
			}
			if db.leafIndex(ln.Leaf).get(CoresetID(c)) != ln {
				t.Errorf("byLeaf missing line (%d,%d)", c, ln.Leaf)
			}
			sum += ln.FL()
			lines++
		}
		if sum != db.coreFreq[c] {
			t.Errorf("coreFreq[%d] = %d, want Σ fL = %d", c, db.coreFreq[c], sum)
		}
	}
	if lines != db.numLines {
		t.Errorf("numLines = %d, want %d", db.numLines, lines)
	}
	var want []LeafsetID
	for ls, ix := range db.byLeaf {
		if ix == nil {
			continue
		}
		want = append(want, LeafsetID(ls))
		if ix.size() == 0 {
			t.Errorf("leafset %d has empty coreset index", ls)
		}
		checkIndex(t, db, ix)
		for i, ln := range ix.lines {
			if ln.Leaf != LeafsetID(ls) || ln.Core != ix.ids[i] || db.byCore[ln.Core].get(LeafsetID(ls)) != ln {
				t.Errorf("byCore missing line (%d,%d)", ix.ids[i], ls)
			}
		}
	}
	if db.active != len(want) || db.NumActiveLeafsets() != len(want) {
		t.Errorf("active leafsets = %d, want %d non-nil byLeaf slots", db.active, len(want))
	}
	if got := db.AppendActiveLeafsets(nil); !slices.Equal(got, want) {
		t.Errorf("AppendActiveLeafsets = %v, want the ascending non-nil slots %v", got, want)
	}
	if ix := db.leafIndex(LeafsetID(db.leafsets.Size())); ix != nil {
		t.Errorf("leafIndex past the interned ids = %v, want nil", ix)
	}
}

// checkIndex asserts the lineIndex invariants: ids strictly ascending,
// slices parallel, get(id) == lines[i] for every id and nil for ids that
// are absent (each gap between neighbours, and both ends). On a DB with
// bitmaps it also asserts every indexed line's bitmap is exactly the bitmap
// of its Pos, and every leafset index's footprint is exactly the OR of its
// lines' bitmaps; other indexes carry no footprint.
func checkIndex[K ~int32](t *testing.T, db *DB, ix *lineIndex[K]) {
	t.Helper()
	if len(ix.ids) != len(ix.lines) {
		t.Errorf("index size mismatch: ids=%d lines=%d", len(ix.ids), len(ix.lines))
		return
	}
	_, leafIndex := any(ix).(*lineIndex[CoresetID])
	if !leafIndex || db.bmWords == 0 {
		if ix.fp != nil {
			t.Errorf("index without footprint carries %#x", ix.fp)
		}
	} else {
		want := make(intset.Bitmap, db.bmWords)
		for _, ln := range ix.lines {
			want.Or(ln.bits)
		}
		if !slices.Equal(ix.fp, want) {
			t.Errorf("leafset footprint %#x, want OR of its lines %#x", ix.fp, want)
		}
	}
	if ix.get(-1) != nil {
		t.Errorf("get(-1) found a line")
	}
	for i, id := range ix.ids {
		if i > 0 && ix.ids[i-1] >= id {
			t.Errorf("index ids not strictly ascending at %d: %v", i, ix.ids)
		}
		if ix.get(id) != ix.lines[i] {
			t.Errorf("get(%d) disagrees with lines[%d]", id, i)
		}
		if (i == len(ix.ids)-1 || ix.ids[i+1] > id+1) && ix.get(id+1) != nil {
			t.Errorf("get(%d) found a line for an absent id", id+1)
		}
		if db.bmWords == 0 {
			continue
		}
		ln := ix.lines[i]
		want := make(intset.Bitmap, db.bmWords)
		want.Load(ln.Pos)
		if !slices.Equal(ln.bits, want) {
			t.Errorf("line (%d,%d) bitmap %#x, want %#x for Pos %v", ln.Core, ln.Leaf, ln.bits, want, ln.Pos)
		}
	}
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

// TestPropertyMergeGainExact drives random merge sequences on random graphs
// and checks, at every step, that (1) EvalMerge's predicted gain equals the
// realised gain, (2) the realised gain equals the from-scratch DL
// difference, and (3) all structural invariants hold.
func TestPropertyMergeGainExact(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 12+rng.Intn(12), 3+rng.Intn(4), 0.25, 0.45)
		db := FromGraph(g)
		for step := 0; step < 30; step++ {
			active := db.AppendActiveLeafsets(nil)
			if len(active) < 2 {
				break
			}
			x := active[rng.Intn(len(active))]
			y := active[rng.Intn(len(active))]
			if x == y {
				continue
			}
			ev := db.EvalMerge(x, y)
			if ev.CoOccurs == 0 {
				// Non-co-occurring pairs must be no-ops.
				res := db.ApplyMerge(x, y)
				if len(res.Shared) != 0 || res.Gain != 0 {
					t.Fatalf("seed %d: no-overlap merge changed state: %+v", seed, res)
				}
				continue
			}
			dataBefore, modelBefore := db.recomputeDL()
			res := db.ApplyMerge(x, y)
			dataAfter, modelAfter := db.recomputeDL()
			wantGain := (dataBefore + modelBefore) - (dataAfter + modelAfter)
			if !almost(res.Gain, wantGain) {
				t.Fatalf("seed %d step %d: ApplyMerge gain %v, recomputed %v", seed, step, res.Gain, wantGain)
			}
			if !almost(ev.Gain, res.Gain) {
				t.Fatalf("seed %d step %d: EvalMerge %v != ApplyMerge %v (x=%v y=%v)", seed, step, ev.Gain, res.Gain, db.leafsets.Values(x), db.leafsets.Values(y))
			}
			checkConsistency(t, db)
			if t.Failed() {
				t.FailNow()
			}
		}
	}
}

// TestSubsetUnionCollision exercises the z == y special case (x ⊂ y) that
// Eq. 9's derivation leaves implicit: build leafsets {a} and {a,b}, then
// merge them; the union is {a,b} itself.
func TestSubsetUnionCollision(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed * 31))
		g := randomGraph(rng, 14, 4, 0.3, 0.5)
		db := FromGraph(g)
		// Walk until some merge produces a multi-value leafset, then try to
		// merge one of its singletons into it.
		var multi LeafsetID = -1
		for step := 0; step < 20 && multi < 0; step++ {
			active := db.AppendActiveLeafsets(nil)
			for _, x := range active {
				for _, y := range active {
					if x >= y {
						continue
					}
					if ev := db.EvalMerge(x, y); ev.Gain > 0 {
						res := db.ApplyMerge(x, y)
						if len(db.leafsets.Values(res.New)) >= 2 && db.leafIndex(res.New).size() > 0 {
							multi = res.New
						}
						break
					}
				}
				if multi >= 0 {
					break
				}
			}
		}
		if multi < 0 {
			continue
		}
		sub := db.leafsets.Single(db.leafsets.Values(multi)[0])
		if db.leafIndex(sub).size() == 0 {
			continue
		}
		ev := db.EvalMerge(sub, multi)
		dataBefore, modelBefore := db.recomputeDL()
		res := db.ApplyMerge(sub, multi)
		dataAfter, modelAfter := db.recomputeDL()
		wantGain := (dataBefore + modelBefore) - (dataAfter + modelAfter)
		if ev.CoOccurs > 0 && !almost(ev.Gain, res.Gain) {
			t.Fatalf("seed %d: subset-case EvalMerge %v != ApplyMerge %v", seed, ev.Gain, res.Gain)
		}
		if !almost(res.Gain, wantGain) {
			t.Fatalf("seed %d: subset-case gain %v != recomputed %v", seed, res.Gain, wantGain)
		}
		if res.New != multi {
			t.Fatalf("seed %d: union of subset should be the superset", seed)
		}
		checkConsistency(t, db)
	}
}

func TestMergeSelfAndMissing(t *testing.T) {
	g := fig1(t)
	db := FromGraph(g)
	ls := db.Leafsets().Single(attr(t, g, "a"))
	if res := db.ApplyMerge(ls, ls); res.Gain != 0 || len(res.Shared) != 0 {
		t.Fatal("self-merge should be a no-op")
	}
	if ev := db.EvalMerge(ls, ls); ev.Gain != 0 {
		t.Fatal("self-eval should be zero")
	}
}

func TestFromGraphWithCoresets(t *testing.T) {
	g := fig1(t)
	a := attr(t, g, "a")
	c := attr(t, g, "c")
	// One multi-value coreset {a,c} firing at v2 (vertex 1), plus {a} at its
	// mapping positions.
	db, err := FromGraphWithCoresets(g,
		[][]graph.AttrID{{a, c}, {a}},
		[]intset.Set{intset.New(1), intset.New(0, 1, 4)})
	if err != nil {
		t.Fatal(err)
	}
	if db.NumCoresets() != 2 {
		t.Fatalf("NumCoresets = %d, want 2", db.NumCoresets())
	}
	// Coreset {a,c} at v2: neighbour v1 carries a → one line with leaf {a}.
	if fc := db.coreFreq[0]; fc != 1 {
		t.Fatalf("coreFreq[{a,c}] = %d, want 1", fc)
	}
	if db.CoreCodeLen(0) <= db.CoreCodeLen(1) {
		t.Fatal("two-value coreset should cost more than one-value")
	}
	checkConsistency(t, db)
}

func TestFromGraphWithCoresetsLengthMismatch(t *testing.T) {
	g := fig1(t)
	if _, err := FromGraphWithCoresets(g, [][]graph.AttrID{{0}}, nil); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
}

func TestLeafsetTable(t *testing.T) {
	lt := NewLeafsetTable()
	ab := lt.Intern([]graph.AttrID{1, 2})
	ab2 := lt.Intern([]graph.AttrID{1, 2})
	if ab != ab2 {
		t.Fatal("interning is not idempotent")
	}
	c := lt.Single(3)
	u := lt.Union(ab, c)
	want := []graph.AttrID{1, 2, 3}
	got := lt.Values(u)
	if len(got) != len(want) {
		t.Fatalf("Union values = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Union values = %v, want %v", got, want)
		}
	}
	if lt.Union(ab, c) != u {
		t.Fatal("repeated union should intern to same id")
	}
	if lt.Size() != 3 {
		t.Fatalf("Size = %d, want 3", lt.Size())
	}
}

func TestCondEntropyDecreasesWithMerges(t *testing.T) {
	g := fig1(t)
	db := FromGraph(g)
	before := condEntropyOf(db.AppendLineStats(nil))
	lsB := db.Leafsets().Single(attr(t, g, "b"))
	lsC := db.Leafsets().Single(attr(t, g, "c"))
	db.ApplyMerge(lsB, lsC)
	if after := condEntropyOf(db.AppendLineStats(nil)); after >= before {
		t.Fatalf("conditional entropy should drop: %v -> %v", before, after)
	}
}
