package invdb

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"cspm/internal/epoch"
	"cspm/internal/graph"
)

// TestevalMergeScratchEquivalence drives random merge sequences and checks,
// for every candidate pair at every step, the three-way agreement the
// allocation-free rewrite must preserve: evalMergeScratch with a private
// arena ≡ EvalMerge on the DB-owned arena (bit-identical floats — they are
// the same code path), and both ≡ the realised ApplyMerge gain ≡ the
// from-scratch recomputeDL delta.
func TestEvalMergeScratchEquivalence(t *testing.T) {
	for seed := int64(0); seed < 15; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 12+rng.Intn(12), 3+rng.Intn(4), 0.25, 0.45)
		db := FromGraph(g)
		sc := NewEvalScratch()
		for step := 0; step < 20; step++ {
			active := db.AppendActiveLeafsets(nil)
			if len(active) < 2 {
				break
			}
			// Exhaustive pair sweep: scratch evaluation must agree with the
			// serial entry point everywhere, not just on applied merges.
			for _, x := range active {
				for _, y := range active {
					evS := db.evalMergeScratch(x, y, sc)
					evD := db.EvalMerge(x, y)
					if evS != evD {
						t.Fatalf("seed %d step %d: evalMergeScratch %+v != EvalMerge %+v", seed, step, evS, evD)
					}
				}
			}
			x := active[rng.Intn(len(active))]
			y := active[rng.Intn(len(active))]
			if x == y {
				continue
			}
			ev := db.evalMergeScratch(x, y, sc)
			dataBefore, modelBefore := db.recomputeDL()
			res := db.ApplyMerge(x, y)
			dataAfter, modelAfter := db.recomputeDL()
			wantGain := (dataBefore + modelBefore) - (dataAfter + modelAfter)
			if !almost(res.Gain, wantGain) {
				t.Fatalf("seed %d step %d: ApplyMerge gain %v != recomputeDL delta %v", seed, step, res.Gain, wantGain)
			}
			if ev.CoOccurs > 0 && !almost(ev.Gain, res.Gain) {
				t.Fatalf("seed %d step %d: evalMergeScratch %v != ApplyMerge %v", seed, step, ev.Gain, res.Gain)
			}
			checkConsistency(t, db)
			if t.Failed() {
				t.FailNow()
			}
		}
	}
}

// TestevalMergeScratchConcurrent runs many evaluators over one DB, each with
// its own arena, and checks every result is bit-identical to the serial one.
// Run with -race to validate the read-only contract of evalMergeScratch.
func TestEvalMergeScratchConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	g := randomGraph(rng, 40, 6, 0.15, 0.4)
	db := FromGraph(g)
	// Advance the database a few merges so union collisions exist.
	for step := 0; step < 5; step++ {
		active := db.AppendActiveLeafsets(nil)
		best, bx, by := 0.0, LeafsetID(-1), LeafsetID(-1)
		for _, x := range active {
			for _, y := range active {
				if x < y {
					if ev := db.EvalMerge(x, y); ev.Gain > best {
						best, bx, by = ev.Gain, x, y
					}
				}
			}
		}
		if bx < 0 {
			break
		}
		db.ApplyMerge(bx, by)
	}
	active := db.AppendActiveLeafsets(nil)
	type pair struct{ x, y LeafsetID }
	var pairs []pair
	want := make(map[pair]MergeEval)
	for _, x := range active {
		for _, y := range active {
			p := pair{x, y}
			pairs = append(pairs, p)
			want[p] = db.EvalMerge(x, y)
		}
	}
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sc := NewEvalScratch()
			for i := w; i < len(pairs); i += workers {
				p := pairs[i]
				if got := db.evalMergeScratch(p.x, p.y, sc); got != want[p] {
					errs <- "concurrent eval diverged from serial"
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestEvalMergeAllocationFree pins the tentpole property: steady-state gain
// evaluation performs zero heap allocations.
func TestEvalMergeAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomGraph(rng, 50, 7, 0.15, 0.4)
	db := FromGraph(g)
	active := db.AppendActiveLeafsets(nil)
	if len(active) < 4 {
		t.Skip("graph too sparse")
	}
	sc := NewEvalScratch()
	// Warm both arenas (buffers grow on first use).
	for _, x := range active {
		for _, y := range active {
			db.EvalMerge(x, y)
			db.evalMergeScratch(x, y, sc)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		for _, x := range active {
			for _, y := range active {
				db.evalMergeScratch(x, y, sc)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("evalMergeScratch allocated %v times per sweep, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(20, func() {
		for _, x := range active {
			for _, y := range active {
				db.EvalMerge(x, y)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("EvalMerge allocated %v times per sweep, want 0", allocs)
	}
}

// TestEvalMergeGallopWalk pins the skewed shared-coreset walk: a hub
// leafset owning lines under ~40 coresets against a leafset owning 2, which
// exceeds indexGallopRatio and takes the galloping cursor instead of the
// linear merge. The gallop walk must produce the same evaluation the
// realised merge and the from-scratch DL confirm.
func TestEvalMergeGallopWalk(t *testing.T) {
	const spokes = 40
	b := graph.NewBuilder(spokes + 2)
	// Hub vertex 0 carries "m"; spokes 1..40 carry a unique a_i and connect
	// to the hub, so leafset {m} owns one line per spoke coreset.
	if err := b.AddAttr(0, "m"); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= spokes; i++ {
		if err := b.AddAttr(graph.VertexID(i), string(rune('A'+(i-1)%26))+string(rune('a'+(i-1)/26))); err != nil {
			t.Fatal(err)
		}
		if err := b.AddEdge(0, graph.VertexID(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Vertex 41 carries "q" and connects to spokes 1 and 2 only, so leafset
	// {q} owns lines under exactly two coresets, both shared with {m}.
	if err := b.AddAttr(spokes+1, "q"); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(spokes+1, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(spokes+1, 2); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	db := FromGraph(g)

	var lsM, lsQ LeafsetID = -1, -1
	for _, ls := range db.AppendActiveLeafsets(nil) {
		vals := db.Leafsets().Values(ls)
		if len(vals) != 1 {
			continue
		}
		switch g.Vocab().Name(vals[0]) {
		case "m":
			lsM = ls
		case "q":
			lsQ = ls
		}
	}
	if lsM < 0 || lsQ < 0 {
		t.Fatal("hub graph did not produce the expected leafsets")
	}
	nm, nq := len(coresetIDsOf(db, lsM)), len(coresetIDsOf(db, lsQ))
	if nm <= indexGallopRatio*nq {
		t.Fatalf("index sizes %d vs %d do not exercise the gallop walk", nm, nq)
	}
	for _, pair := range [][2]LeafsetID{{lsQ, lsM}, {lsM, lsQ}} {
		ev := db.EvalMerge(pair[0], pair[1])
		if ev.CoOccurs != 2 {
			t.Fatalf("CoOccurs = %d, want 2 (spoke coresets 1 and 2)", ev.CoOccurs)
		}
	}
	ev := db.EvalMerge(lsQ, lsM)
	dataBefore, modelBefore := db.recomputeDL()
	res := db.ApplyMerge(lsQ, lsM)
	dataAfter, modelAfter := db.recomputeDL()
	wantGain := (dataBefore + modelBefore) - (dataAfter + modelAfter)
	if !almost(res.Gain, wantGain) {
		t.Fatalf("ApplyMerge gain %v != recomputeDL delta %v", res.Gain, wantGain)
	}
	if !almost(ev.Gain, res.Gain) {
		t.Fatalf("gallop-walk EvalMerge %v != ApplyMerge %v", ev.Gain, res.Gain)
	}
	checkConsistency(t, db)
}

// TestScratchEpochWraparound forces the generation counter across the
// uint32 boundary and checks dedup stays sound.
func TestScratchEpochWraparound(t *testing.T) {
	var es epoch.Set
	es.SetGeneration(math.MaxUint32 - 1)
	es.Bump()
	if !es.Mark(3) || es.Mark(3) {
		t.Fatal("mark broken just below wraparound")
	}
	es.Bump() // wraps to 0 → must clear and restart at 1
	if es.Generation() != 1 {
		t.Fatalf("generation after wraparound = %d, want 1", es.Generation())
	}
	if !es.Mark(3) || es.Mark(3) {
		t.Fatal("stale stamp visible after wraparound")
	}
}
