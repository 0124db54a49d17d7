package cspm

import (
	"testing"

	"cspm/internal/dataset"
	"cspm/internal/graph"
	"cspm/internal/invdb"
	"cspm/internal/mdl"
)

// TestRefreshSweepMatchesEvalMerge is the differential proof of the
// coreset-major refresh sweep: along full greedy searches of the serving
// benchmark's two graphs, every MergeEval a refresh produced must equal
// EvalMerge of the same pair on the same database, compared with ==. Each
// graph is searched whole and as its component-group shards, with one and
// with four workers, so the sweep runs on bitmap DBs (every shard, and the
// whole small graph) and on a sorted-slice DB (the whole mid archipelago,
// whose position universe is too large for bitmaps; invdb's
// TestSweepMergesMatchesEvalMerge pins both whole-graph kinds). The test
// fails if either kind yields no sweep result.
func TestRefreshSweepMatchesEvalMerge(t *testing.T) {
	mid := dataset.BenchIslands()
	mid.MinNodes, mid.MaxNodes = 250, 500
	small := dataset.DefaultIslands()
	small.Seed = 7
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"mid", dataset.IslandsWithEdgeSeeds(mid, nil)},
		{"small", dataset.Islands(small)},
	}
	type build struct {
		kind string // "bitmap" or "slice"
		db   func() *invdb.DB
	}
	checked := map[string]int{} // sweep results per DB kind
	for _, gr := range graphs {
		st := mdl.NewStandardTable(gr.g)
		whole := "bitmap"
		if gr.name == "mid" {
			whole = "slice"
		}
		builds := []build{{whole, func() *invdb.DB { return invdb.FromGraph(gr.g) }}}
		for _, verts := range graph.AttrClosedComponents(gr.g).Members() {
			job := buildShardJob(gr.g, st.Freqs(), Options{}, 0, verts)
			builds = append(builds, build{"bitmap", func() *invdb.DB {
				return invdb.FromShardData(st, job.NumAttrValues, job.Attrs, job.Adj)
			}})
		}
		for _, workers := range []int{1, 4} {
			for bi, b := range builds {
				db := b.db()
				opts := Options{Workers: workers}
				s := newSearchState()
				s.seed(db, opts)
				for {
					if _, ok := s.step(db, opts); !ok {
						break
					}
					for _, ev := range s.evs {
						if want := db.EvalMerge(ev.X, ev.Y); ev != want {
							t.Fatalf("%s build %d workers %d: sweep %+v != EvalMerge %+v",
								gr.name, bi, workers, ev, want)
						}
					}
					checked[b.kind] += len(s.evs)
				}
			}
		}
	}
	for _, kind := range []string{"bitmap", "slice"} {
		if checked[kind] == 0 {
			t.Errorf("the sweep never ran on a %s DB", kind)
		}
	}
	t.Logf("checked %d bitmap and %d sorted-slice sweep results", checked["bitmap"], checked["slice"])
}

// TestSweepAllPricesEachPairOnce checks the seed's and CSPM-Basic's pricing
// pass against brute force: at one and four workers, along a greedy search
// of the small islands graph, sweepAll must report every unordered pair of
// leafsets that share a coreset exactly once, with x < y and the EvalMerge
// result, and no other pair.
func TestSweepAllPricesEachPairOnce(t *testing.T) {
	cfg := dataset.DefaultIslands()
	cfg.Seed = 7
	g := dataset.Islands(cfg)
	for _, workers := range []int{1, 4} {
		db := invdb.FromGraph(g)
		opts := Options{Workers: workers}
		s := newSearchState()
		s.seed(db, opts)
		for merge := 0; merge < 40; merge++ {
			want := make(map[[2]invdb.LeafsetID]bool)
			for c := range db.NumCoresets() {
				ids := db.LeafsetIDsOf(invdb.CoresetID(c))
				for i, x := range ids {
					for _, y := range ids[i+1:] {
						want[[2]invdb.LeafsetID{x, y}] = true
					}
				}
			}
			got := make(map[[2]invdb.LeafsetID]bool)
			for _, ev := range s.sweepAll(db, opts) {
				pr := [2]invdb.LeafsetID{ev.X, ev.Y}
				if !want[pr] || got[pr] {
					t.Fatalf("workers %d merge %d: pair %v reported (co-occurring %v, repeated %v)",
						workers, merge, pr, want[pr], got[pr])
				}
				got[pr] = true
				if ref := db.EvalMerge(ev.X, ev.Y); ev != ref {
					t.Fatalf("workers %d merge %d: sweep %+v != EvalMerge %+v", workers, merge, ev, ref)
				}
			}
			if len(got) != len(want) || len(want) == 0 {
				t.Fatalf("workers %d merge %d: %d pairs reported, %d co-occur", workers, merge, len(got), len(want))
			}
			if _, ok := s.step(db, opts); !ok {
				t.Fatalf("workers %d: search ended after %d merges", workers, merge)
			}
		}
	}
}
