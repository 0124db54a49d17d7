package invdb

import "testing"

// TestSweepMergesMatchesEvalMerge checks SweepMerges against
// evalMergeScratch on the whole-graph DBs of the benchmark graphs — the
// small graph's takes the bitmap path, the mid archipelago's the
// sorted-slice path — along a bounded greedy search: for every
// active leafset p and partner lower bound lo ∈ {0, p+1}, a sweep with one
// partner skipped must report each other co-occurring partner q ≥ lo exactly
// once with the same MergeEval (==), and nothing else.
func TestSweepMergesMatchesEvalMerge(t *testing.T) {
	graphs := benchGraphs()
	for _, tc := range []struct {
		name      string
		bitmapped bool
		steps     int
	}{{"small", true, 12}, {"mid", false, 2}} {
		db := FromGraph(graphs[tc.name])
		if bitmapped := db.bmWords > 0; bitmapped != tc.bitmapped {
			t.Fatalf("%s: bitmap lines = %v, want %v", tc.name, bitmapped, tc.bitmapped)
		}
		sc, ref := NewEvalScratch(), NewEvalScratch()
		var evs []MergeEval
		swept, disjoint, cut := 0, 0, 0
		for step := 0; step < tc.steps; step++ {
			partners := make(map[[2]LeafsetID]bool)
			for _, pr := range coOccurringPairs(db) {
				partners[pr] = true
			}
			for _, p := range db.AppendActiveLeafsets(nil) {
				skip := LeafsetID(-1)
				for _, q := range db.LeafsetIDsOf(coresetIDsOf(db, p)[0]) {
					if q != p {
						skip = q
					}
				}
				for _, lo := range []LeafsetID{0, p + 1} {
					evs = db.SweepMerges(evs[:0], p, lo, skip, sc)
					seen := make(map[[2]LeafsetID]bool)
					for _, ev := range evs {
						pr := [2]LeafsetID{ev.X, ev.Y}
						q := ev.X + ev.Y - p
						if ev.X >= ev.Y || (ev.X != p && ev.Y != p) || q == skip || q < lo {
							t.Fatalf("sweep of %d from %d reported pair %v (skip %d)", p, lo, pr, skip)
						}
						if !partners[pr] || seen[pr] {
							t.Fatalf("sweep of %d reported %v: co-occurring %v, repeated %v", p, pr, partners[pr], seen[pr])
						}
						seen[pr] = true
						if want := db.evalMergeScratch(ev.X, ev.Y, ref); ev != want {
							t.Fatalf("%s step %d: sweep %+v != EvalMerge %+v", tc.name, step, ev, want)
						}
						if ev.CoOccurs == 0 {
							disjoint++
						}
						swept++
					}
					for pr := range partners {
						q := pr[0] + pr[1] - p
						if (pr[0] != p && pr[1] != p) || q == skip {
							continue
						}
						if q < lo {
							cut++
						} else if !seen[pr] {
							t.Fatalf("sweep of %d from %d missed partner pair %v", p, lo, pr)
						}
					}
				}
			}
			var best MergeEval
			for pr := range partners {
				if ev := db.evalMergeScratch(pr[0], pr[1], ref); ev.Gain > best.Gain ||
					(ev.Gain == best.Gain && ev.Gain > 0 && pairLess(ev, best)) {
					best = ev
				}
			}
			if best.Gain <= 0 {
				break
			}
			db.ApplyMerge(best.X, best.Y)
		}
		if swept == 0 || disjoint == 0 || cut == 0 {
			t.Fatalf("%s: %d sweep results, %d without a shared position, %d partners below the bound",
				tc.name, swept, disjoint, cut)
		}
	}
}

// pairLess orders evaluations by (X, Y), so the test's greedy choice does
// not depend on map order.
func pairLess(a, b MergeEval) bool {
	return a.X < b.X || (a.X == b.X && a.Y < b.Y)
}
