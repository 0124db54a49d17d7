// Sharded-mining contract tests. The component strategy promises models
// bit-identical to Mine(g) — same DLs to the last bit, same merge count,
// same pattern list — for any shard count, because attribute-closed
// component groups make per-shard gains exactly the global ones and the
// canonical DL order makes reporting independent of merge interleaving (see
// DESIGN.md "Sharded mining"). The edge-cut fallback promises a valid
// compressing model with exact baseline accounting, not bit-equality.
package cspm_test

import (
	"math"
	"reflect"
	"testing"

	"cspm"
	"cspm/internal/dataset"
	"cspm/internal/experiments"
)

// assertShardedMatchesMine checks the bit-identical subset of the model that
// is interleaving-independent: DLs, entropy, merge count, and patterns.
// (PerIter ordering and lazy-reevaluation counts legitimately depend on how
// shard merge sequences interleave, so they are compared only between
// sharded runs — see determinism_test.go.)
func assertShardedMatchesMine(t *testing.T, name string, got, want *cspm.Model) {
	t.Helper()
	if !sameBits(got.BaselineDL, want.BaselineDL) {
		t.Fatalf("%s: BaselineDL bits differ: %v vs %v", name, got.BaselineDL, want.BaselineDL)
	}
	if !sameBits(got.FinalDL, want.FinalDL) {
		t.Fatalf("%s: FinalDL bits differ: %v vs %v", name, got.FinalDL, want.FinalDL)
	}
	if !sameBits(got.CondEntropy, want.CondEntropy) {
		t.Fatalf("%s: CondEntropy bits differ: %v vs %v", name, got.CondEntropy, want.CondEntropy)
	}
	if got.Iterations != want.Iterations {
		t.Fatalf("%s: merge counts differ: %d vs %d", name, got.Iterations, want.Iterations)
	}
	if !reflect.DeepEqual(got.Patterns, want.Patterns) {
		t.Fatalf("%s: pattern lists differ (%d vs %d patterns)", name, len(got.Patterns), len(want.Patterns))
	}
}

// TestShardedEquivalence is the property test of the exact strategy: across
// randomized multi-component graphs, MineSharded equals Mine bit-for-bit at
// every shard count.
func TestShardedEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		cfg := dataset.IslandsConfig{
			Seed:     seed,
			Islands:  3 + int(seed)%4,
			MinNodes: 20, MaxNodes: 90,
			AttrsPerIsland: 8 + int(seed),
			ExtraEdges:     1.0,
			AttrsPerNode:   3,
		}
		g := dataset.Islands(cfg)
		want := cspm.MineWithOptions(g, cspm.Options{CollectStats: true})
		for _, shards := range []int{1, 2, 8} {
			got := cspm.MineSharded(g, cspm.Options{CollectStats: true, Shards: shards})
			name := "seed" + string(rune('0'+seed)) + "/shards" + string(rune('0'+shards))
			assertShardedMatchesMine(t, name, got, want)
			if shards > 1 && got.ShardCount < 2 {
				t.Fatalf("%s: expected a sharded run, got ShardCount=%d", name, got.ShardCount)
			}
		}
		// The Basic variant shards through the same machinery.
		wantBasic := cspm.MineWithOptions(g, cspm.Options{Variant: cspm.Basic, CollectStats: true})
		gotBasic := cspm.MineSharded(g, cspm.Options{Variant: cspm.Basic, CollectStats: true, Shards: 4})
		assertShardedMatchesMine(t, "basic", gotBasic, wantBasic)
		// An iteration cap applies per component group on every path, so a
		// capped MineSharded run equals the capped component pipeline.
		capped := cspm.Options{CollectStats: true, Shards: 4, MaxIterations: 2}
		assertShardedMatchesMine(t, "capped", cspm.MineSharded(g, capped),
			cspm.MineShardedCached(g, capped, nil))
	}
}

// TestShardedEdgeCut covers the fallback on a single entangled component:
// the baseline must still be exact (it is a pure function of the initial
// lines), the model must compress, and the refinement pass must be
// reported.
func TestShardedEdgeCut(t *testing.T) {
	g := dataset.USFlight(1)
	want := cspm.MineWithOptions(g, cspm.Options{CollectStats: true})
	got := cspm.MineSharded(g, cspm.Options{CollectStats: true, Shards: 4})
	if got.ShardCount != 4 {
		t.Fatalf("ShardCount = %d, want 4", got.ShardCount)
	}
	if !sameBits(got.BaselineDL, want.BaselineDL) {
		t.Fatalf("edge-cut BaselineDL %v != Mine's %v", got.BaselineDL, want.BaselineDL)
	}
	if got.FinalDL >= got.BaselineDL {
		t.Fatalf("edge-cut did not compress: %v >= %v", got.FinalDL, got.BaselineDL)
	}
	// Greedy paths may differ across the cut, but not wildly: the sharded
	// model must land within 2% of the monolithic one, baseline-relative.
	if rel := math.Abs(got.FinalDL-want.FinalDL) / want.BaselineDL; rel > 0.02 {
		t.Fatalf("edge-cut diverged by %.2f%% of baseline", 100*rel)
	}
	if got.RefinementGain < 0 {
		t.Fatalf("refinement increased DL by %v bits", -got.RefinementGain)
	}
	refined := 0
	for _, it := range got.PerIter {
		if it.Refinement {
			refined++
			if it.Shard != -1 {
				t.Fatalf("refinement iteration carries shard id %d", it.Shard)
			}
		}
	}
	if got.RefinementGain > 0 && refined == 0 {
		t.Fatal("refinement gain reported without refinement iterations")
	}
	// Forcing the strategy on a multi-component graph also works: the
	// cut simply never crosses a component.
	ig := dataset.Islands(dataset.DefaultIslands())
	forced := cspm.MineSharded(ig, cspm.Options{CollectStats: true, Shards: 4, ShardStrategy: cspm.ShardEdgeCut})
	if forced.FinalDL > forced.BaselineDL {
		t.Fatal("forced edge-cut expanded DL")
	}
}

// TestShardedSingleShardDegenerates pins the K=1 path to the unsharded
// miner on a connected graph.
func TestShardedSingleShardDegenerates(t *testing.T) {
	g := experiments.MiniGraph(1)
	want := cspm.MineWithOptions(g, cspm.Options{CollectStats: true})
	got := cspm.MineSharded(g, cspm.Options{CollectStats: true, Shards: 1})
	assertShardedMatchesMine(t, "mini/shards1", got, want)
	if got.ShardCount != 1 {
		t.Fatalf("ShardCount = %d, want 1", got.ShardCount)
	}
}

func TestMineShardedValidates(t *testing.T) {
	g := experiments.MiniGraph(1)
	for _, opts := range []cspm.Options{
		{Shards: -1},
		{ShardStrategy: cspm.ShardStrategy(99)},
		{ShardStrategy: cspm.ShardStrategy(-1)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("MineSharded accepted invalid %+v", opts)
				}
			}()
			cspm.MineSharded(g, opts)
		}()
	}
}
