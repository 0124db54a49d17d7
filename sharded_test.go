// Sharded-mining contract tests. MineSharded promises models bit-identical
// to Mine(g) — same DLs to the last bit, same merge count, same pattern
// list — for any shard count, because attribute-closed component groups
// make per-shard gains exactly the global ones and the canonical DL order
// makes reporting independent of merge interleaving (see DESIGN.md "Sharded
// mining"). A graph with one group mines unsharded.
package cspm_test

import (
	"fmt"
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

// TestShardedEquivalence is the property test of the sharded contract: across
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

// TestShardedEquivalenceOneComponent pins the one-group case: a graph
// that does not decompose mines the exact model unsharded, whatever the
// shard bound.
func TestShardedEquivalenceOneComponent(t *testing.T) {
	g := dataset.USFlight(1)
	want := cspm.MineWithOptions(g, cspm.Options{CollectStats: true})
	for _, shards := range []int{0, 4} {
		got := cspm.MineSharded(g, cspm.Options{CollectStats: true, Shards: shards})
		name := fmt.Sprintf("usflight/shards%d", shards)
		assertShardedMatchesMine(t, name, got, want)
		if got.ShardCount != 1 {
			t.Fatalf("%s: ShardCount = %d, want 1", name, got.ShardCount)
		}
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
