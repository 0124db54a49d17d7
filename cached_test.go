// Cached-mining contract tests. MineShardedCached promises the
// bit-identical-to-Mine(g) contract of the component pipeline for EVERY
// cache state —
// cold, partially warm, fully warm, disk-reloaded, or fed with entries from
// unrelated graphs — because replayed results are pure functions of the
// cached line multisets and dirty groups re-mine through the ordinary shard
// path (see DESIGN.md "Shard-result cache").
package cspm_test

import (
	"testing"

	"cspm"
	"cspm/internal/dataset"
)

func cachedTestGraph(seed int64) (*cspm.Graph, int) {
	cfg := dataset.IslandsConfig{
		Seed:     seed,
		Islands:  3 + int(seed)%4,
		MinNodes: 20, MaxNodes: 90,
		AttrsPerIsland: 8 + int(seed),
		ExtraEdges:     1.0,
		AttrsPerNode:   3,
	}
	return dataset.Islands(cfg), cfg.Islands
}

// TestCachedEquivalence is the property test of the acceptance criterion:
// across seeds × worker budgets, a cold run, a warm replay, and a re-run over
// a cache poisoned with another graph's entries are all bit-identical to
// Mine(g), and the hit/miss counters account for every component group.
func TestCachedEquivalence(t *testing.T) {
	fg, _ := cachedTestGraph(9)
	for seed := int64(1); seed <= 5; seed++ {
		g, islands := cachedTestGraph(seed)
		want := cspm.MineWithOptions(g, cspm.Options{CollectStats: true})
		for _, workers := range []int{1, 2, 8} {
			opts := cspm.Options{CollectStats: true, Workers: workers}
			cache := cspm.NewShardCache()
			name := "seed" + string(rune('0'+seed)) + "/workers" + string(rune('0'+workers))

			cold := cspm.MineShardedCached(g, opts, cache)
			assertShardedMatchesMine(t, name+"/cold", cold, want)
			if cold.CacheHits != 0 || cold.CacheMisses != islands {
				t.Fatalf("%s: cold run counted %d hits, %d misses (want 0, %d)",
					name, cold.CacheHits, cold.CacheMisses, islands)
			}
			if cold.ShardCount != islands {
				t.Fatalf("%s: cold run mined %d shards, want %d", name, cold.ShardCount, islands)
			}

			warm := cspm.MineShardedCached(g, opts, cache)
			assertShardedMatchesMine(t, name+"/warm", warm, want)
			if warm.CacheHits != islands || warm.CacheMisses != 0 {
				t.Fatalf("%s: warm run counted %d hits, %d misses (want %d, 0)",
					name, warm.CacheHits, warm.CacheMisses, islands)
			}
			if warm.ShardCount != 0 {
				t.Fatalf("%s: warm run still mined %d shards", name, warm.ShardCount)
			}

			// A cache holding only another graph's entries ("poisoned") must
			// be inert: no key can match, so every group re-mines. Built
			// fresh per subtest — using it on g fills it with g's entries.
			foreign := cspm.NewShardCache()
			cspm.MineShardedCached(fg, cspm.Options{}, foreign)
			poisoned := cspm.MineShardedCached(g, opts, foreign)
			assertShardedMatchesMine(t, name+"/poisoned", poisoned, want)
			if poisoned.CacheHits != 0 {
				t.Fatalf("%s: foreign cache produced %d hits", name, poisoned.CacheHits)
			}
		}
	}
}

// TestCachedIncrementalMutation pins the incremental contract: after
// rewiring the edges of one island, a warm cache re-mines exactly that
// island and the result is bit-identical to mining the mutated graph from
// scratch.
func TestCachedIncrementalMutation(t *testing.T) {
	cfg := dataset.IslandsConfig{
		Seed: 3, Islands: 6, MinNodes: 20, MaxNodes: 60,
		AttrsPerIsland: 10, ExtraEdges: 1.0, AttrsPerNode: 3,
	}
	base := dataset.IslandsWithEdgeSeeds(cfg, nil)
	mutated := dataset.IslandsWithEdgeSeeds(cfg, []int64{0, 0, 4242}) // rewire island 2 only

	cache := cspm.NewShardCache()
	opts := cspm.Options{CollectStats: true}
	cspm.MineShardedCached(base, opts, cache)

	want := cspm.MineWithOptions(mutated, opts)
	got := cspm.MineShardedCached(mutated, opts, cache)
	assertShardedMatchesMine(t, "mutated", got, want)
	if got.CacheMisses != 1 || got.CacheHits != cfg.Islands-1 {
		t.Fatalf("mutating one island cost %d misses, %d hits (want 1, %d)",
			got.CacheMisses, got.CacheHits, cfg.Islands-1)
	}

	// The unmutated graph is still fully warm: mutation added entries, it
	// did not invalidate clean ones.
	still := cspm.MineShardedCached(base, opts, cache)
	if still.CacheMisses != 0 {
		t.Fatalf("base graph re-mine missed %d groups after mutation run", still.CacheMisses)
	}
}

// TestCachedDiskRoundTrip pins the on-disk layer: a fresh Cache over the
// same directory serves every group from disk, bit-identically, across
// simulated process restarts.
func TestCachedDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	g, islands := cachedTestGraph(2)
	want := cspm.MineWithOptions(g, cspm.Options{CollectStats: true})

	c1, err := cspm.OpenShardCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	cspm.MineShardedCached(g, cspm.Options{CollectStats: true}, c1)
	// Mining fills memory only; Persist writes the blobs c2 reads.
	if _, err := c1.Persist(); err != nil {
		t.Fatal(err)
	}

	c2, err := cspm.OpenShardCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := cspm.MineShardedCached(g, cspm.Options{CollectStats: true}, c2)
	assertShardedMatchesMine(t, "disk", got, want)
	if got.CacheHits != islands || got.CacheMisses != 0 {
		t.Fatalf("disk-backed rerun counted %d hits, %d misses (want %d, 0)",
			got.CacheHits, got.CacheMisses, islands)
	}
}

// TestCachedSingleComponent pins the degenerate shape: a connected graph is
// one attribute-closed group, cached as a single unit, still bit-identical.
func TestCachedSingleComponent(t *testing.T) {
	g := dataset.USFlight(1)
	want := cspm.MineWithOptions(g, cspm.Options{CollectStats: true})
	cache := cspm.NewShardCache()
	cold := cspm.MineShardedCached(g, cspm.Options{CollectStats: true}, cache)
	assertShardedMatchesMine(t, "usflight/cold", cold, want)
	warm := cspm.MineShardedCached(g, cspm.Options{CollectStats: true}, cache)
	assertShardedMatchesMine(t, "usflight/warm", warm, want)
	if warm.CacheHits != 1 || warm.ShardCount != 0 {
		t.Fatalf("warm single-component run: hits=%d shards=%d", warm.CacheHits, warm.ShardCount)
	}
}
