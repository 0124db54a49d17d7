// Cached-mining contract tests. MineShardedCached promises the same
// bit-identical-to-Mine(g) contract as MineSharded for EVERY cache state —
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
// across seeds × shard counts, a cold run, a warm replay, and a re-run over
// a cache poisoned with another graph's entries are all bit-identical to
// Mine(g), and the hit/miss counters account for every component group.
func TestCachedEquivalence(t *testing.T) {
	fg, _ := cachedTestGraph(9)
	for seed := int64(1); seed <= 5; seed++ {
		g, islands := cachedTestGraph(seed)
		want := cspm.MineWithOptions(g, cspm.Options{CollectStats: true})
		for _, shards := range []int{1, 2, 8} {
			opts := cspm.Options{CollectStats: true, Shards: shards}
			cache := cspm.NewShardCache(0)
			name := "seed" + string(rune('0'+seed)) + "/shards" + string(rune('0'+shards))

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
			foreign := cspm.NewShardCache(0)
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

	cache := cspm.NewShardCache(0)
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

	c1, err := cspm.OpenShardCache(0, dir)
	if err != nil {
		t.Fatal(err)
	}
	cspm.MineShardedCached(g, cspm.Options{CollectStats: true}, c1)

	c2, err := cspm.OpenShardCache(0, dir)
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
	cache := cspm.NewShardCache(0)
	cold := cspm.MineShardedCached(g, cspm.Options{CollectStats: true}, cache)
	assertShardedMatchesMine(t, "usflight/cold", cold, want)
	warm := cspm.MineShardedCached(g, cspm.Options{CollectStats: true}, cache)
	assertShardedMatchesMine(t, "usflight/warm", warm, want)
	if warm.CacheHits != 1 || warm.ShardCount != 0 {
		t.Fatalf("warm single-component run: hits=%d shards=%d", warm.CacheHits, warm.ShardCount)
	}
}

// TestMinerFacade covers the public Miner bundle and nil-cache degradations.
func TestMinerFacade(t *testing.T) {
	if _, err := cspm.NewMiner(cspm.Options{Shards: -1}, nil); err == nil {
		t.Fatal("NewMiner accepted invalid options")
	}
	g, islands := cachedTestGraph(4)
	want := cspm.MineWithOptions(g, cspm.Options{CollectStats: true})
	miner, err := cspm.NewMiner(cspm.Options{CollectStats: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertShardedMatchesMine(t, "miner/cold", miner.Mine(g), want)
	warm := miner.Mine(g)
	assertShardedMatchesMine(t, "miner/warm", warm, want)
	if warm.CacheHits != islands {
		t.Fatalf("miner warm run hit %d groups, want %d", warm.CacheHits, islands)
	}
	if st := miner.Cache().Stats(); st.Hits == 0 || st.Entries != islands {
		t.Fatalf("miner cache stats %+v look wrong for %d islands", st, islands)
	}

	// nil cache mines through a private ephemeral cache: same bit-identical
	// contract (on a one-group graph too), every group a miss, nothing
	// reused.
	direct := cspm.MineShardedCached(g, cspm.Options{CollectStats: true}, nil)
	assertShardedMatchesMine(t, "nilcache", direct, want)
	if direct.CacheHits != 0 || direct.CacheMisses != islands {
		t.Fatalf("nil-cache run counted %d hits, %d misses (want 0, %d)",
			direct.CacheHits, direct.CacheMisses, islands)
	}
	connected := dataset.USFlight(1)
	wantConn := cspm.MineWithOptions(connected, cspm.Options{CollectStats: true})
	assertShardedMatchesMine(t, "nilcache/connected",
		cspm.MineShardedCached(connected, cspm.Options{CollectStats: true}, nil), wantConn)
}
