package cspm

import (
	"math"
	"reflect"
	"testing"

	"cspm/internal/dataset"
	"cspm/internal/graph"
	"cspm/internal/shardcache"
)

// TestCachedPoisonThenInvalidate pins both halves of the trust model: the
// cache is trusted verbatim (an entry tampered with under a live key DOES
// change the mined model — that is what makes it a cache, not a hint), and
// Remove is a sufficient invalidation (after dropping the poisoned key the
// re-mine is bit-identical to the uncached run again).
func TestCachedPoisonThenInvalidate(t *testing.T) {
	g := dataset.Islands(dataset.IslandsConfig{
		Seed: 7, Islands: 4, MinNodes: 20, MaxNodes: 50,
		AttrsPerIsland: 8, ExtraEdges: 1.0, AttrsPerNode: 3,
	})
	opts := Options{CollectStats: true}
	want := MineWithOptions(g, opts)

	cache := shardcache.New()
	MineShardedCached(g, opts, cache)

	keys := groupKeys(g, opts)
	k0, k1 := keys[0], keys[1]
	e1, ok := cache.Get(k1)
	if !ok {
		t.Fatal("warm cache missing group 1")
	}
	// Poison: file group 1's result under group 0's key.
	cache.Put(k0, e1)

	poisoned := MineShardedCached(g, opts, cache)
	if poisoned.CacheMisses != 0 {
		t.Fatalf("poisoned run re-mined %d groups; the poison was not consulted", poisoned.CacheMisses)
	}
	if reflect.DeepEqual(poisoned.Patterns, want.Patterns) && poisoned.FinalDL == want.FinalDL {
		t.Fatal("poisoned entry did not influence the model; cache is not actually being replayed")
	}

	// Invalidate the poisoned key: the next run re-mines exactly that group
	// and the model is bit-identical to Mine(g) again.
	if !cache.Remove(k0) {
		t.Fatal("Remove found nothing under the poisoned key")
	}
	healed := MineShardedCached(g, opts, cache)
	if healed.CacheMisses != 1 {
		t.Fatalf("healed run re-mined %d groups, want exactly the invalidated one", healed.CacheMisses)
	}
	if healed.BaselineDL != want.BaselineDL || healed.FinalDL != want.FinalDL ||
		healed.CondEntropy != want.CondEntropy || healed.Iterations != want.Iterations ||
		!reflect.DeepEqual(healed.Patterns, want.Patterns) {
		t.Fatal("model after invalidation is not bit-identical to Mine(g)")
	}
}

// TestCachedEvictionCounter pins Model.CacheEvictions: mining three graphs
// that share no group in turn, the third run drops the first graph's
// entries (used by neither it nor the run before it) and reports them.
func TestCachedEvictionCounter(t *testing.T) {
	var gs []*graph.Graph
	for seed := int64(5); seed < 8; seed++ {
		gs = append(gs, dataset.Islands(dataset.IslandsConfig{
			Seed: seed, Islands: 5, MinNodes: 10, MaxNodes: 20,
			AttrsPerIsland: 6, ExtraEdges: 1.0, AttrsPerNode: 2,
		}))
	}
	count := func(g *graph.Graph) int { return graph.AttrClosedComponents(g).Count }
	cache := shardcache.New()
	for i, g := range gs[:2] {
		if m := MineShardedCached(g, Options{}, cache); m.CacheEvictions != 0 {
			t.Fatalf("run %d evicted %d entries a run before it used", i, m.CacheEvictions)
		}
	}
	m := MineShardedCached(gs[2], Options{}, cache)
	if m.CacheEvictions != count(gs[0]) {
		t.Fatalf("third run evicted %d entries, want the first graph's %d groups", m.CacheEvictions, count(gs[0]))
	}
	if got, want := cache.Stats().Entries, count(gs[1])+count(gs[2]); got != want {
		t.Fatalf("cache holds %d entries, want the last two graphs' %d groups", got, want)
	}
}

// TestCachedStatsPropagation pins the PerIter plumbing: fresh groups carry
// per-iteration stats when requested, replayed groups contribute none, and
// disabling CollectStats suppresses PerIter without losing merge counts.
func TestCachedStatsPropagation(t *testing.T) {
	g := dataset.Islands(dataset.IslandsConfig{
		Seed: 2, Islands: 3, MinNodes: 20, MaxNodes: 40,
		AttrsPerIsland: 8, ExtraEdges: 1.2, AttrsPerNode: 3,
	})
	want := MineWithOptions(g, Options{CollectStats: true})

	cache := shardcache.New()
	cold := MineShardedCached(g, Options{CollectStats: true}, cache)
	if len(cold.PerIter) == 0 || cold.Iterations != want.Iterations {
		t.Fatalf("cold run stats: %d periter, %d iterations (want %d)",
			len(cold.PerIter), cold.Iterations, want.Iterations)
	}
	warm := MineShardedCached(g, Options{CollectStats: true}, cache)
	if len(warm.PerIter) != 0 {
		t.Fatalf("warm replay fabricated %d per-iteration stats", len(warm.PerIter))
	}
	if warm.Iterations != want.Iterations || warm.GainEvals != cold.GainEvals {
		t.Fatalf("warm replay lost diagnostics: iters %d (want %d), evals %d (want %d)",
			warm.Iterations, want.Iterations, warm.GainEvals, cold.GainEvals)
	}

	// Stats off: no PerIter even for fresh runs, but counts still recorded.
	quiet := MineShardedCached(g, Options{}, shardcache.New())
	if len(quiet.PerIter) != 0 {
		t.Fatalf("CollectStats=false produced %d per-iteration stats", len(quiet.PerIter))
	}
	if quiet.Iterations != want.Iterations {
		t.Fatalf("CollectStats=false lost the merge count: %d want %d", quiet.Iterations, want.Iterations)
	}
}

// TestCachedOptionsKeying pins that the search options are part of the
// cache key: entries mined under one variant, iteration cap, or ablation
// must never replay into a run with different options (Basic and Partial
// provably diverge on some graphs, and a capped run stores truncated
// results).
func TestCachedOptionsKeying(t *testing.T) {
	g := dataset.Islands(dataset.IslandsConfig{
		Seed: 11, Islands: 3, MinNodes: 20, MaxNodes: 40,
		AttrsPerIsland: 8, ExtraEdges: 1.2, AttrsPerNode: 3,
	})
	pairs := [][2]Options{
		{{Variant: Basic}, {Variant: Partial}},
		{{MaxIterations: 2}, {}},
		{{DisableModelCost: true}, {}},
	}
	for _, p := range pairs {
		cache := shardcache.New()
		MineShardedCached(g, p[0], cache)
		m := MineShardedCached(g, p[1], cache)
		if m.CacheHits != 0 {
			t.Errorf("options %+v replayed %d groups mined under %+v", p[1], m.CacheHits, p[0])
		}
		// Equal options must still hit, and the second run of p[1] must be
		// bit-identical to its uncached twin.
		warm := MineShardedCached(g, p[1], cache)
		if warm.CacheMisses != 0 {
			t.Errorf("options %+v missed its own entries", p[1])
		}
		want := MineWithOptions(g, p[1])
		if warm.FinalDL != want.FinalDL || !reflect.DeepEqual(warm.Patterns, want.Patterns) {
			t.Errorf("options %+v: cached model diverged from MineWithOptions", p[1])
		}
	}
}

// TestMineShardedCachedValidates pins the panic on invalid options; its
// error-returning twin is TestDistributedOptionsValidate.
func TestMineShardedCachedValidates(t *testing.T) {
	g := dataset.Islands(dataset.DefaultIslands())
	for _, opts := range []Options{
		{MaxIterations: -1},
		{Workers: -1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("MineShardedCached accepted invalid %+v", opts)
				}
			}()
			MineShardedCached(g, opts, shardcache.New())
		}()
	}
}

// TestOneValueCodeLenBits pins the pipeline's core code length to the
// database's in the one case where Len and SetLen differ: in a graph with a
// single attribute value its standard code is -log2(1) = -0, SetLen adds it
// to 0.0 and gets +0, and a pattern priced with the bare -0 would carry a
// -0 code length, printed as "-0.000".
func TestOneValueCodeLenBits(t *testing.T) {
	b := graph.NewBuilder(3)
	for v := range 3 {
		if err := b.AddAttr(graph.VertexID(v), "a"); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range [][2]graph.VertexID{{0, 1}, {1, 2}, {0, 2}} {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	for _, m := range []*Model{MineWithOptions(g, Options{}), MineShardedCached(g, Options{}, nil)} {
		if len(m.Patterns) != 1 || math.Float64bits(m.Patterns[0].CodeLen) != 0 {
			t.Fatalf("patterns %+v, want one of code length +0", m.Patterns)
		}
	}
}
