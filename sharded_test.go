// Sharded-mining contract tests. The component pipeline — entered through
// MineShardedCached or MineDistributed — promises models bit-identical to
// Mine(g) — same DLs to the last bit, same merge count, same pattern list —
// for any worker budget and any executor, because attribute-closed
// component groups make per-shard gains exactly the global ones and the
// canonical DL order makes reporting independent of merge interleaving
// (see DESIGN.md "Sharded mining").
package cspm_test

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"cspm"
	icspm "cspm/internal/cspm"
	"cspm/internal/dataset"
	"cspm/internal/experiments"
	"cspm/internal/shardcache"
	"cspm/internal/shardrpc"
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
// randomized multi-component graphs, the component pipeline equals Mine
// bit-for-bit at every worker budget.
func TestShardedEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		g, _ := cachedTestGraph(seed)
		want := cspm.MineWithOptions(g, cspm.Options{CollectStats: true})
		for _, workers := range []int{1, 2, 8} {
			got := cspm.MineShardedCached(g, cspm.Options{CollectStats: true, Workers: workers}, nil)
			name := fmt.Sprintf("seed%d/workers%d", seed, workers)
			assertShardedMatchesMine(t, name, got, want)
			if got.ShardCount < 2 {
				t.Fatalf("%s: expected a sharded run, got ShardCount=%d", name, got.ShardCount)
			}
		}
		// The Basic variant shards through the same machinery.
		wantBasic := cspm.MineWithOptions(g, cspm.Options{Variant: cspm.Basic, CollectStats: true})
		gotBasic := cspm.MineShardedCached(g, cspm.Options{Variant: cspm.Basic, CollectStats: true, Workers: 4}, nil)
		assertShardedMatchesMine(t, "basic", gotBasic, wantBasic)
		// An iteration cap applies per component group on every executor,
		// so a capped in-process run equals a capped run over a transport.
		capped := cspm.Options{CollectStats: true, Workers: 4, MaxIterations: 2}
		assertShardedMatchesMine(t, "capped", mineLoopback(t, g, capped),
			cspm.MineShardedCached(g, capped, nil))
	}
}

// mineLoopback mines g through MineDistributed over an in-process loopback
// worker pool, so every dirty group travels as an encoded shard job.
func mineLoopback(t *testing.T, g *cspm.Graph, opts cspm.Options) *cspm.Model {
	t.Helper()
	lb := shardrpc.NewLoopback(icspm.ExecuteShardJob, 2)
	defer lb.Close()
	m, err := cspm.MineDistributed(g, cspm.DistributedOptions{Options: opts, Transport: lb})
	if err != nil {
		t.Fatal(err)
	}
	if m.RemoteJobs != m.ShardCount || m.LocalFallbacks != 0 {
		t.Fatalf("loopback run: %d jobs, %d fallbacks for %d groups", m.RemoteJobs, m.LocalFallbacks, m.ShardCount)
	}
	return m
}

// TestShardedEquivalenceOneComponent pins the one-group case: a graph that
// does not decompose mines as a single shard run whose model — DLs,
// patterns, gain evaluations and the full per-iteration trace — is the
// whole-graph search's, through both entry points.
func TestShardedEquivalenceOneComponent(t *testing.T) {
	assertOneGroupMatchesMine(t, "usflight", dataset.USFlight(1), cspm.Options{CollectStats: true})
}

// TestShardedSingleShardDegenerates pins the smallest pipeline run to the
// whole-graph miner: the connected Mini graph at one worker is one group on
// one goroutine, and both entry points return MineWithOptions' model.
func TestShardedSingleShardDegenerates(t *testing.T) {
	assertOneGroupMatchesMine(t, "mini/workers1", experiments.MiniGraph(1), cspm.Options{CollectStats: true, Workers: 1})
}

// assertOneGroupMatchesMine mines a graph that does not decompose through
// MineShardedCached and MineDistributed and checks each against
// MineWithOptions under assertIdenticalModels, with equal GainEvals and
// ShardCount 1.
func assertOneGroupMatchesMine(t *testing.T, graph string, g *cspm.Graph, opts cspm.Options) {
	t.Helper()
	want := cspm.MineWithOptions(g, opts)
	cached := cspm.MineShardedCached(g, opts, nil)
	dist, err := cspm.MineDistributed(g, cspm.DistributedOptions{Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	for _, got := range []struct {
		entry string
		m     *cspm.Model
	}{{"cached", cached}, {"distributed", dist}} {
		name := graph + "/" + got.entry
		assertIdenticalModels(t, name, got.m, want)
		if got.m.GainEvals != want.GainEvals {
			t.Fatalf("%s: %d gain evaluations, whole-graph search %d", name, got.m.GainEvals, want.GainEvals)
		}
		if got.m.ShardCount != 1 {
			t.Fatalf("%s: ShardCount = %d, want 1", name, got.m.ShardCount)
		}
	}
}

// TestShardedEquivalenceNilCache pins the two entry points' shared rule for
// a missing cache and transport: MineShardedCached(g, o, nil) and
// MineDistributed(g, {Options: o}) run the same in-process pipeline, return
// identical models (per-iteration trace included) and report no cache
// traffic and no remote jobs.
func TestShardedEquivalenceNilCache(t *testing.T) {
	g, _ := cachedTestGraph(4)
	opts := cspm.Options{CollectStats: true}
	cached := cspm.MineShardedCached(g, opts, nil)
	dist, err := cspm.MineDistributed(g, cspm.DistributedOptions{Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	assertIdenticalModels(t, "nil cache", dist, cached)
	assertShardedMatchesMine(t, "nil cache vs Mine", cached, cspm.MineWithOptions(g, opts))
	for _, m := range []*cspm.Model{cached, dist} {
		if m.CacheHits != 0 || m.CacheMisses != 0 || m.RemoteJobs != 0 {
			t.Fatalf("uncached in-process run reported %d hits, %d misses, %d remote jobs",
				m.CacheHits, m.CacheMisses, m.RemoteJobs)
		}
		if len(m.PerIter) != m.Iterations {
			t.Fatalf("in-process run kept %d of %d iteration stats", len(m.PerIter), m.Iterations)
		}
	}
}

// TestShardedEquivalenceLoopback pins the transport executor: shard jobs
// over an explicit loopback pool give the in-process pipeline's DLs and
// patterns, one job per component group, and on the mid archipelago the
// very same cache entries, byte for byte.
func TestShardedEquivalenceLoopback(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		g, _ := cachedTestGraph(seed)
		opts := cspm.Options{CollectStats: true}
		got := mineLoopback(t, g, opts)
		assertShardedMatchesMine(t, fmt.Sprintf("seed%d", seed), got, cspm.MineShardedCached(g, opts, nil))
		if got.ShardCount < 2 {
			t.Fatalf("seed%d: expected a sharded run, got ShardCount=%d", seed, got.ShardCount)
		}
	}

	g := midIslands(0)
	dirA, dirB := t.TempDir(), t.TempDir()
	cacheA, err := cspm.OpenShardCache(dirA)
	if err != nil {
		t.Fatal(err)
	}
	cacheB, err := cspm.OpenShardCache(dirB)
	if err != nil {
		t.Fatal(err)
	}
	cspm.MineShardedCached(g, cspm.Options{}, cacheA)
	lb := shardrpc.NewLoopback(icspm.ExecuteShardJob, 4)
	defer lb.Close()
	if _, err := cspm.MineDistributed(g, cspm.DistributedOptions{Transport: lb, Cache: cacheB}); err != nil {
		t.Fatal(err)
	}
	// Each cache holds its keys as blob names; both must list the same.
	keysA, keysB := blobNames(t, dirA), blobNames(t, dirB)
	if len(keysA) != 12 || !slices.Equal(keysA, keysB) {
		t.Fatalf("local cache holds %d keys, remote cache %d, or they differ", len(keysA), len(keysB))
	}
	for _, name := range keysA {
		k := blobKey(t, name)
		ea, okA := cacheA.Get(k)
		eb, okB := cacheB.Get(k)
		if !okA || !okB {
			t.Fatalf("key %s: present locally %v, remotely %v", name, okA, okB)
		}
		ba, _, err := shardrpc.EncodeEntry(ea)
		if err != nil {
			t.Fatal(err)
		}
		bb, _, err := shardrpc.EncodeEntry(eb)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ba, bb) {
			t.Fatalf("key %s: local and remote entries encode differently", name)
		}
	}
}

// blobNames lists the shard-cache blob names under dir, sorted.
func blobNames(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.gob"))
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range names {
		names[i] = filepath.Base(n)
	}
	slices.Sort(names)
	return names
}

// blobKey parses a blob name, <key>.gob in hex, back into its cache key.
func blobKey(t *testing.T, name string) shardcache.Key {
	t.Helper()
	var k shardcache.Key
	h := strings.TrimSuffix(name, ".gob")
	if len(h) != hex.EncodedLen(len(k)) {
		t.Fatalf("blob %s: want %d hex digits", name, hex.EncodedLen(len(k)))
	}
	if _, err := hex.Decode(k[:], []byte(h)); err != nil {
		t.Fatalf("blob %s: %v", name, err)
	}
	return k
}

// TestMineShardedValidates pins both component-pipeline entry points'
// option checks: MineShardedCached panics, MineDistributed returns the
// error.
func TestMineShardedValidates(t *testing.T) {
	g := experiments.MiniGraph(1)
	for _, opts := range []cspm.Options{
		{Workers: -1},
		{MaxIterations: -1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("MineShardedCached accepted invalid %+v", opts)
				}
			}()
			cspm.MineShardedCached(g, opts, nil)
		}()
		if _, err := cspm.MineDistributed(g, cspm.DistributedOptions{Options: opts}); err == nil {
			t.Errorf("MineDistributed accepted invalid %+v", opts)
		}
	}
}
