package cspm

import (
	"maps"
	"path/filepath"
	"sync"
	"testing"

	"cspm/internal/graph"
	"cspm/internal/invdb"
	"cspm/internal/shardcache"
	"cspm/internal/shardrpc"
)

// countOrders swaps newOrder for a wrapper that counts the builds of each
// entry until the test ends, and returns the counts' reader.
func countOrders(t *testing.T) func() map[*shardcache.Entry]int {
	t.Helper()
	var mu sync.Mutex
	builds := make(map[*shardcache.Entry]int)
	build := newOrder
	newOrder = func(e *shardcache.Entry, coreValues func(invdb.CoresetID) []graph.AttrID, coreCode func(invdb.CoresetID) float64) *shardcache.Order {
		mu.Lock()
		builds[e]++
		mu.Unlock()
		return build(e, coreValues, coreCode)
	}
	t.Cleanup(func() { newOrder = build })
	return func() map[*shardcache.Entry]int {
		mu.Lock()
		defer mu.Unlock()
		out := make(map[*shardcache.Entry]int, len(builds))
		for e, n := range builds {
			out[e] = n
		}
		return out
	}
}

// TestStoreHookStoresAndOrdersEachGroup pins the executors' store hook on
// the mid archipelago with a dir-backed cache, mined by mineLocal (Workers
// 4) and over a loopback transport whose group-1 job always fails, so the
// local fallback stores too. When the executor returns, before the merge,
// every group's entry is resident and its merge order built exactly once;
// the merge builds no other order; the directory holds no blob until
// Persist; and the model is a cold MineShardedCached's, bit for bit.
func TestStoreHookStoresAndOrdersEachGroup(t *testing.T) {
	if testing.Short() {
		t.Skip("mines the mid archipelago")
	}
	g := mergeGraphs()["mid"]
	opts := Options{Workers: 4}
	want := MineShardedCached(g, opts, nil)
	keys := groupKeys(g, opts)

	failGroup1 := func(jobID uint64, _ int) shardrpc.Fault {
		// The low word of a job id is its group index.
		if jobID&0xffffffff == 1 {
			return shardrpc.FaultError
		}
		return shardrpc.FaultNone
	}
	ways := []struct {
		name string
		exec func(t *testing.T) groupExecutor
	}{
		{"local", func(*testing.T) groupExecutor { return opts.mineLocal }},
		{"loopback-fallback", func(t *testing.T) groupExecutor {
			ch := shardrpc.NewChaos(shardrpc.NewLoopback(ExecuteShardJob, 2), failGroup1, 0)
			t.Cleanup(func() { ch.Close() })
			return DistributedOptions{Options: opts, Transport: ch}.mineRemote
		}},
	}
	for _, way := range ways {
		t.Run(way.name, func(t *testing.T) {
			dir := t.TempDir()
			cache, err := shardcache.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			builds := countOrders(t)
			inner := way.exec(t)
			var atBarrier map[*shardcache.Entry]int
			exec := func(jobs []shardrpc.Job, store storeFunc, times []mineTime, m *Model) error {
				err := inner(jobs, store, times, m)
				atBarrier = builds()
				return err
			}
			got, err := mineGroups(g, opts, cache, exec, nil)
			if err != nil {
				t.Fatal(err)
			}
			if got.CacheMisses != len(keys) {
				t.Fatalf("%d misses, want every one of %d groups dirty", got.CacheMisses, len(keys))
			}
			if way.name != "local" && got.LocalFallbacks != 1 {
				t.Fatalf("%d local fallbacks, want 1", got.LocalFallbacks)
			}
			blobs := func() int {
				t.Helper()
				names, err := filepath.Glob(filepath.Join(dir, "*.gob"))
				if err != nil {
					t.Fatal(err)
				}
				return len(names)
			}
			if n := blobs(); n != 0 {
				t.Fatalf("the run wrote %d blobs before Persist", n)
			}
			if len(atBarrier) != len(keys) {
				t.Fatalf("orders built for %d entries by the executor, want one per group (%d)", len(atBarrier), len(keys))
			}
			if !maps.Equal(builds(), atBarrier) {
				t.Fatal("the merge built orders")
			}
			for gi, k := range keys {
				// With no blob on disk, a hit is a resident entry.
				e, ok := cache.Get(k)
				if !ok {
					t.Fatalf("group %d not resident after the run", gi)
				}
				if n := atBarrier[e]; n != 1 {
					t.Fatalf("group %d: order of the stored entry built %d times, want 1", gi, n)
				}
			}
			sameModelBits(t, way.name, got, want)
			if _, err := cache.Persist(); err != nil {
				t.Fatal(err)
			}
			if n := blobs(); n != len(keys) {
				t.Fatalf("Persist wrote %d blobs, want %d", n, len(keys))
			}
		})
	}
}
