package cspm

import (
	"crypto/sha256"
	"encoding/hex"
	"maps"
	"reflect"
	"slices"
	"testing"

	"cspm/internal/dataset"
	"cspm/internal/graph"
	"cspm/internal/shardcache"
	"cspm/internal/shardrpc"
)

// keyIslands builds two islands: A, a triangle 0-1-2 carrying x and y, and
// B, a path carrying p, q and r. swapIslands puts B in the low vertex ids;
// swapXY interns y before x. A's values are interned before B's either way.
func keyIslands(t *testing.T, swapIslands, swapXY bool) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(7)
	offA, offB := graph.VertexID(0), graph.VertexID(3)
	if swapIslands {
		offA, offB = 4, 0
	}
	for _, e := range [][2]graph.VertexID{{offA, offA + 1}, {offA + 1, offA + 2}, {offA, offA + 2},
		{offB, offB + 1}, {offB + 1, offB + 2}, {offB + 2, offB + 3}} {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	attrs := []struct {
		v    graph.VertexID
		name string
	}{{offA, "x"}, {offA + 1, "y"}, {offA + 2, "x"}, {offA + 2, "y"},
		{offB, "p"}, {offB + 1, "q"}, {offB + 2, "r"}, {offB + 3, "q"}}
	if swapXY {
		attrs[0], attrs[1] = attrs[1], attrs[0]
	}
	for _, a := range attrs {
		if err := b.AddAttr(a.v, a.name); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

// groupKeys returns the cache key of each of g's groups under opts.
func groupKeys(g *graph.Graph, opts Options) []shardcache.Key {
	counts := countsDigest(g)
	var keys []shardcache.Key
	for _, job := range buildShardJobs(g, opts) {
		keys = append(keys, groupKey(counts, job))
	}
	return keys
}

// keysOf returns g's group keys under opts as a set.
func keysOf(t *testing.T, g *graph.Graph, opts Options) map[shardcache.Key]bool {
	t.Helper()
	set := make(map[shardcache.Key]bool)
	for _, k := range groupKeys(g, opts) {
		set[k] = true
	}
	return set
}

// cloneJob deep-copies j, so a test can mutate the copy's rows.
func cloneJob(j shardrpc.Job) shardrpc.Job {
	j.Values = slices.Clone(j.Values)
	j.Attrs = slices.Clone(j.Attrs)
	for i := range j.Attrs {
		j.Attrs[i] = slices.Clone(j.Attrs[i])
	}
	j.Adj = slices.Clone(j.Adj)
	for i := range j.Adj {
		j.Adj[i] = slices.Clone(j.Adj[i])
	}
	return j
}

// TestGroupKeyChangesWithEachInput pins that every input of a group's
// entry feeds its key: a row, an edge, N, a value's global id, each
// result-shaping option and the search version; and so do the graph's
// value counts, so that an edit elsewhere that keeps N still misses.
func TestGroupKeyChangesWithEachInput(t *testing.T) {
	g := keyIslands(t, false, false)
	counts := countsDigest(g)
	base := buildShardJobs(g, Options{})[0]
	ref := groupKey(counts, base)
	if len(base.Attrs) != 3 || len(base.Values) != 2 {
		t.Fatalf("group 0 is not the triangle: %+v", base)
	}
	for name, mut := range map[string]func(*shardrpc.Job){
		"row":              func(j *shardrpc.Job) { j.Attrs[0] = []graph.AttrID{1} },
		"edge":             func(j *shardrpc.Job) { j.Adj[0], j.Adj[2] = j.Adj[0][:1], j.Adj[2][1:] },
		"N":                func(j *shardrpc.Job) { j.Total++ },
		"global id":        func(j *shardrpc.Job) { j.Values[1] += 5 },
		"Variant":          func(j *shardrpc.Job) { j.Variant = int(Basic) },
		"MaxIterations":    func(j *shardrpc.Job) { j.MaxIterations = 3 },
		"DisableModelCost": func(j *shardrpc.Job) { j.DisableModelCost = true },
	} {
		j := cloneJob(base)
		mut(&j)
		if groupKey(counts, j) == ref {
			t.Errorf("%s: key unchanged", name)
		}
	}
	// Island B trades an occurrence of q for one of p: N stays, and so
	// does island A's job.
	traded, err := graph.Rebuild(g, []graph.Edit{{Op: graph.EditDelAttr, U: 4, Value: "q"}, {Op: graph.EditAddAttr, U: 5, Value: "p"}})
	if err != nil {
		t.Fatal(err)
	}
	if job := buildShardJobs(traded, Options{})[0]; !reflect.DeepEqual(job, base) {
		t.Fatalf("the trade in island B changed island A's job")
	}
	if groupKey(countsDigest(traded), base) == ref {
		t.Error("counts: key unchanged")
	}
	j := base
	j.ID, j.Workers = 0, 0
	sum := shardrpc.JobChecksum(j)
	if shardcache.Key(sha256.Sum256(slices.Concat([]byte{cachedSearchVersion - 1}, counts[:], sum[:]))) == ref {
		t.Error("the previous search version gives the same key")
	}
}

// TestGroupKeyGolden pins one group's key bytes. Persistent caches outlive
// the process that wrote them, so the key must depend on the job and the
// counts alone, never on process state such as gob's type ids.
func TestGroupKeyGolden(t *testing.T) {
	g := keyIslands(t, false, false)
	const want = "c80bf6bf25c885ca7ebf841ae0f41a99afa511f323927967c6811534b72aeebe"
	if got := hex.EncodeToString(groupKeys(g, Options{Workers: 3})[0][:]); got != want {
		t.Fatalf("key of the triangle group = %s, want %s", got, want)
	}
}

// TestGroupKeyIgnoresIDWorkersAndPlacement pins what stays out of the key:
// the job's ID and Workers, and where the group sits in the vertex-id
// range. A graph whose islands swapped places replays every group.
func TestGroupKeyIgnoresIDWorkersAndPlacement(t *testing.T) {
	g := keyIslands(t, false, false)
	j := buildShardJobs(g, Options{})[0]
	counts := countsDigest(g)
	ref := groupKey(counts, j)
	j.ID, j.Workers = 9, 3
	if groupKey(counts, j) != ref {
		t.Error("ID or Workers changed the key")
	}
	moved := keyIslands(t, true, false)
	if !maps.Equal(keysOf(t, g, Options{}), keysOf(t, moved, Options{Workers: 2})) {
		t.Fatal("moving the islands in the vertex-id range changed their keys")
	}
	cache := shardcache.New()
	MineShardedCached(g, Options{}, cache)
	m := MineShardedCached(moved, Options{}, cache)
	if m.CacheMisses != 0 {
		t.Fatalf("moved islands re-mined %d groups", m.CacheMisses)
	}
	assertSameModel(t, "moved islands", m, MineWithOptions(moved, Options{CollectStats: true}))
}

// TestGroupKeyInterningOrderMisses pins that a group whose two values swap
// interning order misses: its entry stores global ids, which the swapped
// vocabulary would misread. The other group keeps its ids and hits.
func TestGroupKeyInterningOrderMisses(t *testing.T) {
	g, swapped := keyIslands(t, false, false), keyIslands(t, false, true)
	if g.Vocab().Name(0) != "x" || swapped.Vocab().Name(0) != "y" {
		t.Fatal("the swap did not change the interning order")
	}
	cache := shardcache.New()
	MineShardedCached(g, Options{}, cache)
	m := MineShardedCached(swapped, Options{}, cache)
	if m.CacheMisses != 1 || m.CacheHits != 1 {
		t.Fatalf("swapped interning: %d hits, %d misses; want 1 and 1", m.CacheHits, m.CacheMisses)
	}
	assertSameModel(t, "swapped interning", m, MineWithOptions(swapped, Options{CollectStats: true}))
}

// TestGroupKeyRebuildWarmness pins the cache-friendliness of graph.Rebuild:
// edits confined to one island — including vertex adds and deletes that
// shift every global id behind them — leave the other island's key
// unchanged, as long as N does not move; deleting a vertex that carries
// values moves N and so every key.
func TestGroupKeyRebuildWarmness(t *testing.T) {
	// Island 1 = {0,1,2} with vertex 2 attributeless, island 2 = {3,4,5}.
	b := graph.NewBuilder(6)
	for _, e := range [][2]graph.VertexID{{0, 1}, {1, 2}, {3, 4}, {4, 5}} {
		_ = b.AddEdge(e[0], e[1])
	}
	for _, a := range []struct {
		v    graph.VertexID
		name string
	}{{0, "a"}, {1, "a"}, {3, "x"}, {4, "x"}, {5, "y"}} {
		_ = b.AddAttr(a.v, a.name)
	}
	g := b.Build()
	keyOf := func(g *graph.Graph, member graph.VertexID) shardcache.Key {
		t.Helper()
		return groupKeys(g, Options{})[graph.AttrClosedComponents(g).Group[member]]
	}
	island2 := keyOf(g, 3)

	// Grow island 1 by an attributeless vertex wired in, then delete another
	// island-1 vertex: island 2's ids shift from {3,4,5} to {2,3,4}.
	g2, err := graph.Rebuild(g, []graph.Edit{
		{Op: graph.EditAddVertex},
		{Op: graph.EditAddEdge, U: 6, V: 0},
		{Op: graph.EditDelVertex, U: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if keyOf(g2, 2) != island2 {
		t.Fatal("island 2's key changed under island-1-only edits")
	}
	g3, err := graph.Rebuild(g, []graph.Edit{{Op: graph.EditDelVertex, U: 0}})
	if err != nil {
		t.Fatal(err)
	}
	if keyOf(g3, 2) == island2 {
		t.Fatal("island 2's key unchanged after N dropped")
	}
}

// TestCachedCountShiftMissesEveryGroup moves one occurrence between two
// neighbours of one group, turning value a of vertex v into value b of
// its neighbour u. N stays and every other group's job stays the same,
// but the counts of a and b change, so every group misses, and the model
// is Mine's.
func TestCachedCountShiftMissesEveryGroup(t *testing.T) {
	g := dataset.Islands(dataset.DefaultIslands())
	groups := graph.AttrClosedComponents(g)
	var edit []graph.Edit
find:
	for v := range graph.VertexID(g.NumVertices()) {
		attrs := g.Attrs(v)
		for _, u := range g.Neighbors(v) {
			for _, b := range attrs[1:] {
				if !g.HasAttr(u, b) {
					edit = []graph.Edit{
						{Op: graph.EditDelAttr, U: v, Value: g.Vocab().Name(attrs[0])},
						{Op: graph.EditAddAttr, U: u, Value: g.Vocab().Name(b)},
					}
					break find
				}
			}
		}
	}
	if edit == nil {
		t.Fatal("no occurrence to move")
	}
	g2, err := graph.Rebuild(g, edit)
	if err != nil {
		t.Fatal(err)
	}
	if g2.AttrOccurrences() != g.AttrOccurrences() {
		t.Fatal("the move changed N")
	}
	jobs, jobs2 := buildShardJobs(g, Options{}), buildShardJobs(g2, Options{})
	same := 0
	for gi := range jobs {
		if reflect.DeepEqual(jobs[gi], jobs2[gi]) {
			same++
		}
	}
	if same != groups.Count-1 {
		t.Fatalf("%d of %d jobs unchanged, want all but the edited group's", same, groups.Count)
	}
	cache := shardcache.New()
	MineShardedCached(g, Options{}, cache)
	m := MineShardedCached(g2, Options{}, cache)
	if m.CacheMisses != groups.Count || m.CacheHits != 0 {
		t.Fatalf("%d hits, %d misses; want 0 and %d", m.CacheHits, m.CacheMisses, groups.Count)
	}
	assertSameModel(t, "moved value", m, MineWithOptions(g2, Options{CollectStats: true}))
}
