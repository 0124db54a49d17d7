package serve

// The dynamic equivalence suite: evolving vertex-set workloads generated by
// internal/dynamic are driven through SubmitMutations, and every published
// generation must be bit-identical to mining the reference graph for that
// step — across shard counts and with the cache warm or purged between
// steps. A separate test pins the incrementality contract: a warm-cache
// re-mine after island-local, frequency-neutral edits touches only the
// dirty island.

import (
	"fmt"
	"testing"

	icspm "cspm/internal/cspm"
	"cspm/internal/dynamic"
	"cspm/internal/graph"
)

// mutationsFromEdits converts graph edits into wire mutations — the inverse
// of edits(), used to replay internal/dynamic histories as a live workload.
func mutationsFromEdits(t *testing.T, es []graph.Edit) []Mutation {
	t.Helper()
	out := make([]Mutation, len(es))
	for i, e := range es {
		m := Mutation{U: e.U, V: e.V, Value: e.Value}
		switch e.Op {
		case graph.EditAddAttr:
			m.Op = OpAddAttr
		case graph.EditDelAttr:
			m.Op = OpDelAttr
		case graph.EditAddEdge:
			m.Op = OpAddEdge
		case graph.EditDelEdge:
			m.Op = OpDelEdge
		case graph.EditAddVertex:
			m.Op = OpAddVertex
		case graph.EditDelVertex:
			m.Op = OpDelVertex
		default:
			t.Fatalf("edit %d: unknown op %v", i, e.Op)
		}
		out[i] = m
	}
	return out
}

// TestDynamicEvolutionEquivalence is the grow/shrink exactness pin: a seeded
// evolving sequence (vertex adds and deletes included) is submitted batch by
// batch, and after every flush the served model must be bit-identical to
// Mine on that step's reference graph. The matrix crosses worker budgets
// (which bound how many groups re-mine at once) with cache reuse — a purged cache forces every group to re-mine cold, so a
// divergence between the cached and uncached paths cannot hide.
func TestDynamicEvolutionEquivalence(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		for _, purge := range []bool{false, true} {
			t.Run(fmt.Sprintf("workers=%d,purge=%v", workers, purge), func(t *testing.T) {
				ev, err := dynamic.RandomEvolution(7, dynamic.EvolutionOptions{
					InitialVertices: 8, Steps: 6, OpsPerStep: 4,
				})
				if err != nil {
					t.Fatal(err)
				}
				s := newTestServer(t, ev.Start, Options{Mining: icspm.Options{Workers: workers}})
				cache := s.Cache()
				ctx := ctxShort(t)
				for i, batch := range ev.Batches {
					if purge {
						cache.Purge()
					}
					if err := s.SubmitMutations(mutationsFromEdits(t, batch)); err != nil {
						t.Fatalf("batch %d: %v", i, err)
					}
					if err := s.Flush(ctx); err != nil {
						t.Fatalf("batch %d flush: %v", i, err)
					}
					snap := s.Snapshot()
					if snap.Generation != uint64(2+i) {
						t.Fatalf("after batch %d: generation = %d, want %d", i, snap.Generation, 2+i)
					}
					// The server rebuilds by chaining graph.Rebuild from
					// ev.Start — exactly how ev.States[i] was produced — so
					// interning matches and the models must be bit-identical.
					requireModelEqual(t, snap.Model, icspm.Mine(ev.States[i]))
					if snap.Graph.NumVertices() != ev.States[i].NumVertices() {
						t.Fatalf("after batch %d: |V| = %d, want %d",
							i, snap.Graph.NumVertices(), ev.States[i].NumVertices())
					}
				}
			})
		}
	}
}

// TestDynamicSnapshotReplayMatchesMaterialized replays an offline dynamic
// graph (fixed vertex set, churning attributes and edges) through the
// mutation log and compares each served model against mining the
// independently materialized snapshot. The two sides intern attributes in
// different orders (and the server's vocabulary keeps ids for values whose
// last occurrence was deleted), so the materialized graph is re-interned
// into the server's vocabulary order first — the same bridge checkpoint
// recovery uses — after which the models must be bit-identical.
func TestDynamicSnapshotReplayMatchesMaterialized(t *testing.T) {
	d := &dynamic.Graph{
		NumVertices: 5,
		Snapshots: []dynamic.Snapshot{
			{
				Attrs: map[graph.VertexID][]string{0: {"up"}, 1: {"up", "hot"}, 3: {"cold"}},
				Edges: [][2]graph.VertexID{{0, 1}, {1, 2}, {3, 4}},
			},
			{
				Attrs: map[graph.VertexID][]string{0: {"up"}, 1: {"hot"}, 3: {"cold"}, 4: {"cold"}},
				Edges: [][2]graph.VertexID{{0, 1}, {3, 4}, {2, 4}},
			},
			{
				Attrs: map[graph.VertexID][]string{1: {"down", "hot"}, 2: {"up"}, 4: {"cold"}},
				Edges: [][2]graph.VertexID{{1, 2}, {2, 4}},
			},
		},
	}
	batches, err := dynamic.DiffSnapshots(d)
	if err != nil {
		t.Fatal(err)
	}
	g0, err := d.Materialize(0)
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, g0, Options{})
	ctx := ctxShort(t)
	for step, batch := range batches {
		if err := s.SubmitMutations(mutationsFromEdits(t, batch)); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if err := s.Flush(ctx); err != nil {
			t.Fatalf("step %d flush: %v", step, err)
		}
		want, err := d.Materialize(step + 1)
		if err != nil {
			t.Fatal(err)
		}
		snap := s.Snapshot()
		wantModel := icspm.Mine(reintern(want, snap.Graph.Vocab().Names()))
		requireModelEqual(t, snap.Model, wantModel)
		if got, exp := snap.ModelSHA256, modelChecksum(wantModel); got != exp {
			t.Fatalf("step %d: published digest %s != digest of the equivalent model %s", step, got, exp)
		}
	}
}

// TestDynamicWarmCacheOnlyDirtyIslands pins incrementality under vertex
// churn: a frequency-neutral batch (an attributeless vertex wired into
// island 1 by an edge) leaves island 2's shard job, and so its cache key,
// unchanged, so the re-mine must replay island 2 from cache and miss only
// the dirty island.
func TestDynamicWarmCacheOnlyDirtyIslands(t *testing.T) {
	s := newTestServer(t, testGraph(t), Options{})
	ctx := ctxShort(t)

	// Generation 1 (initial mine) populates the cache: both islands miss.
	first := s.Snapshot().Model
	if first.CacheHits != 0 || first.CacheMisses != 2 {
		t.Fatalf("initial mine: hits=%d misses=%d, want 0/2", first.CacheHits, first.CacheMisses)
	}

	// Grow: one attributeless vertex (id 8) wired into island 1. No
	// attribute frequency changes, so island 2 must be a pure cache hit.
	if err := s.SubmitMutations([]Mutation{
		{Op: OpAddVertex},
		{Op: OpAddEdge, U: 8, V: 0},
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	grown := s.Snapshot().Model
	if grown.CacheHits != 1 || grown.CacheMisses != 1 {
		t.Fatalf("grow re-mine: hits=%d misses=%d, want 1/1 (island 2 warm, island 1 dirty)",
			grown.CacheHits, grown.CacheMisses)
	}

	// Shrink back to the original graph. Both original island keys are
	// still cached from generation 1, so nothing should re-mine at all.
	if err := s.SubmitMutations([]Mutation{
		{Op: OpDelEdge, U: 8, V: 0},
		{Op: OpDelVertex, U: 8},
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	shrunk := s.Snapshot().Model
	if shrunk.CacheHits != 2 || shrunk.CacheMisses != 0 {
		t.Fatalf("shrink re-mine: hits=%d misses=%d, want 2/0 (graph returned to a fully cached shape)",
			shrunk.CacheHits, shrunk.CacheMisses)
	}
	requireModelEqual(t, shrunk, icspm.Mine(s.Snapshot().Graph))
}
