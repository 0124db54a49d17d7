package serve

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	icspm "cspm/internal/cspm"
	"cspm/internal/graph"
	"cspm/internal/shardrpc"
)

// testGraph builds a small two-island graph, so edge edits inside one
// island leave the other island's shard-cache entry warm.
func testGraph(t testing.TB) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(8)
	addAttr := func(v graph.VertexID, vals ...string) {
		for _, val := range vals {
			if err := b.AddAttr(v, val); err != nil {
				t.Fatal(err)
			}
		}
	}
	addEdge := func(u, v graph.VertexID) {
		if err := b.AddEdge(u, v); err != nil {
			t.Fatal(err)
		}
	}
	// Island 1: vertices 0-3.
	addAttr(0, "smoker")
	addAttr(1, "smoker", "cancer")
	addAttr(2, "cancer")
	addAttr(3, "smoker")
	addEdge(0, 1)
	addEdge(1, 2)
	addEdge(2, 3)
	addEdge(0, 2)
	// Island 2: vertices 4-7.
	addAttr(4, "icde")
	addAttr(5, "icde", "sigmod")
	addAttr(6, "sigmod")
	addAttr(7, "icde")
	addEdge(4, 5)
	addEdge(5, 6)
	addEdge(6, 7)
	addEdge(4, 6)
	return b.Build()
}

func newTestServer(t *testing.T, g *graph.Graph, opts Options) *Server {
	t.Helper()
	s, err := NewServer(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// ctxShort is a generous bound for waits that should complete quickly.
func ctxShort(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// requireModelEqual asserts that the served model is bit-identical to want
// in everything the merge contract pins: patterns and canonical DLs.
func requireModelEqual(t *testing.T, got, want *icspm.Model) {
	t.Helper()
	if got.BaselineDL != want.BaselineDL {
		t.Errorf("BaselineDL = %v, want %v", got.BaselineDL, want.BaselineDL)
	}
	if got.FinalDL != want.FinalDL {
		t.Errorf("FinalDL = %v, want %v", got.FinalDL, want.FinalDL)
	}
	if got.CondEntropy != want.CondEntropy {
		t.Errorf("CondEntropy = %v, want %v", got.CondEntropy, want.CondEntropy)
	}
	if !reflect.DeepEqual(got.Patterns, want.Patterns) {
		t.Errorf("patterns diverge: got %d, want %d", len(got.Patterns), len(want.Patterns))
	}
}

func TestServerInitialSnapshotMatchesMine(t *testing.T) {
	g := testGraph(t)
	s := newTestServer(t, g, Options{})
	snap := s.Snapshot()
	if snap.Generation != 1 {
		t.Fatalf("initial generation = %d, want 1", snap.Generation)
	}
	requireModelEqual(t, snap.Model, icspm.Mine(g))
	if snap.Scorer == nil {
		t.Fatal("initial snapshot has no scorer")
	}
}

func TestRebuildAppliesEveryOp(t *testing.T) {
	g := testGraph(t)
	muts := []Mutation{
		{Op: OpAddAttr, U: 0, Value: "cancer"},
		{Op: OpDelAttr, U: 1, Value: "smoker"},
		{Op: OpAddEdge, U: 0, V: 3},
		{Op: OpDelEdge, U: 1, V: 2},
		{Op: OpAddAttr, U: 4, Value: "vldb"}, // brand-new value
		{Op: OpDelAttr, U: 2, Value: "never-seen"},
	}
	g2 := Rebuild(g, muts)
	if !g2.HasAttr(0, mustID(t, g2, "cancer")) {
		t.Error("add_attr did not attach cancer to vertex 0")
	}
	if g2.HasAttr(1, mustID(t, g2, "smoker")) {
		t.Error("del_attr did not detach smoker from vertex 1")
	}
	if !g2.HasEdge(0, 3) {
		t.Error("add_edge did not insert {0,3}")
	}
	if g2.HasEdge(1, 2) {
		t.Error("del_edge did not remove {1,2}")
	}
	if !g2.HasAttr(4, mustID(t, g2, "vldb")) {
		t.Error("add_attr did not attach the new value vldb")
	}
	if _, ok := g2.Vocab().Lookup("never-seen"); ok {
		t.Error("del_attr of a never-seen value interned it")
	}
	// Interning order: the old vocabulary must be a prefix of the new one,
	// so cached line stats (which store interned ids) stay id-stable.
	oldNames := g.Vocab().Names()
	newNames := g2.Vocab().Names()
	if len(newNames) < len(oldNames) {
		t.Fatalf("new vocab has %d names, old had %d", len(newNames), len(oldNames))
	}
	for i, name := range oldNames {
		if newNames[i] != name {
			t.Fatalf("vocab id %d renamed %q -> %q; cache replay would corrupt", i, name, newNames[i])
		}
	}
}

func TestRebuildWithoutMutationsIsIdentical(t *testing.T) {
	g := testGraph(t)
	g2 := Rebuild(g, nil)
	var a, b strings.Builder
	if err := graph.Write(&a, g); err != nil {
		t.Fatal(err)
	}
	if err := graph.Write(&b, g2); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("Rebuild with no mutations changed the graph's canonical serialization")
	}
}

func TestSubmitMutationsValidation(t *testing.T) {
	s := newTestServer(t, testGraph(t), Options{})
	cases := []struct {
		name string
		muts []Mutation
	}{
		{"empty batch", nil},
		{"unknown op", []Mutation{{Op: "rename", U: 0, Value: "x"}}},
		{"attr out of range", []Mutation{{Op: OpAddAttr, U: 99, Value: "x"}}},
		{"attr without value", []Mutation{{Op: OpAddAttr, U: 0}}},
		{"attr with second vertex", []Mutation{{Op: OpDelAttr, U: 0, V: 1, Value: "x"}}},
		{"edge out of range", []Mutation{{Op: OpAddEdge, U: 0, V: 99}}},
		{"self loop", []Mutation{{Op: OpAddEdge, U: 2, V: 2}}},
		{"edge with value", []Mutation{{Op: OpDelEdge, U: 0, V: 1, Value: "x"}}},
		{"valid then invalid rejects whole batch", []Mutation{
			{Op: OpAddAttr, U: 0, Value: "x"},
			{Op: OpAddEdge, U: 5, V: 5},
		}},
	}
	for _, tc := range cases {
		if err := s.SubmitMutations(tc.muts); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if n := s.PendingMutations(); n != 0 {
		t.Fatalf("rejected batches left %d pending mutations", n)
	}
}

// TestMutateFlushEquivalence is the end-to-end exactness pin: after every
// flush the served model must be bit-identical to Mine on the mutated
// graph, and edits confined to one island must replay the other island
// from cache.
func TestMutateFlushEquivalence(t *testing.T) {
	g := testGraph(t)
	s := newTestServer(t, g, Options{})
	ctx := ctxShort(t)

	batches := [][]Mutation{
		{{Op: OpAddEdge, U: 0, V: 3}, {Op: OpAddAttr, U: 3, Value: "cancer"}},
		{{Op: OpDelEdge, U: 0, V: 1}},
		{{Op: OpAddAttr, U: 6, Value: "icde"}, {Op: OpDelAttr, U: 7, Value: "icde"}},
	}
	want := g
	for i, batch := range batches {
		if err := s.SubmitMutations(batch); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		want = Rebuild(want, batch)
		snap := s.Snapshot()
		if snap.Generation != uint64(2+i) {
			t.Fatalf("after batch %d: generation = %d, want %d", i, snap.Generation, 2+i)
		}
		requireModelEqual(t, snap.Model, icspm.Mine(want))
	}
	if n := s.PendingMutations(); n != 0 {
		t.Fatalf("flushed server reports %d pending mutations", n)
	}

	// Batch 2 touched only island 1's edges (no attribute-frequency change),
	// so island 2's entry must have replayed from cache at least once.
	if hits := s.Cache().Stats().Hits; hits == 0 {
		t.Error("no cache hits across island-local edits; incremental re-mine is not incremental")
	}
}

func TestDebounceCoalescesBatches(t *testing.T) {
	s := newTestServer(t, testGraph(t), Options{Debounce: 300 * time.Millisecond})
	ctx := ctxShort(t)
	if err := s.SubmitMutations([]Mutation{{Op: OpAddEdge, U: 0, V: 3}}); err != nil {
		t.Fatal(err)
	}
	if err := s.SubmitMutations([]Mutation{{Op: OpAddAttr, U: 3, Value: "cancer"}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if gen := s.Snapshot().Generation; gen != 2 {
		t.Errorf("generation = %d, want 2 (both batches in one re-mine)", gen)
	}
	if m := s.Metrics(); m.Remines != 1 {
		t.Errorf("remines = %d, want 1 (debounce window should coalesce)", m.Remines)
	}
}

// flakyTransport delegates to a loopback worker pool but rejects every
// submit while failing is set — the serving-side view of a dead fleet.
type flakyTransport struct {
	inner   shardrpc.Transport
	failing atomic.Bool
}

func (f *flakyTransport) Submit(job shardrpc.Job) error {
	if f.failing.Load() {
		return errors.New("flaky: fleet unreachable")
	}
	return f.inner.Submit(job)
}
func (f *flakyTransport) Results() <-chan shardrpc.Result { return f.inner.Results() }
func (f *flakyTransport) Close() error                    { return f.inner.Close() }

// TestFailedRemineKeepsLastGood pins the fallback-to-last-good-model rule: a
// re-mine that cannot complete leaves the previous snapshot serving and the
// batch queued, and a later healthy re-mine folds it in exactly.
func TestFailedRemineKeepsLastGood(t *testing.T) {
	g := testGraph(t)
	ft := &flakyTransport{inner: shardrpc.NewLoopback(icspm.ExecuteShardJob, 2)}
	s := newTestServer(t, g, Options{Transport: ft, RemoteNoFallback: true})
	ctx := ctxShort(t)

	ft.failing.Store(true)
	muts := []Mutation{{Op: OpAddEdge, U: 0, V: 3}}
	if err := s.SubmitMutations(muts); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(ctx); err == nil {
		t.Fatal("flush succeeded through a dead fleet with fallback disabled")
	}
	snap := s.Snapshot()
	if snap.Generation != 1 {
		t.Fatalf("failed re-mine advanced generation to %d", snap.Generation)
	}
	requireModelEqual(t, snap.Model, icspm.Mine(g))
	if n := s.PendingMutations(); n != len(muts) {
		t.Fatalf("failed batch left %d pending, want %d (re-queued for retry)", n, len(muts))
	}
	if m := s.Metrics(); m.RemineFailures == 0 {
		t.Error("remine_failures not counted")
	}

	ft.failing.Store(false)
	if err := s.Flush(ctx); err != nil {
		t.Fatalf("flush after heal: %v", err)
	}
	snap = s.Snapshot()
	if snap.Generation != 2 {
		t.Fatalf("healed re-mine published generation %d, want 2", snap.Generation)
	}
	requireModelEqual(t, snap.Model, icspm.Mine(Rebuild(g, muts)))
}

// TestPersistOnClose pins the shutdown contract: a durable server persists
// its cache entries on Close, and a server restarted on the same Dir
// warm-starts with zero misses.
func TestPersistOnClose(t *testing.T) {
	dir := t.TempDir()
	g := testGraph(t)
	s, err := NewServer(g, Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	muts := []Mutation{{Op: OpAddEdge, U: 0, V: 3}}
	if err := s.SubmitMutations(muts); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(ctxShort(t)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := NewServer(Rebuild(g, muts), Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	m := s2.Snapshot().Model
	if m.CacheMisses != 0 || m.CacheHits == 0 {
		t.Fatalf("restarted server mined cold: hits=%d misses=%d (persist or warm start broken)",
			m.CacheHits, m.CacheMisses)
	}
}

func TestCloseIsIdempotent(t *testing.T) {
	s, err := NewServer(testGraph(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestAwaitGenerationHonorsContext(t *testing.T) {
	s := newTestServer(t, testGraph(t), Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.AwaitGeneration(ctx, 99); err == nil {
		t.Fatal("AwaitGeneration returned before an unreachable generation")
	}
}

func TestOptionsValidate(t *testing.T) {
	cases := []struct {
		name string
		opts Options
	}{
		{"negative retries", Options{RemoteRetries: -1}},
		{"negative timeout", Options{RemoteTimeout: -time.Second}},
		{"negative debounce", Options{Debounce: -time.Second}},
		{"invalid mining options", Options{Mining: icspm.Options{Workers: -1}}},
	}
	for _, tc := range cases {
		if err := tc.opts.Validate(); err == nil {
			t.Errorf("%s: validated", tc.name)
		}
		if _, err := NewServer(testGraph(t), tc.opts); err == nil {
			t.Errorf("%s: NewServer accepted", tc.name)
		}
	}
}

func mustID(t *testing.T, g *graph.Graph, name string) graph.AttrID {
	t.Helper()
	id, ok := g.Vocab().Lookup(name)
	if !ok {
		t.Fatalf("value %q not interned", name)
	}
	return id
}

// TestCloseUnblocksWaiters pins the shutdown liveness contract: Flush and
// AwaitGeneration waiters must return (with an error) when the server
// closes, not hang on a notify channel nobody will ever broadcast.
func TestCloseUnblocksWaiters(t *testing.T) {
	ft := &flakyTransport{inner: shardrpc.NewLoopback(icspm.ExecuteShardJob, 2)}
	s, err := NewServer(testGraph(t), Options{Transport: ft, RemoteNoFallback: true, RetryBackoff: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	ft.failing.Store(true)
	if err := s.SubmitMutations([]Mutation{{Op: OpAddEdge, U: 0, V: 3}}); err != nil {
		t.Fatal(err)
	}
	// Wait for the failed attempt so both waiters block on notify, not on
	// a condition that is about to flip.
	if err := s.Flush(ctxShort(t)); err == nil {
		t.Fatal("flush succeeded through a dead fleet")
	}
	errs := make(chan error, 2)
	go func() { errs <- s.AwaitGeneration(context.Background(), 99) }()
	go func() { errs <- s.Flush(context.Background()) }()
	time.Sleep(10 * time.Millisecond) // let both reach their select
	// Close's final drain also fails through the dead fleet; it must say
	// so rather than silently discarding the acknowledged batch.
	if err := s.Close(); err == nil || !strings.Contains(err.Error(), "not mined at shutdown") {
		t.Fatalf("Close() = %v, want an unmined-mutations error", err)
	}
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if err == nil {
				t.Error("waiter returned nil from a closed server that never served its target")
			}
		case <-time.After(10 * time.Second):
			t.Fatal("waiter still blocked after Close")
		}
	}
}

// TestFailedRemineAutoRetries pins the stranded-mutation fix: after the
// fleet heals, the backoff retry must fold the re-queued batch in WITHOUT
// any further SubmitMutations/Flush nudge.
func TestFailedRemineAutoRetries(t *testing.T) {
	g := testGraph(t)
	ft := &flakyTransport{inner: shardrpc.NewLoopback(icspm.ExecuteShardJob, 2)}
	s := newTestServer(t, g, Options{Transport: ft, RemoteNoFallback: true, RetryBackoff: 20 * time.Millisecond})
	ctx := ctxShort(t)

	ft.failing.Store(true)
	muts := []Mutation{{Op: OpAddEdge, U: 0, V: 3}}
	if err := s.SubmitMutations(muts); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(ctx); err == nil {
		t.Fatal("flush succeeded through a dead fleet")
	}
	ft.failing.Store(false)
	// No nudge: only the retry backoff can publish generation 2.
	if err := s.AwaitGeneration(ctx, 2); err != nil {
		t.Fatalf("backoff retry never published: %v", err)
	}
	requireModelEqual(t, s.Snapshot().Model, icspm.Mine(Rebuild(g, muts)))
	if n := s.PendingMutations(); n != 0 {
		t.Fatalf("auto-retried server reports %d pending mutations", n)
	}
}

// TestCloseDrainsPendingMutations pins the graceful-shutdown contract for
// the mutation log: a batch acknowledged but not yet re-mined when Close
// runs (parked behind a long debounce here) is folded in by one final
// re-mine, never silently discarded — and nothing is accepted afterwards.
func TestCloseDrainsPendingMutations(t *testing.T) {
	g := testGraph(t)
	s, err := NewServer(g, Options{Debounce: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	muts := []Mutation{{Op: OpAddEdge, U: 0, V: 3}}
	if err := s.SubmitMutations(muts); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	if snap.Generation != 2 {
		t.Fatalf("shutdown discarded an acknowledged batch: generation = %d, want 2", snap.Generation)
	}
	requireModelEqual(t, snap.Model, icspm.Mine(Rebuild(g, muts)))
	if n := s.PendingMutations(); n != 0 {
		t.Fatalf("%d mutations pending after the shutdown drain", n)
	}
	if err := s.SubmitMutations(muts); err == nil {
		t.Fatal("closed server accepted a mutation batch")
	}
}
