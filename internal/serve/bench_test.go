package serve

import (
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	icspm "cspm/internal/cspm"
	"cspm/internal/graph"
)

// snapSink keeps the compiler from discarding benchmarked snapshots.
var snapSink *Snapshot

// BenchmarkMicro_Publish_Mid measures the publish span (obs.SpanPublish) of
// a re-mine on the mid archipelago (4,210 vertices, ~22k a-stars): one op
// assembles the serving snapshot as remine does — the scorer, the
// multi-leaf index and the model digest. retained-B is the live heap one
// snapshot holds beyond its model and graph, measured once, untimed,
// between two collections.
func BenchmarkMicro_Publish_Mid(b *testing.B) {
	g := midArchipelago()
	m := icspm.MineShardedCached(g, icspm.Options{CollectStats: true}, nil)
	var before, after runtime.MemStats
	snapSink = nil // a previous run's snapshot holds its own model and graph
	runtime.GC()
	runtime.ReadMemStats(&before)
	snapSink = newSnapshot(1, g, m, modelChecksum(m))
	runtime.GC()
	runtime.ReadMemStats(&after)
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snapSink = newSnapshot(1, g, m, modelChecksum(m))
	}
	b.ReportMetric(float64(retained), "retained-B")
}

// BenchmarkMicro_Checkpoint_Mid measures the checkpoint span
// (obs.SpanCheckpoint) of a durable server right after a re-mine of the
// mid archipelago that missed every group: one op writes the 12 fresh
// groups' blobs, which mining left in memory, the graph and the MANIFEST.
// Each op's re-mine, untimed, folds a new vertex carrying vertex 0's first
// value, so that value's count is new and every group's key with it.
func BenchmarkMicro_Checkpoint_Mid(b *testing.B) {
	g := midArchipelago()
	s, err := NewServer(g, Options{Dir: b.TempDir(), Debounce: time.Hour})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	value := g.Vocab().Name(g.Attrs(0)[0])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cur := s.Snapshot()
		v := graph.VertexID(cur.Graph.NumVertices())
		next, model, err := s.rebuildAndMine(cur.Graph, []Mutation{{Op: "add_vertex"}, {Op: "add_attr", U: v, Value: value}}, nil)
		if err != nil {
			b.Fatal(err)
		}
		if model.CacheHits != 0 {
			b.Fatalf("re-mine hit %d groups, want every group dirty", model.CacheHits)
		}
		snap := newSnapshot(cur.Generation+1, next, model, modelChecksum(model))
		s.snap.Store(snap)
		b.StartTimer()
		if err := s.checkpoint(snap); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMicro_PatternsPage_Mid measures the page layer of a /patterns
// read: one op serves one 50-pattern page of the mid archipelago's ranked
// list through the handler into a ResponseRecorder.
func BenchmarkMicro_PatternsPage_Mid(b *testing.B) {
	s := pageServer(midSnapshot())
	req := httptest.NewRequest(http.MethodGet, "/v2/graphs/default/patterns?offset=100&limit=50", nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := httptest.NewRecorder()
		s.handlePatterns(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("status %d", w.Code)
		}
	}
}
