package serve

import (
	"testing"

	icspm "cspm/internal/cspm"
	"cspm/internal/dataset"
)

// snapSink keeps the compiler from discarding benchmarked snapshots.
var snapSink *Snapshot

// BenchmarkMicro_Publish_Mid measures the publish span (obs.SpanPublish) of
// a re-mine on the mid archipelago (4,210 vertices, ~22k a-stars): one op
// assembles the serving snapshot as remine does — the scorer, the
// multi-leaf page and the model digest.
func BenchmarkMicro_Publish_Mid(b *testing.B) {
	cfg := dataset.BenchIslands()
	cfg.MinNodes, cfg.MaxNodes = 250, 500
	g := dataset.IslandsWithEdgeSeeds(cfg, nil)
	m := icspm.MineShardedCached(g, icspm.Options{CollectStats: true}, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snapSink = newSnapshot(1, g, m, modelChecksum(m))
	}
}
