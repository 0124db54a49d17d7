// Benchmarks regenerating the paper's tables and figures (one bench per
// artifact; see DESIGN.md's experiment index) plus micro-benchmarks for the
// mining hot paths. Run with:
//
//	go test -bench=. -benchmem
//
// Absolute times are hardware-specific; the paper's claims live in the
// ratios (SLIM < CSPM-Basic, CSPM-Partial ≪ CSPM-Basic, CSPM fusion ≥ bare
// models, CSPM coverage ≥ ACOR).
package cspm_test

import (
	"bytes"
	"context"
	"encoding/gob"
	"math/rand"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"cspm"
	"cspm/internal/alarm"
	"cspm/internal/completion"
	icspm "cspm/internal/cspm"
	"cspm/internal/dataset"
	"cspm/internal/experiments"
	"cspm/internal/gnn"
	"cspm/internal/graph"
	"cspm/internal/intset"
	"cspm/internal/invdb"
	"cspm/internal/serve"
	"cspm/internal/serveclient"
	"cspm/internal/shardrpc"
	"cspm/internal/slim"
)

// --- Table II: dataset statistics -----------------------------------------

func BenchmarkTable2_DatasetStats(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.Table2(experiments.Small, 1)
	}
}

// --- Table III: runtime comparison ----------------------------------------
// One bench per (algorithm, dataset) cell so `-bench Table3` prints the
// table's rows as benchmark lines.

func table3Graph(b *testing.B, name string) *cspm.Graph {
	b.Helper()
	g, ok := experiments.BenchmarkGraphs(experiments.Small, 1)[name]
	if !ok {
		b.Fatalf("unknown dataset %s", name)
	}
	return g
}

func benchSLIM(b *testing.B, name string) {
	g := table3Graph(b, name)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slim.MineGraph(g, slim.Options{})
	}
}

func benchCSPM(b *testing.B, name string, variant cspm.Variant) {
	g := table3Graph(b, name)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cspm.MineWithOptions(g, cspm.Options{Variant: variant})
	}
}

func BenchmarkTable3_SLIM_DBLP(b *testing.B)     { benchSLIM(b, experiments.DBLPName) }
func BenchmarkTable3_SLIM_USFlight(b *testing.B) { benchSLIM(b, experiments.USFlightName) }

// CSPM-Basic costs minutes per run on the Table II datasets (the very
// motivation for CSPM-Partial), so the Basic-vs-Partial ratio is measured on
// a scaled-down social graph; Partial also runs on it for the comparison.
func BenchmarkTable3_CSPMBasic_Mini(b *testing.B) {
	g := experiments.MiniGraph(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cspm.MineWithOptions(g, cspm.Options{Variant: cspm.Basic})
	}
}

func BenchmarkTable3_CSPMPartial_Mini(b *testing.B) {
	g := experiments.MiniGraph(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cspm.MineWithOptions(g, cspm.Options{Variant: cspm.Partial})
	}
}

func BenchmarkTable3_SLIM_Mini(b *testing.B) {
	g := experiments.MiniGraph(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slim.MineGraph(g, slim.Options{})
	}
}

func BenchmarkTable3_CSPMPartial_DBLP(b *testing.B) {
	benchCSPM(b, experiments.DBLPName, cspm.Partial)
}
func BenchmarkTable3_CSPMPartial_DBLPTrend(b *testing.B) {
	benchCSPM(b, experiments.DBLPTrendName, cspm.Partial)
}
func BenchmarkTable3_CSPMPartial_USFlight(b *testing.B) {
	benchCSPM(b, experiments.USFlightName, cspm.Partial)
}
func BenchmarkTable3_CSPMPartial_Pokec(b *testing.B) {
	benchCSPM(b, experiments.PokecName, cspm.Partial)
}

// --- Fig. 5: gain-update ratio ---------------------------------------------
// The figure's data is the per-iteration stats; the bench measures the
// stats-collecting run and reports the mean update ratio as a custom metric.

func benchFig5(b *testing.B, name string, variant cspm.Variant) {
	benchFig5Graph(b, table3Graph(b, name), variant)
}

func benchFig5Graph(b *testing.B, g *cspm.Graph, variant cspm.Variant) {
	b.ResetTimer()
	var mean float64
	for i := 0; i < b.N; i++ {
		m := cspm.MineWithOptions(g, cspm.Options{Variant: variant, CollectStats: true})
		sum := 0.0
		for _, it := range m.PerIter {
			sum += it.UpdateRatio
		}
		if len(m.PerIter) > 0 {
			mean = sum / float64(len(m.PerIter))
		}
	}
	b.ReportMetric(mean, "mean-update-ratio")
}

func BenchmarkFig5_Basic_Mini(b *testing.B) {
	g := experiments.MiniGraph(1)
	benchFig5Graph(b, g, cspm.Basic)
}
func BenchmarkFig5_Partial_Mini(b *testing.B) {
	g := experiments.MiniGraph(1)
	benchFig5Graph(b, g, cspm.Partial)
}
func BenchmarkFig5_Partial_DBLP(b *testing.B) {
	benchFig5(b, experiments.DBLPName, cspm.Partial)
}

// --- Fig. 6 / §VI-B: example patterns --------------------------------------

func BenchmarkFig6_PatternExtraction(b *testing.B) {
	g := table3Graph(b, experiments.USFlightName)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := cspm.Mine(g)
		_ = m.MultiLeaf()
	}
}

// --- Table IV: node attribute completion -----------------------------------
// One bench per model on the (scaled) Cora task, reporting the fusion lift
// as a custom metric.

func benchTable4(b *testing.B, mk func() gnn.Model) {
	cfg := dataset.Cora(1)
	cfg.Nodes /= 4
	cfg.Attrs /= 2
	g, _ := dataset.Citation(cfg)
	task, err := completion.NewTask(g, 0.1, 1)
	if err != nil {
		b.Fatal(err)
	}
	model := cspm.Mine(task.TrainGraph())
	scorer := completion.NewScorer(model, task.TrainGraph())
	cspmScores := scorer.ScoreMatrix(task)
	b.ResetTimer()
	var lift float64
	for i := 0; i < b.N; i++ {
		scores := mk().FitPredict(task)
		base := completion.Evaluate(task, scores, []int{10})
		fused := completion.Evaluate(task, completion.Fuse(scores, cspmScores, task.TestNodes), []int{10})
		if base.RecallAtK[10] > 0 {
			lift = (fused.RecallAtK[10] - base.RecallAtK[10]) / base.RecallAtK[10]
		}
	}
	b.ReportMetric(100*lift, "fusion-lift-%")
}

func quickGNN() gnn.Config { return gnn.Config{Hidden: 16, Epochs: 30, LR: 0.02, Seed: 1} }

func BenchmarkTable4_NeighAggre(b *testing.B) {
	benchTable4(b, func() gnn.Model { return gnn.NeighAggre{} })
}
func BenchmarkTable4_VAE(b *testing.B) {
	benchTable4(b, func() gnn.Model { return gnn.NewVAE(quickGNN()) })
}
func BenchmarkTable4_GCN(b *testing.B) {
	benchTable4(b, func() gnn.Model { return gnn.NewGCN(quickGNN()) })
}
func BenchmarkTable4_GAT(b *testing.B) {
	benchTable4(b, func() gnn.Model { return gnn.NewGAT(quickGNN()) })
}
func BenchmarkTable4_GraphSage(b *testing.B) {
	benchTable4(b, func() gnn.Model { return gnn.NewGraphSage(quickGNN()) })
}
func BenchmarkTable4_SAT(b *testing.B) {
	benchTable4(b, func() gnn.Model { return gnn.NewSAT(quickGNN()) })
}

// --- Fig. 8: alarm-rule coverage -------------------------------------------

func fig8Log(b *testing.B) (*alarm.Log, *alarm.Library) {
	b.Helper()
	cfg := alarm.DefaultSim()
	cfg.Devices = 120
	cfg.Types = 1200
	cfg.Rules = 6
	cfg.DerivedPerRule = 6
	cfg.RootEvents = 900
	cfg.NoiseEvents = 500
	cfg.ChattyEvents = 1200
	cfg.RareEvents = 150
	cfg.Bursts = 150
	log, lib, err := alarm.Simulate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return log, lib
}

func BenchmarkFig8_CSPMRules(b *testing.B) {
	log, lib := fig8Log(b)
	valid := lib.PairRules()
	b.ResetTimer()
	var cov float64
	for i := 0; i < b.N; i++ {
		ranked := alarm.CSPMRules(log, 60)
		cov = alarm.Coverage(alarm.Rules(ranked), valid, 100)
	}
	b.ReportMetric(cov, "coverage@100")
}

func BenchmarkFig8_ACORRules(b *testing.B) {
	log, lib := fig8Log(b)
	valid := lib.PairRules()
	b.ResetTimer()
	var cov float64
	for i := 0; i < b.N; i++ {
		ranked := alarm.ACORRules(log, 60)
		cov = alarm.Coverage(alarm.Rules(ranked), valid, 100)
	}
	b.ReportMetric(cov, "coverage@100")
}

// --- Ablation: model-cost term (DESIGN.md A1) -------------------------------

func BenchmarkAblation_ModelCost(b *testing.B) {
	g, _ := dataset.Planted(dataset.DefaultPlanted())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cspm.MineWithOptions(g, cspm.Options{})
	}
}

func BenchmarkAblation_DataGainOnly(b *testing.B) {
	g, _ := dataset.Planted(dataset.DefaultPlanted())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cspm.MineWithOptions(g, cspm.Options{DisableModelCost: true})
	}
}

// --- Sharded mining (DESIGN.md "Sharded mining") ----------------------------
// One multi-component graph, equal total worker budgets: the Components row
// must beat the Unsharded row. On a single-core runner the margin comes from
// smaller per-shard search structures (heaps, dictionaries, dedup sets) and
// from not oversubscribing evaluation goroutines; with real cores the
// concurrent shard searches widen it.

const shardedBenchWorkers = 8

func BenchmarkSharded_Unsharded_W8(b *testing.B) {
	g := dataset.Islands(dataset.BenchIslands())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cspm.MineWithOptions(g, cspm.Options{Workers: shardedBenchWorkers})
	}
}

func BenchmarkSharded_Components_W8(b *testing.B) {
	g := dataset.Islands(dataset.BenchIslands())
	b.ResetTimer()
	var m *cspm.Model
	for i := 0; i < b.N; i++ {
		m = cspm.MineShardedCached(g, cspm.Options{Workers: shardedBenchWorkers}, nil)
	}
	b.ReportMetric(float64(m.ShardCount), "shards")
}

// --- Distributed shards (DESIGN.md "Distributed shard exchange") ------------
// The loopback-distributed scenario: the same archipelago as the Sharded
// rows, mined through MineDistributed's full job pipeline — component
// remap, gob encode, worker-pool mine, checksummed blob decode, exact merge
// — over an in-process loopback pool of S workers, minus the sockets. The
// coordinator's W evaluators are split across the pool, as the in-process
// pipeline splits them across concurrent groups. The gap to
// BenchmarkSharded_Components is the serialisation tax a remote worker
// fleet pays per job.

func benchDistributed(b *testing.B, pool int) {
	g := dataset.Islands(dataset.BenchIslands())
	lb := shardrpc.NewLoopback(icspm.ExecuteShardJob, pool)
	defer lb.Close()
	b.ResetTimer()
	var m *cspm.Model
	for i := 0; i < b.N; i++ {
		var err error
		m, err = cspm.MineDistributed(g, cspm.DistributedOptions{
			Options:   cspm.Options{Workers: max(1, shardedBenchWorkers/pool)},
			Transport: lb,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(m.RemoteJobs), "jobs")
}

func BenchmarkDistributed_Loopback_S4W8(b *testing.B)  { benchDistributed(b, 4) }
func BenchmarkDistributed_Loopback_S12W8(b *testing.B) { benchDistributed(b, 12) }

// --- Shard-result cache (DESIGN.md "Shard-result cache") --------------------
// The incremental re-mining scenario of BENCH_3.json: rewire one of twelve
// islands (≈8% of the components) and mine the mutated graph. The Cold row
// re-mines everything uncached; the WarmIncremental row serves
// the eleven clean islands from a cache warmed on the base graph and
// re-mines only the dirty one; WarmFull is the all-hits replay floor. Each
// iteration mutates to an edge seed the cache has never seen (graph
// generation runs off the clock), so the warm row always pays one real
// shard search and the Cold/WarmIncremental ratio is the incremental win.

func cacheBenchOpts() cspm.Options {
	return cspm.Options{Workers: shardedBenchWorkers}
}

// cacheBenchVariant mutates island 0 of the BenchIslands archipelago to the
// i-th fresh edge seed; attributes — and with them the vocabulary and the
// global standard table — are identical across variants.
func cacheBenchVariant(i int) *cspm.Graph {
	return dataset.IslandsWithEdgeSeeds(dataset.BenchIslands(), []int64{1_000_000 + int64(i)})
}

func BenchmarkCache_ColdSharded_S4W8(b *testing.B) {
	var m *cspm.Model
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g := cacheBenchVariant(i)
		b.StartTimer()
		m = cspm.MineShardedCached(g, cacheBenchOpts(), nil)
	}
	b.ReportMetric(float64(m.ShardCount), "shards")
}

func BenchmarkCache_WarmIncremental_S4W8(b *testing.B) {
	cache := cspm.NewShardCache()
	base := dataset.IslandsWithEdgeSeeds(dataset.BenchIslands(), nil)
	cspm.MineShardedCached(base, cacheBenchOpts(), cache)
	b.ResetTimer()
	var m *cspm.Model
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g := cacheBenchVariant(i)
		b.StartTimer()
		m = cspm.MineShardedCached(g, cacheBenchOpts(), cache)
	}
	b.ReportMetric(float64(m.CacheHits), "hits")
	b.ReportMetric(float64(m.CacheMisses), "misses")
}

func BenchmarkCache_WarmFull_S4W8(b *testing.B) {
	cache := cspm.NewShardCache()
	g := dataset.IslandsWithEdgeSeeds(dataset.BenchIslands(), nil)
	cspm.MineShardedCached(g, cacheBenchOpts(), cache)
	b.ResetTimer()
	var m *cspm.Model
	for i := 0; i < b.N; i++ {
		m = cspm.MineShardedCached(g, cacheBenchOpts(), cache)
	}
	b.ReportMetric(float64(m.CacheHits), "hits")
}

// --- Micro-benchmarks: mining hot paths ------------------------------------

func BenchmarkMicro_MultiCoreDBLP(b *testing.B) {
	g := dataset.DBLP(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cspm.MineMultiCore(g); err != nil {
			b.Fatal(err)
		}
	}
}

// Serial-evaluation variant of the Table III Partial cell: the delta against
// BenchmarkTable3_CSPMPartial_DBLP (Workers 0 → one evaluator per core)
// isolates what parallel gain evaluation buys on this hardware.
func BenchmarkTable3_CSPMPartial_DBLP_Serial(b *testing.B) {
	g := table3Graph(b, experiments.DBLPName)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cspm.MineWithOptions(g, cspm.Options{Variant: cspm.Partial, Workers: 1})
	}
}

// BenchmarkMicro_EvalMergeSweep_DBLP measures raw merge-gain evaluation: one
// op evaluates every co-occurring leafset pair of the freshly built DBLP
// inverted database. This is the allocation-free hot path of DESIGN.md; the
// allocs/op column is the regression alarm (want 0).
func BenchmarkMicro_EvalMergeSweep_DBLP(b *testing.B) {
	g := dataset.DBLP(1)
	db := invdb.FromGraph(g)
	type pair struct{ x, y invdb.LeafsetID }
	seen := make(map[pair]struct{})
	var pairs []pair
	for c := 0; c < db.NumCoresets(); c++ {
		ids := db.LeafsetIDsOf(invdb.CoresetID(c))
		for i := 0; i < len(ids); i++ {
			for j := i + 1; j < len(ids); j++ {
				p := pair{ids[i], ids[j]}
				if _, ok := seen[p]; !ok {
					seen[p] = struct{}{}
					pairs = append(pairs, p)
				}
			}
		}
	}
	for _, p := range pairs { // warm the DB-owned scratch arena
		db.EvalMerge(p.x, p.y)
	}
	b.ReportMetric(float64(len(pairs)), "pairs/op")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range pairs {
			db.EvalMerge(p.x, p.y)
		}
	}
}

// BenchmarkMicro_IntersectCountAndDiffCount measures the fused kernel on a
// skewed (galloping) and a balanced (linear-merge) operand pair.
func BenchmarkMicro_IntersectCountAndDiffCount(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	mk := func(n, max int) intset.Set {
		vals := make([]uint32, n)
		for i := range vals {
			vals[i] = uint32(rng.Intn(max))
		}
		return intset.New(vals...)
	}
	small := mk(200, 1<<20)
	big := mk(40000, 1<<20)
	mid1 := mk(8000, 1<<20)
	mid2 := mk(9000, 1<<20)
	z := mk(4000, 1<<20)
	b.Run("gallop", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			intset.IntersectCountAndDiffCount(small, big, z)
		}
	})
	b.Run("linear", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			intset.IntersectCountAndDiffCount(mid1, mid2, z)
		}
	})
}

// midIslands is the repo benchmark's mid archipelago (benchmark/README.md):
// twelve islands of 250-500 vertices, 4,210 vertices and 360 values in all.
// Island 0's edges are regenerated from edgeSeed when it is non-zero;
// attributes, and with them the global standard table, never change.
func midIslands(edgeSeed int64) *cspm.Graph {
	cfg := dataset.BenchIslands()
	cfg.MinNodes, cfg.MaxNodes = 250, 500
	var seeds []int64
	if edgeSeed != 0 {
		seeds = []int64{edgeSeed}
	}
	return dataset.IslandsWithEdgeSeeds(cfg, seeds)
}

// BenchmarkMicro_ColdMine_Mid measures the miner core on the graph the
// write_global workload re-mines: one op is a cold MineShardedCached of the
// mid archipelago, all 12 component groups searched from scratch.
func BenchmarkMicro_ColdMine_Mid(b *testing.B) {
	g := midIslands(0)
	b.ReportAllocs()
	b.ResetTimer()
	var m *cspm.Model
	for i := 0; i < b.N; i++ {
		m = cspm.MineShardedCached(g, cspm.Options{CollectStats: true}, nil)
	}
	b.ReportMetric(float64(m.GainEvals), "gain-evals")
	b.ReportMetric(m.FinalDL, "final-bits")
}

// BenchmarkMicro_ManyGroups measures per-group overhead: one op is a cold
// MineShardedCached of an archipelago of 400 islands of 8–20 vertices, so
// building, keying and setting up 400 small group jobs weighs as much as
// searching them. job-bytes is the gob size of the run's jobs, counted
// once, off the clock, through a loopback transport.
func BenchmarkMicro_ManyGroups(b *testing.B) {
	cfg := dataset.DefaultIslands()
	cfg.Islands, cfg.MinNodes, cfg.MaxNodes = 400, 8, 20
	g := dataset.IslandsWithEdgeSeeds(cfg, nil)
	b.ReportAllocs()
	b.ResetTimer()
	var m *cspm.Model
	for i := 0; i < b.N; i++ {
		m = cspm.MineShardedCached(g, cspm.Options{}, nil)
	}
	b.StopTimer()
	tr := &countingTransport{Transport: shardrpc.NewLoopback(icspm.ExecuteShardJob, 1)}
	defer tr.Close()
	if _, err := cspm.MineDistributed(g, cspm.DistributedOptions{Transport: tr}); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(m.FinalDL, "final-bits")
	b.ReportMetric(float64(tr.bytes.Load()), "job-bytes")
}

// countingTransport adds the gob size of every job it forwards to bytes.
type countingTransport struct {
	shardrpc.Transport
	bytes atomic.Int64
}

func (c *countingTransport) Submit(job shardrpc.Job) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(job); err != nil {
		return err
	}
	c.bytes.Add(int64(buf.Len()))
	return c.Transport.Submit(job)
}

// BenchmarkMicro_WarmRemine_Mid measures an incremental re-mine: the cache
// is warmed on the base archipelago, then each op rewires island 0 to an
// edge seed the cache has never seen (graph generation runs off the clock),
// so 11 of 12 groups replay and one is searched.
func BenchmarkMicro_WarmRemine_Mid(b *testing.B) {
	opts := cspm.Options{CollectStats: true}
	cache := cspm.NewShardCache()
	cspm.MineShardedCached(midIslands(0), opts, cache)
	b.ReportAllocs()
	b.ResetTimer()
	var m *cspm.Model
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g := midIslands(1_000_000 + int64(i))
		b.StartTimer()
		m = cspm.MineShardedCached(g, opts, cache)
	}
	b.ReportMetric(float64(m.CacheHits), "hits")
	b.ReportMetric(float64(m.CacheMisses), "misses")
}

// BenchmarkMicro_Rebuild_Mid measures the rebuild span (obs.SpanRebuild)
// of a re-mine on the mid archipelago: one op is graph.Rebuild of an
// 8-edit batch, each edit adding or deleting one edge inside island 0, as
// the benchmark's island-local bursts do.
func BenchmarkMicro_Rebuild_Mid(b *testing.B) {
	g := midIslands(0)
	rng := rand.New(rand.NewSource(1))
	edits := make([]graph.Edit, 0, 8)
	for len(edits) < cap(edits) {
		u, v := graph.VertexID(rng.Intn(200)), graph.VertexID(rng.Intn(200))
		if u == v {
			continue
		}
		op := graph.EditAddEdge
		if g.HasEdge(u, v) {
			op = graph.EditDelEdge
		}
		edits = append(edits, graph.Edit{Op: op, U: u, V: v})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := graph.Rebuild(g, edits); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMicro_ScoreNode_Mid measures the Algorithm 5 scorer as the
// serving layer runs it: one op scores a fixed set of 512 vertices spread
// over the repo benchmark's mid archipelago (4,210 vertices, 360 values,
// ~22k a-stars) against the model a server publishes for it.
func BenchmarkMicro_ScoreNode_Mid(b *testing.B) {
	g := midIslands(0)
	scorer := cspm.NewScorer(cspm.MineShardedCached(g, cspm.Options{CollectStats: true}, nil), g)
	const nVerts = 512
	verts := make([]cspm.VertexID, nVerts)
	for i := range verts {
		verts[i] = cspm.VertexID(i * g.NumVertices() / nVerts)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, v := range verts {
			scoreSink = scorer.ScoreNode(v)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*nVerts), "ns/vertex")
}

// scoreSink keeps the compiler from discarding benchmarked ScoreNode calls.
var scoreSink []float64

// --- Online serving (DESIGN.md "Online serving", BENCH_5.json) ------------

// startServeBench hosts an Islands graph as a multi-tenant host's default
// namespace behind real HTTP, queried through the typed client — the same
// stack a production caller uses.
func startServeBench(b *testing.B) (*cspm.Server, *serveclient.NamespaceClient) {
	b.Helper()
	cfg := dataset.DefaultIslands()
	cfg.Seed = 7
	g := dataset.Islands(cfg)
	host, err := cspm.NewServeHost(cspm.ServeHostOptions{})
	if err != nil {
		b.Fatal(err)
	}
	srv, err := host.Create(cspm.DefaultServeNamespace, g, nil)
	if err != nil {
		b.Fatal(err)
	}
	hs := httptest.NewServer(host)
	b.Cleanup(func() {
		hs.Close()
		host.Close()
	})
	client, err := serveclient.New(hs.URL, nil)
	if err != nil {
		b.Fatal(err)
	}
	return srv, client.Namespace(cspm.DefaultServeNamespace)
}

// serveCompleteOnce issues one completion query and fails the benchmark on
// any error — the zero-failed-requests serving contract is part of what
// is being measured.
func serveCompleteOnce(b *testing.B, nc *serveclient.NamespaceClient) {
	if _, err := nc.Complete(context.Background(), serve.CompleteRequest{
		Vertices: []cspm.VertexID{1, 17, 33}, TopK: 5,
	}); err != nil {
		b.Fatalf("complete: %v", err)
	}
}

// BenchmarkServe_Complete is the steady-state query baseline: completion
// scoring over HTTP against an idle snapshot.
func BenchmarkServe_Complete(b *testing.B) {
	_, nc := startServeBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveCompleteOnce(b, nc)
	}
}

// BenchmarkServe_CompleteDuringRemine measures the same queries while a
// mutator goroutine keeps toggling an island-local edge, so snapshot swaps
// (each an incremental warm re-mine of one dirty island) continuously
// overlap the measured reads. The custom metrics report how many re-mines
// the run absorbed; ns/op staying close to the idle baseline is the
// lock-free snapshot-swap claim.
func BenchmarkServe_CompleteDuringRemine(b *testing.B) {
	srv, nc := startServeBench(b)
	before := srv.Metrics()
	var queries atomic.Int64
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		ops := []string{"add_edge", "del_edge"}
		for i := 0; ; i++ {
			// Pace re-mines to query progress (at most one swap per measured
			// query): an unthrottled mutator would just measure the miner
			// starving the handlers for the scheduler, not serving overlap.
			q0 := queries.Load()
			if err := srv.SubmitMutations([]cspm.GraphMutation{{Op: ops[i%2], U: 1, V: 3}}); err != nil {
				panic(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			err := srv.Flush(ctx)
			cancel()
			if err != nil {
				panic(err)
			}
			for queries.Load() == q0 {
				select {
				case <-stop:
					return
				default:
					runtime.Gosched()
				}
			}
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serveCompleteOnce(b, nc)
		queries.Add(1)
	}
	b.StopTimer()
	close(stop)
	<-done
	after := srv.Metrics()
	b.ReportMetric(float64(after.Remines-before.Remines)/float64(b.N), "remines/op")
}

// BenchmarkServe_MutationAck measures the acknowledgment path of one
// mutation batch — exactly what a writer waits on — with and without the
// durability contract. The durable-wal case (a server on opts.Dir) pays a
// WAL append + fsync per batch before the ack (DESIGN.md "Durability &
// crash recovery"); the gap between the two sub-benchmarks IS the cost of
// crash-safe acknowledgments. The re-mine loop is debounced out of the way
// so only the ack is measured.
func BenchmarkServe_MutationAck(b *testing.B) {
	for _, durable := range []bool{false, true} {
		name := "volatile"
		if durable {
			name = "durable-wal"
		}
		b.Run(name, func(b *testing.B) {
			cfg := dataset.DefaultIslands()
			cfg.Seed = 7
			g := dataset.Islands(cfg)
			opts := cspm.ServerOptions{Debounce: time.Hour}
			if durable {
				opts.Dir = b.TempDir()
			}
			srv, err := cspm.NewServer(g, opts)
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			ops := []string{"add_edge", "del_edge"}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := srv.SubmitMutations([]cspm.GraphMutation{{Op: ops[i%2], U: 1, V: 3}}); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if durable {
				b.ReportMetric(float64(srv.Metrics().WALAppends)/float64(b.N), "fsyncs/op")
			}
		})
	}
}

// BenchmarkServe_RemineLatency measures the mutate→publish path end to end:
// one island-local edge toggle per iteration, flushed through the
// incremental re-mine to a published snapshot. cache-hits/op counts the
// islands replayed instead of re-mined each swap.
func BenchmarkServe_RemineLatency(b *testing.B) {
	srv, _ := startServeBench(b)
	ops := []string{"add_edge", "del_edge"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := srv.SubmitMutations([]cspm.GraphMutation{{Op: ops[i%2], U: 1, V: 3}}); err != nil {
			b.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		err := srv.Flush(ctx)
		cancel()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(srv.Snapshot().Model.CacheHits), "cache-hits")
}

// BenchmarkReplica_CatchUp measures cold replica attachment end to end: a
// fresh -follow host pulls the leader's checkpoint over HTTP, verifies
// every shipped artifact against the MANIFEST's SHA-256 commitments,
// warm-mines from the verified shard blobs, and publishes the leader's
// generation. bytes-shipped/op is the wire cost of one attachment — the
// number a fleet operator multiplies by replica count per published
// generation.
func BenchmarkReplica_CatchUp(b *testing.B) {
	cfg := dataset.DefaultIslands()
	cfg.Seed = 7
	g := dataset.Islands(cfg)
	leader, err := cspm.NewServeHost(cspm.ServeHostOptions{RootDir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	srv, err := leader.Create(cspm.DefaultServeNamespace, g, nil)
	if err != nil {
		b.Fatal(err)
	}
	hs := httptest.NewServer(leader)
	b.Cleanup(func() {
		hs.Close()
		leader.Close()
	})
	// A few published generations first, so catch-up replicates a leader
	// with history, not just the seed checkpoint.
	ops := []string{"add_edge", "del_edge"}
	for i := 0; i < 4; i++ {
		if err := srv.SubmitMutations([]cspm.GraphMutation{{Op: ops[i%2], U: 1, V: 3}}); err != nil {
			b.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		err := srv.Flush(ctx)
		cancel()
		if err != nil {
			b.Fatal(err)
		}
	}
	want := srv.Snapshot().Generation
	before := srv.Metrics().ReplicationBytesShipped
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		replica, err := cspm.NewServeHost(cspm.ServeHostOptions{
			RootDir:    b.TempDir(),
			Follow:     hs.URL,
			FollowPoll: 5 * time.Millisecond,
		})
		if err != nil {
			b.Fatal(err)
		}
		rs, ok := replica.Tenant(cspm.DefaultServeNamespace)
		if !ok {
			b.Fatal("replica host did not mirror the namespace")
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		err = rs.AwaitGeneration(ctx, want)
		cancel()
		if err != nil {
			b.Fatal(err)
		}
		replica.Close()
	}
	b.StopTimer()
	b.ReportMetric(float64(srv.Metrics().ReplicationBytesShipped-before)/float64(b.N), "bytes-shipped/op")
}
