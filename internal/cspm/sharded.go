package cspm

import (
	"runtime"
	"sync"

	"cspm/internal/graph"
	"cspm/internal/invdb"
	"cspm/internal/mdl"
)

// MineSharded mines g by partitioning it into its attribute-closed component
// groups, mined concurrently, and merging the per-group models with exact
// description-length accounting: the component pipeline run uncached, one
// shard run per group, with Options.Shards bounding how many run at once.
// No coreset line, leafset occurrence or co-occurring candidate pair can span
// two groups, so the merged model is bit-identical to Mine's. The total
// worker budget (Options.Workers, 0 = all cores) is split across shards.
// Options.MaxIterations caps each shard's merges independently. A resolved
// shard count of 1 (Shards: 1, a one-group graph, or a one-core machine with
// Shards: 0) degenerates to the unsharded search. It panics if opts fails
// Validate.
func MineSharded(g *graph.Graph, opts Options) *Model {
	if err := opts.Validate(); err != nil {
		panic(err)
	}
	k := min(opts.shardLimit(), graph.AttrClosedComponents(g).Count, g.NumVertices())
	if k <= 1 {
		m := MineDB(invdb.FromGraph(g), g.Vocab(), opts)
		m.ShardCount = 1
		return m
	}
	m, _ := mineGroups(g, opts, nil, opts.mineLocal, nil)
	return m
}

// shardLimit resolves Options.Shards: 0 means one shard per core.
func (o Options) shardLimit() int {
	if o.Shards > 0 {
		return o.Shards
	}
	return runtime.GOMAXPROCS(0)
}

// shardRun is the unit of concurrent mining: a vertex slice of the graph
// and the search's inputs/outputs.
type shardRun struct {
	verts []graph.VertexID // sorted global vertex ids; local id = index

	init  []invdb.LineStat // lines before any merge
	final []invdb.LineStat // lines after the shard's search
	stats *runStats
}

// runShards builds and mines every shard concurrently, splitting the total
// worker budget: each shard search gets at least one evaluator, and a
// semaphore caps the number of concurrently running shards at Workers and
// Options.Shards, so fewer slots than shards degrades to bounded
// concurrency (Workers=1 → one shard at a time) instead of oversubscribing
// the budget. The budget is split over the shards that can actually run at
// once, not the full shard list, so the component pipeline's
// one-run-per-dirty-group shape does not strand it. Results are
// deterministic regardless: each shard's search is a pure function of
// (graph, st, verts), and all cross-shard accounting happens after the
// barrier in fixed shard order.
func runShards(g *graph.Graph, st *mdl.StandardTable, opts Options, shards []*shardRun) {
	workers := opts.workerCount()
	concurrent := min(workers, len(shards), opts.shardLimit())
	base, extra := workers/concurrent, workers%concurrent
	sem := make(chan struct{}, concurrent)
	var wg sync.WaitGroup
	for i, sh := range shards {
		shOpts := opts
		shOpts.Workers = base
		if i < extra {
			shOpts.Workers++
		}
		if shOpts.Workers < 1 {
			shOpts.Workers = 1
		}
		wg.Add(1)
		go func(sh *shardRun, shOpts Options) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			db := invdb.FromGraphShard(g, st, sh.verts)
			sh.init = db.AppendLineStats(nil)
			if shOpts.CollectStats {
				sh.stats = &runStats{}
			}
			switch shOpts.Variant {
			case Basic:
				mineBasic(db, shOpts, sh.stats)
			default:
				minePartial(db, shOpts, sh.stats)
			}
			sh.final = db.AppendLineStats(nil)
		}(sh, shOpts)
	}
	wg.Wait()
}

// appendPerIter appends a shard's merge trace to the merged model,
// renumbering iterations and tagging each with its shard.
func appendPerIter(m *Model, perIter []IterationStat, shard int) {
	for _, it := range perIter {
		it.Iteration = len(m.PerIter) + 1
		it.Shard = shard
		m.PerIter = append(m.PerIter, it)
	}
}
