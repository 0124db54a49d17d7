package cspm

import (
	"sync"

	"cspm/internal/graph"
	"cspm/internal/invdb"
	"cspm/internal/mdl"
)

// shardRun is the unit of concurrent mining: a vertex slice of the graph
// and the search's inputs/outputs.
type shardRun struct {
	verts []graph.VertexID // sorted global vertex ids; local id = index

	init  []invdb.LineStat // lines before any merge
	final []invdb.LineStat // lines after the shard's search
	stats *runStats
}

// runShards builds and mines every shard concurrently, splitting the total
// worker budget (Options.Workers, 0 = all cores): at most that many shards
// run at once, each search gets an equal share of the budget (at least one
// evaluator, since no more shards run than there are workers), so fewer slots than shards degrades to bounded concurrency
// (Workers=1 → one shard at a time) instead of oversubscribing the budget.
// The budget is split over the shards that can actually run at once, not
// the full shard list, so the component pipeline's one-run-per-dirty-group
// shape does not strand it. Results are deterministic regardless: each
// shard's search is a pure function of (graph, st, verts), and all
// cross-shard accounting happens after the barrier in fixed shard order.
func runShards(g *graph.Graph, st *mdl.StandardTable, opts Options, shards []*shardRun) {
	workers := opts.workerCount()
	concurrent := min(workers, len(shards))
	base, extra := workers/concurrent, workers%concurrent
	sem := make(chan struct{}, concurrent)
	var wg sync.WaitGroup
	for i, sh := range shards {
		shOpts := opts
		shOpts.Workers = base
		if i < extra {
			shOpts.Workers++
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
