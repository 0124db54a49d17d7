package cspm

import (
	"runtime"
	"slices"
	"sync"

	"cspm/internal/graph"
	"cspm/internal/intset"
	"cspm/internal/invdb"
	"cspm/internal/mdl"
)

// ShardStrategy selects how MineSharded partitions the graph. See DESIGN.md
// "Sharded mining" for the exactness argument behind each strategy.
type ShardStrategy int

const (
	// ShardAuto picks ShardComponents when the graph splits into more than
	// one attribute-closed component group and ShardEdgeCut otherwise.
	ShardAuto ShardStrategy = iota
	// ShardComponents shards by attribute-closed component groups:
	// connected components, merged whenever two components share an
	// attribute value. No coreset line, leafset occurrence or co-occurring
	// candidate pair can span two groups, so the sharded search applies
	// exactly the merges the monolithic search would and the merged model
	// is bit-identical to Mine's.
	ShardComponents
	// ShardEdgeCut shards a single entangled component by cutting edges:
	// vertices are split into balanced BFS regions (every vertex keeps its
	// full star — shards read leafsets from the global adjacency), shards
	// mine concurrently, and a sequential refinement pass reassembles the
	// exact global database from the shard merges and finishes the search.
	// The result is a valid compressing model but — unlike ShardComponents
	// — not guaranteed bit-identical to the monolithic greedy.
	ShardEdgeCut
)

func (s ShardStrategy) String() string {
	switch s {
	case ShardComponents:
		return "components"
	case ShardEdgeCut:
		return "edgecut"
	default:
		return "auto"
	}
}

// MineSharded mines g by partitioning it into shards mined concurrently and
// merging the per-shard models with exact description-length accounting. The
// total worker budget (Options.Workers, 0 = all cores) is split across
// shards. The component strategy runs the component pipeline uncached — one
// shard run per attribute-closed group, with Options.Shards bounding how many
// run at once; the edge-cut strategy cuts the graph into Options.Shards
// regions. Options.MaxIterations caps each shard's merges independently. A
// resolved shard count of 1 (Shards: 1, a one-group graph under the
// component strategy, or a one-core machine with Shards: 0) degenerates to
// the unsharded search. It panics if opts fails Validate.
func MineSharded(g *graph.Graph, opts Options) *Model {
	if err := opts.Validate(); err != nil {
		panic(err)
	}
	groups := graph.AttrClosedComponents(g)
	strategy := opts.ShardStrategy
	if strategy == ShardAuto {
		if groups.Count > 1 {
			strategy = ShardComponents
		} else {
			strategy = ShardEdgeCut
		}
	}
	k := opts.shardLimit()
	if strategy == ShardComponents && k > groups.Count {
		k = groups.Count
	}
	if n := g.NumVertices(); k > n {
		k = n
	}
	if k <= 1 {
		m := MineDB(invdb.FromGraph(g), g.Vocab(), opts)
		m.ShardCount = 1
		return m
	}
	if strategy == ShardComponents {
		m, _ := mineGroups(g, opts, nil, opts.mineLocal, nil)
		return m
	}
	return mineEdgeCutShards(g, opts, k)
}

// shardLimit resolves Options.Shards: 0 means one shard per core.
func (o Options) shardLimit() int {
	if o.Shards > 0 {
		return o.Shards
	}
	return runtime.GOMAXPROCS(0)
}

// shardRun is the unit of concurrent mining: a vertex slice of the graph,
// its database, and the search's inputs/outputs.
type shardRun struct {
	verts []graph.VertexID // sorted global vertex ids; local id = index

	db    *invdb.DB
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
			sh.db = invdb.FromGraphShard(g, st, sh.verts)
			sh.init = sh.db.AppendLineStats(nil)
			if shOpts.CollectStats {
				sh.stats = &runStats{}
			}
			switch shOpts.Variant {
			case Basic:
				mineBasic(sh.db, shOpts, sh.stats)
			default:
				minePartial(sh.db, shOpts, sh.stats)
			}
			sh.final = sh.db.AppendLineStats(nil)
		}(sh, shOpts)
	}
	wg.Wait()
}

// appendShardStats folds a shard's run diagnostics into the merged model.
func appendShardStats(m *Model, st *runStats, shard int, refinement bool) {
	if st == nil {
		return
	}
	m.Iterations += st.iterations
	m.GainEvals += st.gainEvals
	appendPerIter(m, st.perIter, shard, refinement)
}

// appendPerIter appends a shard's merge trace to the merged model,
// renumbering iterations and tagging each with its shard.
func appendPerIter(m *Model, perIter []IterationStat, shard int, refinement bool) {
	for _, it := range perIter {
		it.Iteration = len(m.PerIter) + 1
		it.Shard = shard
		it.Refinement = refinement
		m.PerIter = append(m.PerIter, it)
	}
}

// mineEdgeCutShards is the fallback for graphs that do not decompose:
// balanced BFS regions mine concurrently (each vertex's star stays complete
// because shards draw leafsets from the global adjacency — boundary
// vertices need no replication), then the exact global database implied by
// the shard merges is reassembled and a sequential refinement pass finishes
// the search across the cut.
func mineEdgeCutShards(g *graph.Graph, opts Options, k int) *Model {
	st := mdl.NewStandardTable(g)
	shards := make([]*shardRun, 0, k)
	for _, part := range edgeCutParts(g, k) {
		if len(part) == 0 {
			continue
		}
		shards = append(shards, &shardRun{verts: part})
	}
	if len(shards) <= 1 {
		m := MineDB(invdb.FromGraph(g), g.Vocab(), opts)
		m.ShardCount = 1
		return m
	}
	runShards(g, st, opts, shards)

	// Reassemble the global database: every shard line's positions map back
	// through verts to global vertex ids; the parts partition the vertex
	// set, so each global position was generated by exactly one shard and
	// FromLineSet's position unions reconstruct the exact line frequencies.
	var init []invdb.LineStat
	var lines []invdb.RawLine
	for _, sh := range shards {
		init = append(init, sh.init...)
		for c := 0; c < sh.db.NumCoresets(); c++ {
			for _, ls := range sh.db.LeafsetIDsOf(invdb.CoresetID(c)) {
				ln := sh.db.CoresetsOf(ls)[invdb.CoresetID(c)]
				pos := make([]uint32, ln.Pos.Len())
				for i, lv := range ln.Pos {
					pos[i] = uint32(sh.verts[lv]) // verts sorted: order preserved
				}
				lines = append(lines, invdb.RawLine{
					Core: invdb.CoresetID(c),
					Leaf: sh.db.Leafsets().Values(ls),
					Pos:  intset.FromSorted(pos),
				})
			}
		}
	}
	content, corePos := invdb.SingleValueCoresets(g)
	rdb := invdb.FromLineSet(st, content, corePos, lines)

	// Refinement: continue the search sequentially on the exact global
	// state. Cross-shard candidate pairs — and intra-shard pairs whose
	// gains flip under the global frequencies — are found by re-seeding.
	var rst *runStats
	if opts.CollectStats {
		rst = &runStats{}
	}
	preDL := rdb.TotalDL()
	refOpts := opts
	refOpts.Workers = opts.workerCount()
	switch refOpts.Variant {
	case Basic:
		mineBasic(rdb, refOpts, rst)
	default:
		minePartial(rdb, refOpts, rst)
	}
	m := extractModel(rdb, g.Vocab())
	bd, bm := invdb.CanonicalDL(st, rdb.CoreCodeLen, init)
	m.BaselineDL = bd + bm
	m.ShardCount = len(shards)
	m.RefinementGain = preDL - rdb.TotalDL()
	for si, sh := range shards {
		appendShardStats(m, sh.stats, si, false)
	}
	appendShardStats(m, rst, -1, true)
	return m
}

// edgeCutParts splits the vertices into k BFS-grown regions of near-equal
// size. Seeds are the lowest unassigned vertex ids and adjacency lists are
// sorted, so the cut is a pure function of the graph.
func edgeCutParts(g *graph.Graph, k int) [][]graph.VertexID {
	n := g.NumVertices()
	target := (n + k - 1) / k
	parts := make([][]graph.VertexID, k)
	assigned := make([]bool, n)
	cur := 0
	queue := make([]graph.VertexID, 0, n)
	for seed := 0; seed < n; seed++ {
		if assigned[seed] {
			continue
		}
		assigned[seed] = true
		queue = append(queue[:0], graph.VertexID(seed))
		for qi := 0; qi < len(queue); qi++ {
			v := queue[qi]
			if len(parts[cur]) >= target && cur < k-1 {
				cur++
			}
			parts[cur] = append(parts[cur], v)
			for _, u := range g.Neighbors(v) {
				if !assigned[u] {
					assigned[u] = true
					queue = append(queue, u)
				}
			}
		}
	}
	for i := range parts {
		slices.Sort(parts[i])
	}
	return parts
}
