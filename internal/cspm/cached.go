package cspm

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"slices"
	"sync"
	"time"

	"cspm/internal/graph"
	"cspm/internal/invdb"
	"cspm/internal/kmerge"
	"cspm/internal/mdl"
	"cspm/internal/obs"
	"cspm/internal/shardcache"
	"cspm/internal/shardrpc"
)

// cachedSearchVersion salts every group's cache key with the mining
// algorithm's result format. Bump it whenever a change makes the search
// produce different results for the same shard job — a gain-formula fix, a
// tie-break change, a new job field that shapes results — or changes how
// the key is derived, so persistent caches written by older binaries miss
// instead of replaying stale models.
const cachedSearchVersion = 2

// groupKey is a group's cache key: SHA-256 of cachedSearchVersion, the
// graph's counts digest (countsDigest) and the checksum of the group's
// shard job with ID and Workers zeroed. A job determines its entry — ID
// only names the job and Workers only schedules its search (the
// determinism contract) — so equal keys mean equal entries. The job names
// values by global id, so an entry, which stores global ids, never replays
// under another interning.
//
// The job alone would be a sound key; the counts digest makes it stricter,
// so that an edit that changes any value's count misses every group, even
// when the edits of one run leave N where it was. The write_global
// benchmark's degenerate-run check relies on that (ROADMAP item 2a).
func groupKey(counts [sha256.Size]byte, job shardrpc.Job) shardcache.Key {
	job.ID, job.Workers = 0, 0
	sum := shardrpc.JobChecksum(job)
	return sha256.Sum256(slices.Concat([]byte{cachedSearchVersion}, counts[:], sum[:]))
}

// countsDigest hashes the graph's occurrence count of every value, in id
// order.
func countsDigest(g *graph.Graph) [sha256.Size]byte {
	freq := make([]uint64, g.NumAttrValues())
	for v := range graph.VertexID(g.NumVertices()) {
		for _, a := range g.Attrs(v) {
			freq[a]++
		}
	}
	b := binary.AppendUvarint(nil, uint64(len(freq)))
	for _, f := range freq {
		b = binary.AppendUvarint(b, f)
	}
	return sha256.Sum256(b)
}

// MineShardedCached mines g in-process by attribute-closed component
// groups through the component pipeline (see mineGroups), consulting cache
// before mining: groups whose shard job has a cached result are replayed
// from the cache, and only dirty groups are re-mined. The merged model is
// bit-identical to Mine(g) whether every group, no group, or any subset
// came from the cache, because patterns and all reported description
// lengths are pure functions of the per-group line multisets the cache
// stores (see DESIGN.md "Shard-result cache"). A nil cache mines every
// group and reports zero cache counters.
//
// Each dirty group is one shard job, mined in-process; Options.Workers is
// the total evaluation budget and bounds how many groups mine at once (see
// mineLocal). Options.MaxIterations caps each group's merges independently,
// unlike Mine's single global cap, so capped runs match only other
// component-pipeline runs. It panics if opts fails Validate or a group's
// job fails to mine; MineDistributed is the error-returning form.
func MineShardedCached(g *graph.Graph, opts Options, cache *shardcache.Cache) *Model {
	if err := opts.Validate(); err != nil {
		panic(err)
	}
	m, err := mineGroups(g, opts, cache, opts.mineLocal, nil)
	if err != nil {
		panic(err)
	}
	return m
}

// groupExecutor mines the dirty component groups' shard jobs, handing each
// group's entry to store as soon as it has it (see storeFunc), stamping
// when the group's mine started and ended in times[job.ID] and recording
// its run diagnostics (PerIter, remote counters) on m. A non-nil error
// aborts the run.
type groupExecutor func(jobs []shardrpc.Job, store storeFunc, times []mineTime, m *Model) error

// storeFunc admits the fresh entry of group (a job ID) to the run: it puts
// the entry in the cache, builds the merge order of the stored copy and
// fills the group's slot with that copy. Executors call it in the
// goroutine that has the entry (the lane that mined it, or the collector
// as it accepts a remote result), so the work overlaps with the other
// groups' mining instead of following the last one. Calls for distinct
// groups may run concurrently.
type storeFunc func(group int, e *shardcache.Entry)

type mineTime struct{ start, end time.Time } // one group's mine

// mineGroups is the one component-mining pipeline behind MineShardedCached
// and MineDistributed: partition g into attribute-closed groups, build each
// group's shard job and key it, diff the keys against cache, hand the dirty
// jobs to exec, which stores each entry in the cache, with its merge order
// built, as it arrives (storeFunc), end the cache's run (see
// shardcache.Cache.EndRun), then fold the diagnostics and merge every
// group's entry with the canonical DL accounting. The cache is written in
// memory only; a dir-backed cache's owner persists it. A nil cache mines
// through an ephemeral one and leaves the cache counters at 0, as in any
// uncached run. Each phase is reported to rec (nil = none) as an obs span
// (fingerprint: jobs and keys; diff: cache lookup; shard_mine: the dirty
// groups; merge: the model), and once every dirty group has finished, each
// group as an obs.GroupRun: mined (offset into shard_mine, mine time, gain
// evaluations) or a cache hit. The caller validates opts.
func mineGroups(g *graph.Graph, opts Options, cache *shardcache.Cache, exec groupExecutor, rec *obs.Recorder) (*Model, error) {
	counted := cache != nil
	if !counted {
		cache = shardcache.New()
	}
	t := time.Now()
	jobs := buildShardJobs(g, opts)
	counts := countsDigest(g)
	keys := make([]shardcache.Key, len(jobs))
	for gi, job := range jobs {
		keys[gi] = groupKey(counts, job)
	}
	rec.Observe(obs.SpanFingerprint, time.Since(t))

	t = time.Now()
	entries := make([]*shardcache.Entry, len(jobs))
	var dirty []shardrpc.Job
	for gi, k := range keys {
		if e, ok := cache.Get(k); ok {
			entries[gi] = e
		} else {
			dirty = append(dirty, jobs[gi])
		}
	}
	rec.Observe(obs.SpanDiff, time.Since(t))

	st, coreValues, coreCode := singleValueCoresets(g)
	m := &Model{Vocab: g.Vocab(), ShardCount: len(dirty)}
	t = time.Now()
	times := make([]mineTime, len(jobs))
	if len(dirty) > 0 {
		store := func(group int, e *shardcache.Entry) {
			// The stored copy replaces the fresh entry, so the order built
			// on it here is the one the merge and every replay reuse.
			e = cache.Put(keys[group], e)
			orderOf(e, coreValues, coreCode)
			entries[group] = e
		}
		if err := exec(dirty, store, times, m); err != nil {
			return nil, err
		}
	}
	evicted := cache.EndRun()
	rec.Observe(obs.SpanShardMine, time.Since(t))
	for gi, mt := range times {
		run := obs.GroupRun{Group: gi, Outcome: obs.GroupHit}
		if !mt.start.IsZero() {
			run = obs.GroupRun{Group: gi, Outcome: obs.GroupMined, Start: mt.start.Sub(t), Mine: mt.end.Sub(mt.start), GainEvals: entries[gi].GainEvals}
		}
		rec.ObserveGroup(run)
	}

	t = time.Now()
	if counted {
		m.CacheHits = len(jobs) - len(dirty)
		m.CacheMisses = len(dirty)
		m.CacheEvictions = evicted
	}
	for _, e := range entries {
		m.Iterations += e.Iterations
		m.GainEvals += e.GainEvals
	}
	mergeEntryStats(m, st, coreValues, coreCode, entries)
	rec.Observe(obs.SpanMerge, time.Since(t))
	return m, nil
}

// singleValueCoresets returns g's standard table and the values and code
// lengths of its single-value coresets, the ones every component group is
// mined with: coreset c is the one value c, and its code length is
// SetLen's, as in a single-value DB (SetLen adds to 0.0, so a -0 length
// reads +0).
func singleValueCoresets(g *graph.Graph) (*mdl.StandardTable, func(invdb.CoresetID) []graph.AttrID, func(invdb.CoresetID) float64) {
	st := mdl.NewStandardTable(g)
	values := make([]graph.AttrID, g.NumAttrValues())
	for a := range values {
		values[a] = graph.AttrID(a)
	}
	coreValues := func(c invdb.CoresetID) []graph.AttrID { return values[c : c+1 : c+1] }
	return st, coreValues, func(c invdb.CoresetID) float64 { return st.SetLen(coreValues(c)) }
}

// mineLocal is the in-process group executor: it mines each dirty group's
// shard job with the worker's own executor, so a local group differs from
// a remote one only in the transport it skips, and stores the entry in the
// same goroutine. Options.Workers (0 = all cores) is the total budget: at
// most that many groups mine at once, each job carrying an equal share (at
// least one evaluator), so Workers=1 mines one group at a time instead of
// oversubscribing. Each entry is a pure function of its job, and the
// traces are folded in dirty order after the barrier, so the run is
// deterministic. Each group's mine, without its store, is stamped into
// times[job.ID]. PerIter is surfaced only when the caller asked, each
// merge renumbered and tagged with its dirty-group index.
func (o Options) mineLocal(jobs []shardrpc.Job, store storeFunc, times []mineTime, m *Model) error {
	workers := o.workerCount()
	concurrent := min(workers, len(jobs))
	base, extra := workers/concurrent, workers%concurrent
	perIter := make([][]IterationStat, len(jobs))
	errs := make([]error, len(jobs))
	sem := make(chan struct{}, concurrent)
	var wg sync.WaitGroup
	for i, job := range jobs {
		job.Workers = base
		if i < extra {
			job.Workers++
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			start := time.Now()
			var e *shardcache.Entry
			e, perIter[i], errs[i] = executeShardJob(job)
			times[job.ID] = mineTime{start, time.Now()}
			if errs[i] == nil {
				store(int(job.ID), e)
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil || !o.CollectStats {
		return err
	}
	for i, trace := range perIter {
		for _, it := range trace {
			it.Iteration = len(m.PerIter) + 1
			it.Shard = i
			m.PerIter = append(m.PerIter, it)
		}
	}
	return nil
}

// mergeEntryStats, the one model assembler, folds entries into m:
// canonical baseline/final DLs, conditional entropy and the pattern list,
// all pure functions of the line multisets and the coresets' values and
// code lengths. mineGroups passes one entry per group, whether fresh,
// replayed or a remote worker's, and the single-value coresets; MineDB and
// Stepper.Snapshot pass one entry and their database's coresets. Every
// entry's lines must be normalized (invdb.Normalized).
//
// Nothing is re-sorted: each entry carries its merge order (orderOf: built
// once per entry and kept with it; a fresh group's by its store), and the
// entries' runs are k-way merged in the canonical orders (invdb.MergeRuns,
// mergePatterns), so a replayed group costs a merge step per line, not a
// sort. The entries must
// own disjoint coresets, as attribute-closed groups and a lone entry do:
// then a line's f_c is its own entry's, and an entry's pattern order is
// its slice of the model's.
func mergeEntryStats(m *Model, st *mdl.StandardTable, coreValues func(invdb.CoresetID) []graph.AttrID, coreCode func(invdb.CoresetID) float64, entries []*shardcache.Entry) {
	initRuns := make([]invdb.Run, len(entries))
	finalRuns := make([]invdb.Run, len(entries))
	orders := make([]*shardcache.Order, len(entries))
	nFinal := 0
	for i, e := range entries {
		o := orderOf(e, coreValues, coreCode)
		initRuns[i] = invdb.Run{Lines: e.Init, Leaves: o.InitLeaves}
		finalRuns[i] = invdb.Run{Lines: e.Final, Leaves: o.FinalLeaves}
		orders[i] = o
		nFinal += len(e.Final)
	}
	bd, bm, _ := invdb.MergeRuns(st, coreCode, initRuns)
	m.BaselineDL = bd + bm
	fd, fm, norm := invdb.MergeRuns(st, coreCode, finalRuns)
	m.FinalDL = fd + fm
	m.CondEntropy = invdb.CanonicalCondEntropy(norm)
	m.Patterns = mergePatterns(coreValues, finalRuns, orders, nFinal)
}

// orderOf returns e's merge order, building it with newOrder on first use.
func orderOf(e *shardcache.Entry, coreValues func(invdb.CoresetID) []graph.AttrID, coreCode func(invdb.CoresetID) float64) *shardcache.Order {
	return e.Order(func() *shardcache.Order { return newOrder(e, coreValues, coreCode) })
}

// newOrder builds an entry's merge order. It is entryOrder; tests swap in
// a counting wrapper to pin where and how often orders are built.
var newOrder = entryOrder

// entryOrder derives an entry's merge order: the leafset orders of its
// initial and final lines, and its final lines ranked as patterns. It
// panics on lines that are not normalized, which the cache, the executor
// and the remote collector all rule out.
func entryOrder(e *shardcache.Entry, coreValues func(invdb.CoresetID) []graph.AttrID, coreCode func(invdb.CoresetID) float64) *shardcache.Order {
	if !invdb.IsNormalized(e.Init) || !invdb.IsNormalized(e.Final) {
		panic("cspm: merge order of an entry whose lines are not normalized")
	}
	codes := lineCodeLens(e.Final, coreCode)
	pats := make([]int32, len(e.Final))
	for i := range pats {
		pats[i] = int32(i)
	}
	slices.SortFunc(pats, func(a, b int32) int {
		if c := cmp.Compare(codes[a], codes[b]); c != 0 {
			return c // most pairs differ in code length: skip the value lookups
		}
		la, lb := e.Final[a], e.Final[b]
		return comparePatterns(codes[a], coreValues(la.Core), la.Leaf, codes[b], coreValues(lb.Core), lb.Leaf)
	})
	lens := make([]float64, len(pats))
	for i, k := range pats {
		lens[i] = codes[k]
	}
	return &shardcache.Order{
		InitLeaves:  invdb.LeafOrder(e.Init),
		FinalLeaves: invdb.LeafOrder(e.Final),
		Patterns:    pats,
		CodeLens:    lens,
	}
}

// lineCodeLens returns the pattern code length of every line of normalized
// lines: its core's plus CondCodeLen(fL, fc), where f_c sums the core's
// line frequencies, as a database's f_c does. Replayed and freshly mined
// groups thus produce identical patterns, bit for bit.
func lineCodeLens(lines []invdb.LineStat, coreCode func(invdb.CoresetID) float64) []float64 {
	out := make([]float64, 0, len(lines))
	for i := 0; i < len(lines); {
		c := lines[i].Core
		j, fc := i, 0
		for ; j < len(lines) && lines[j].Core == c; j++ {
			fc += lines[j].FL
		}
		coreLen := coreCode(c)
		for k := i; k < j; k++ {
			out = append(out, coreLen+mdl.CondCodeLen(lines[k].FL, fc))
		}
		i = j
	}
	return out
}

// mergePatterns builds the pattern list of runs whose coresets are
// disjoint by k-way merging their pattern orders; n is the number of their
// lines. Every pattern's values are copied, not aliased (on a cache hit a
// line's leaf points into the long-lived cached entry, and patterns carry
// no read-only contract), into one slab the model owns.
func mergePatterns(coreValues func(invdb.CoresetID) []graph.AttrID, runs []invdb.Run, orders []*shardcache.Order, n int) []AStar {
	// fcs[r][k] is f_c of line k of run r's coreset.
	fcs := make([][]int, len(runs))
	slab := make([]int, 0, n)
	sizes := make([]int, len(runs))
	nVals := 0
	for r, run := range runs {
		start := len(slab)
		for i := 0; i < len(run.Lines); {
			j, fc := i, 0
			for ; j < len(run.Lines) && run.Lines[j].Core == run.Lines[i].Core; j++ {
				fc += run.Lines[j].FL
			}
			for ; i < j; i++ {
				slab = append(slab, fc)
				nVals += len(coreValues(run.Lines[i].Core)) + len(run.Lines[i].Leaf)
			}
		}
		fcs[r] = slab[start:]
		sizes[r] = len(run.Lines)
	}
	vals := make([]graph.AttrID, 0, nVals)
	carve := func(v []graph.AttrID) []graph.AttrID {
		start := len(vals)
		vals = append(vals, v...)
		return vals[start:len(vals):len(vals)]
	}
	out := make([]AStar, 0, n)
	kmerge.Merge(sizes, func(r1, i1, r2, i2 int) int {
		o1, o2 := orders[r1], orders[r2]
		if c := cmp.Compare(o1.CodeLens[i1], o2.CodeLens[i2]); c != 0 {
			return c // most pairs differ in code length: skip the value lookups
		}
		la, lb := runs[r1].Lines[o1.Patterns[i1]], runs[r2].Lines[o2.Patterns[i2]]
		return comparePatterns(o1.CodeLens[i1], coreValues(la.Core), la.Leaf, o2.CodeLens[i2], coreValues(lb.Core), lb.Leaf)
	}, func(r, i int) {
		k := orders[r].Patterns[i]
		s := runs[r].Lines[k]
		out = append(out, AStar{CoreValues: carve(coreValues(s.Core)), LeafValues: carve(s.Leaf), FL: s.FL, FC: fcs[r][k], CodeLen: orders[r].CodeLens[i]})
	})
	return out
}
