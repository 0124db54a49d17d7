package cspm

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"slices"
	"sync"
	"time"

	"cspm/internal/graph"
	"cspm/internal/invdb"
	"cspm/internal/mdl"
	"cspm/internal/obs"
	"cspm/internal/shardcache"
	"cspm/internal/shardrpc"
)

// StageObserver receives the wall-clock duration of each phase of a
// component-pipeline run, named by the obs span constants: SpanFingerprint
// (building every group's shard job and cache key), SpanDiff (cache lookup
// splitting clean from dirty groups), SpanShardMine (mining the dirty
// groups, in-process or over a transport) and SpanMerge (exact model
// merge). The serving layer's re-mine profiler plugs in here; a plain
// function type (not an Options field) keeps Options gob-encodable for the
// shardrpc wire.
type StageObserver func(stage string, d time.Duration)

func (f StageObserver) observe(stage string, since time.Time) {
	if f != nil {
		f(stage, time.Since(since))
	}
}

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

// groupExecutor mines the dirty component groups' shard jobs, each into
// its group's slot entries[job.ID], recording its run diagnostics (PerIter,
// remote counters) on m. A non-nil error aborts the run.
type groupExecutor func(jobs []shardrpc.Job, entries []*shardcache.Entry, m *Model) error

// mineGroups is the one component-mining pipeline behind MineShardedCached
// and MineDistributed: partition g into attribute-closed groups, build each
// group's shard job and key it, diff the keys against cache, hand the dirty
// jobs to exec, store their entries and end the cache's run (see
// shardcache.Cache.EndRun), then fold the diagnostics and merge every
// group's entry with the canonical DL accounting. A nil cache mines through
// an ephemeral one and leaves the cache counters at 0, as in any uncached
// run. Each phase is reported to observe (see StageObserver). The caller
// validates opts.
func mineGroups(g *graph.Graph, opts Options, cache *shardcache.Cache, exec groupExecutor, observe StageObserver) (*Model, error) {
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
	observe.observe(obs.SpanFingerprint, t)

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
	observe.observe(obs.SpanDiff, t)

	m := &Model{Vocab: g.Vocab(), ShardCount: len(dirty)}
	t = time.Now()
	if len(dirty) > 0 {
		if err := exec(dirty, entries, m); err != nil {
			return nil, err
		}
		for _, job := range dirty {
			// A failed disk write only loses persistence (the in-memory copy
			// is already stored); mining correctness is unaffected.
			_ = cache.Put(keys[job.ID], entries[job.ID])
		}
	}
	evicted := cache.EndRun()
	observe.observe(obs.SpanShardMine, t)

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
	// Coreset c is the one value c. Its code length is SetLen's, as in a
	// single-value DB: SetLen adds to 0.0, so a -0 length reads +0.
	st := mdl.NewStandardTable(g)
	mergeEntryStats(m, st,
		func(c invdb.CoresetID) []graph.AttrID { return []graph.AttrID{graph.AttrID(c)} },
		func(c invdb.CoresetID) float64 { return st.SetLen([]graph.AttrID{graph.AttrID(c)}) },
		entries)
	observe.observe(obs.SpanMerge, t)
	return m, nil
}

// mineLocal is the in-process group executor: it mines each dirty group's
// shard job with the worker's own executor, so a local group differs from
// a remote one only in the transport it skips. Options.Workers (0 = all
// cores) is the total budget: at most that many groups mine at once, each
// job carrying an equal share (at least one evaluator), so Workers=1 mines
// one group at a time instead of oversubscribing. Each entry is a pure
// function of its job, and the results are folded in dirty order after the
// barrier, so the run is deterministic. PerIter is surfaced only when the
// caller asked, each merge renumbered and tagged with its dirty-group
// index.
func (o Options) mineLocal(jobs []shardrpc.Job, entries []*shardcache.Entry, m *Model) error {
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
			entries[job.ID], perIter[i], errs[i] = executeShardJob(job)
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
// Stepper.Snapshot pass one entry and their database's coresets.
func mergeEntryStats(m *Model, st *mdl.StandardTable, coreValues func(invdb.CoresetID) []graph.AttrID, coreCode func(invdb.CoresetID) float64, entries []*shardcache.Entry) {
	var init, final []invdb.LineStat
	for _, e := range entries {
		init = append(init, e.Init...)
		final = append(final, e.Final...)
	}
	bd, bm := invdb.CanonicalDL(st, coreCode, init)
	m.BaselineDL = bd + bm
	fd, fm, cond, norm := invdb.CanonicalSummary(st, coreCode, final)
	m.FinalDL = fd + fm
	m.CondEntropy = cond
	m.Patterns = patternsFromStats(coreValues, coreCode, norm)
	sortPatterns(m.Patterns)
}

// patternsFromStats derives the a-star pattern list from a final line
// multiset already normalized by invdb.NormalizeLineStats. FC is the sum of
// the core's line frequencies (a database's f_c is that same sum), and the
// code length is the core's plus CondCodeLen(fL, fc), so replayed and
// freshly mined groups produce identical patterns, bit for bit.
func patternsFromStats(coreValues func(invdb.CoresetID) []graph.AttrID, coreCode func(invdb.CoresetID) float64, norm []invdb.LineStat) []AStar {
	out := make([]AStar, 0, len(norm))
	for i := 0; i < len(norm); {
		c := norm[i].Core
		j, fc := i, 0
		for ; j < len(norm) && norm[j].Core == c; j++ {
			fc += norm[j].FL
		}
		coreLen := coreCode(c)
		for k := i; k < j; k++ {
			out = append(out, AStar{
				CoreValues: coreValues(c),
				// Copied, not aliased: on a cache hit norm[k].Leaf points into
				// the long-lived cached entry, and patterns carry no read-only
				// contract — an aliasing caller would corrupt the cache.
				LeafValues: append([]graph.AttrID(nil), norm[k].Leaf...),
				FL:         norm[k].FL,
				FC:         fc,
				CodeLen:    coreLen + mdl.CondCodeLen(norm[k].FL, fc),
			})
		}
		i = j
	}
	return out
}
