package cspm

import (
	"crypto/sha256"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"cspm/internal/graph"
	"cspm/internal/invdb"
	"cspm/internal/mdl"
	"cspm/internal/obs"
	"cspm/internal/shardcache"
	"cspm/internal/shardrpc"
)

// DefaultRemoteTimeout is the per-attempt wait for a shard job's result
// when DistributedOptions.Timeout is zero.
const DefaultRemoteTimeout = 30 * time.Second

// DistributedOptions configures MineDistributed: the search options every
// shard job carries plus the fan-out policy around them.
type DistributedOptions struct {
	Options

	// Transport moves shard jobs to workers: cspm-worker processes over
	// TCP, an in-process shardrpc loopback pool, or a fault-injecting
	// wrapper in tests. Nil mines the dirty groups in-process, exactly as
	// MineShardedCached does, and the retry, timeout and fallback fields
	// below are unused.
	Transport shardrpc.Transport
	// Retries is how many times one job is re-submitted after a failed
	// attempt (timeout, corrupt blob, worker error) before it falls back
	// to local mining; 0 means a single attempt per job.
	Retries int
	// Timeout bounds each attempt's wait for a result (0 = the
	// DefaultRemoteTimeout).
	Timeout time.Duration
	// NoFallback turns exhausted jobs into a *DistributedError instead of
	// mining them locally. The default (fallback on) makes MineDistributed
	// total: any transport, however lossy, yields the exact model.
	NoFallback bool
	// Cache, when non-nil, is consulted before jobs are built (hits skip
	// the transport entirely) and filled with every collected entry —
	// remote results and cache hits are interchangeable bytes, so the two
	// subsystems compose for free.
	Cache *shardcache.Cache
}

// Validate sanity-checks the distributed options.
func (o DistributedOptions) Validate() error {
	if err := o.Options.Validate(); err != nil {
		return err
	}
	if o.Retries < 0 {
		return fmt.Errorf("cspm: Retries must be >= 0, got %d", o.Retries)
	}
	if o.Timeout < 0 {
		return fmt.Errorf("cspm: Timeout must be >= 0, got %v", o.Timeout)
	}
	return nil
}

// FailedJob is one shard job that exhausted its attempts.
type FailedJob struct {
	Group int   // index of the attribute-closed component group
	Err   error // the last attempt's failure
}

// DistributedError reports the jobs a MineDistributed run could not collect
// with local fallback disabled. It wraps the per-job errors, so errors.Is
// sees through to e.g. shardrpc.ErrCorruptResult.
type DistributedError struct {
	Jobs []FailedJob
}

func (e *DistributedError) Error() string {
	if len(e.Jobs) == 1 {
		return fmt.Sprintf("cspm: distributed mining: shard job for group %d failed: %v", e.Jobs[0].Group, e.Jobs[0].Err)
	}
	return fmt.Sprintf("cspm: distributed mining: %d shard jobs failed (first: group %d: %v)", len(e.Jobs), e.Jobs[0].Group, e.Jobs[0].Err)
}

// Unwrap exposes the per-job causes to errors.Is/As.
func (e *DistributedError) Unwrap() []error {
	errs := make([]error, len(e.Jobs))
	for i, j := range e.Jobs {
		errs[i] = j.Err
	}
	return errs
}

// ExecuteShardJob mines one shard job into a cache entry — the worker side
// of distributed mining, wired as the shardrpc Handler by cmd/cspm-worker
// and by the loopback pools of tests. It is executeShardJob without the
// merge trace.
func ExecuteShardJob(job shardrpc.Job) (*shardcache.Entry, error) {
	e, _, err := executeShardJob(job)
	return e, err
}

// executeShardJob is the one group executor: it mines one shard job into
// its cache entry and merge trace, for a worker's shipped job and for
// mineLocal's unshipped one alike. The job is self-contained: the DB is
// built from the job's rows in local value ids (see jobDB), and its line
// stats are mapped back to global ids through Values, so the entry is a
// pure function of the job.
func executeShardJob(job shardrpc.Job) (*shardcache.Entry, []IterationStat, error) {
	if err := job.Validate(); err != nil {
		return nil, nil, err
	}
	opts := Options{
		Variant:          Variant(job.Variant),
		MaxIterations:    job.MaxIterations,
		DisableModelCost: job.DisableModelCost,
		Workers:          job.Workers,
	}
	if opts.Variant != Partial && opts.Variant != Basic {
		// A job from a newer coordinator must fail loudly, not silently
		// mine the default variant into a wrong-looking entry.
		return nil, nil, fmt.Errorf("cspm: shard job %d: unknown variant %d", job.ID, job.Variant)
	}
	if err := opts.Validate(); err != nil {
		return nil, nil, err
	}
	db := jobDB(job)
	stats := &runStats{}
	init := globalStats(db.AppendLineStats(nil), job.Values)
	search(db, opts, stats)
	e := &shardcache.Entry{
		Init: init, Final: globalStats(db.AppendLineStats(nil), job.Values),
		Iterations: stats.iterations, GainEvals: stats.gainEvals,
	}
	e.Normalize()
	return e, stats.perIter, nil
}

// jobDB builds the group database of a valid job in its local value ids,
// priced by the group's standard table: f counted from the rows, N the
// job's Total.
func jobDB(job shardrpc.Job) *invdb.DB {
	freq := make([]int, len(job.Values))
	for _, row := range job.Attrs {
		for _, a := range row {
			freq[a]++
		}
	}
	st := mdl.NewGroupStandardTable(freq, job.Total)
	return invdb.FromShardData(st, len(job.Values), job.Attrs, job.Adj)
}

// globalStats rewrites stats from a job's local value ids to the global ids
// values lists, in place, cutting the leaves from one slab. The map is
// monotone, so every leaf stays sorted and the stats keep their order.
func globalStats(stats []invdb.LineStat, values []graph.AttrID) []invdb.LineStat {
	n := 0
	for _, s := range stats {
		n += len(s.Leaf)
	}
	slab := make([]graph.AttrID, 0, n)
	for i, s := range stats {
		start := len(slab)
		for _, a := range s.Leaf {
			slab = append(slab, values[a])
		}
		stats[i] = invdb.LineStat{Core: invdb.CoresetID(values[s.Core]), Leaf: slab[start:len(slab):len(slab)], FL: s.FL}
	}
	return stats
}

// buildShardJobs partitions g into attribute-closed component groups and
// remaps each into a self-contained shard job, with ID the group index and
// Workers the whole budget: its values' global ids, N, and per-local-vertex
// rows of local value ids and local neighbour ids. A group's vertices are
// sorted ascending and so are its Values, so both remaps keep the order of
// global ids: the rows stay sorted and are the group's vertices in global
// id order, whoever mines them.
func buildShardJobs(g *graph.Graph, opts Options) []shardrpc.Job {
	members := graph.AttrClosedComponents(g).Members()
	total := g.AttrOccurrences()
	// A group is a union of connected components holding every occurrence
	// of its values, so one vertex remap and one value remap serve all
	// groups: each entry is written by its own group before that group
	// reads it.
	localV := make([]graph.VertexID, g.NumVertices())
	localA := make([]graph.AttrID, g.NumAttrValues())
	jobs := make([]shardrpc.Job, len(members))
	for gi, verts := range members {
		// Rows are cut from one attribute slab and one neighbour slab,
		// capped so an append to one row can never spill into the next.
		var nAttrs, nAdj int
		for li, gv := range verts {
			localV[gv] = graph.VertexID(li)
			nAttrs, nAdj = nAttrs+len(g.Attrs(gv)), nAdj+len(g.Neighbors(gv))
		}
		attrSlab, adjSlab := make([]graph.AttrID, 0, nAttrs), make([]graph.VertexID, 0, nAdj)
		attrs, adj := make([][]graph.AttrID, len(verts)), make([][]graph.VertexID, len(verts))
		for li, gv := range verts {
			a, n := len(attrSlab), len(adjSlab)
			attrSlab = append(attrSlab, g.Attrs(gv)...)
			for _, u := range g.Neighbors(gv) {
				adjSlab = append(adjSlab, localV[u])
			}
			attrs[li], adj[li] = attrSlab[a:len(attrSlab):len(attrSlab)], adjSlab[n:len(adjSlab):len(adjSlab)]
		}
		values := slices.Clone(attrSlab)
		slices.Sort(values)
		values = slices.Clip(slices.Compact(values))
		for i, a := range values {
			localA[a] = graph.AttrID(i)
		}
		for i, a := range attrSlab {
			attrSlab[i] = localA[a]
		}
		jobs[gi] = shardrpc.Job{
			ID:            uint64(gi),
			Values:        values,
			Total:         total,
			Attrs:         attrs,
			Adj:           adj,
			Variant:       int(opts.Variant),
			MaxIterations: opts.MaxIterations,
			// Workers is the evaluator budget of whoever mines the job: a
			// remote worker's cores are its own, so a shipped job carries
			// it unsplit, while mineLocal passes each group its share
			// (results are identical either way by the determinism
			// contract).
			Workers:          opts.Workers,
			DisableModelCost: opts.DisableModelCost,
		}
	}
	return jobs
}

// MineDistributed is the general entry point of the component pipeline:
// it mines g like MineShardedCached — one shard run per dirty
// attribute-closed component group, merged exactly, consulting opts.Cache
// (nil = uncached) — but returns invalid options as an error and reports
// each pipeline phase and group to rec (nil = none; see mineGroups). With a
// nil opts.Transport the dirty groups mine in-process and Model.PerIter is
// collected when asked for. With a transport they travel as shard jobs:
// failed attempts (drop, timeout, corrupt or truncated blob, worker error)
// are retried up to opts.Retries times and then mined locally, so the
// result is bit-identical to Mine(g) for every transport behaviour — or,
// with NoFallback set, a *DistributedError; never a silently wrong model.
// Responses are matched and deduplicated by job id, so a transport that
// delivers a result twice (a retry racing its late original) cannot
// double-count a group in the merge. Transport runs collect no PerIter
// trace — entries carry only the iteration totals.
//
// Options.MaxIterations caps each group's merges independently (the
// MineShardedCached semantics, not Mine's global cap).
func MineDistributed(g *graph.Graph, opts DistributedOptions, rec *obs.Recorder) (*Model, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	exec := opts.Options.mineLocal
	if opts.Transport != nil {
		exec = opts.mineRemote
	}
	return mineGroups(g, opts.Options, opts.Cache, exec, rec)
}

// mineRemote is the transport group executor: the dirty groups' jobs go
// over o.Transport as they are, retried and deduplicated by collectRemote,
// which stores each result as it accepts it. Jobs that exhaust their
// attempts are mined (and stored) in-process by mineLocal, or fail the run
// with a *DistributedError under NoFallback. No PerIter trace is
// collected, fallback runs included.
func (o DistributedOptions) mineRemote(jobs []shardrpc.Job, store storeFunc, times []mineTime, m *Model) error {
	local := o.Options
	local.CollectStats = false
	m.RemoteJobs = len(jobs)
	failed := collectRemote(jobs, o, store, times, m)
	if len(failed) == 0 {
		return nil
	}
	if o.NoFallback {
		return &DistributedError{Jobs: failed}
	}
	m.LocalFallbacks = len(failed)
	isFailed := make(map[int]bool, len(failed))
	for _, f := range failed {
		isFailed[f.Group] = true
	}
	return local.mineLocal(slices.DeleteFunc(slices.Clone(jobs), func(j shardrpc.Job) bool { return !isFailed[int(j.ID)] }), store, times, m)
}

// pendingJob tracks one dispatched shard job through its attempts.
type pendingJob struct {
	group    int
	job      shardrpc.Job
	jobSum   [sha256.Size]byte // checksum of the job as sent
	attempts int               // submissions so far
	deadline time.Time
	lastErr  error
}

// distRunSeq tags every MineDistributed run's job ids with a distinct high
// word, so a transport reused across runs (a long-lived worker fleet
// client) can never match one run's late result to another run's job: the
// stale id misses the outstanding map and is counted as a duplicate.
var distRunSeq atomic.Uint64

// collectRemote dispatches jobs over opts.Transport and collects entries,
// handing each to store as it is accepted (times[job.ID] spans first
// submission to acceptance), retrying failed attempts up to opts.Retries
// times. It returns the jobs that exhausted their attempts; everything else
// has been stored. Responses whose job is already satisfied are
// counted on m.RemoteDuplicates and dropped — the dedupe that keeps a
// duplicating transport from double-counting a group.
func collectRemote(jobs []shardrpc.Job, opts DistributedOptions, store storeFunc, times []mineTime, m *Model) []FailedJob {
	t := opts.Transport
	timeout := opts.Timeout
	if timeout == 0 {
		timeout = DefaultRemoteTimeout
	}
	maxAttempts := opts.Retries + 1
	outstanding := make(map[uint64]*pendingJob, len(jobs))
	var failed []FailedJob

	// dispatch submits p's next attempt; when the budget is spent, the job
	// moves to failed. A Submit error (every worker down) consumes attempts
	// in-place, so a fully dead transport degrades to local fallback
	// without waiting out timeouts.
	dispatch := func(p *pendingJob) {
		for p.attempts < maxAttempts {
			if p.attempts > 0 {
				m.RemoteRetries++
			}
			p.attempts++
			if err := t.Submit(p.job); err != nil {
				p.lastErr = fmt.Errorf("shard job %d: submit: %w", p.job.ID, err)
				continue
			}
			// The deadline starts only once the job is handed over: a slow
			// Submit (a TCP write stalling toward its own deadline) must
			// not eat into the documented wait-for-result budget.
			p.deadline = time.Now().Add(timeout)
			return
		}
		delete(outstanding, p.job.ID)
		failed = append(failed, FailedJob{Group: p.group, Err: p.lastErr})
	}

	// handle matches one response to its pending job: echoes of satisfied
	// jobs are counted and dropped, failures re-dispatch, successes are
	// stored. The worker's echoed job checksum must match the job
	// as sent — a transport that mutated the job in flight made the worker
	// mine the wrong shard, and its (internally consistent) entry must be
	// rejected like any other corruption.
	handle := func(res shardrpc.Result) {
		p, want := outstanding[res.JobID]
		if !want {
			m.RemoteDuplicates++
			return
		}
		if res.Err != "" {
			p.lastErr = &shardrpc.JobError{JobID: res.JobID, Msg: res.Err}
			dispatch(p)
			return
		}
		if res.JobSum != p.jobSum {
			p.lastErr = fmt.Errorf("shard job %d: %w: job mutated in transit (worker mined different input)", res.JobID, shardrpc.ErrCorruptResult)
			dispatch(p)
			return
		}
		e, err := shardrpc.DecodeEntry(res.Blob, res.Sum)
		if err != nil {
			p.lastErr = fmt.Errorf("shard job %d: %w", res.JobID, err)
			dispatch(p)
			return
		}
		times[p.group].end = time.Now()
		delete(outstanding, res.JobID)
		store(p.group, e)
	}

	runTag := distRunSeq.Add(1) << 32
	for _, job := range jobs {
		p := &pendingJob{group: int(job.ID), job: job}
		p.job.ID |= runTag
		p.jobSum = shardrpc.JobChecksum(p.job)
		outstanding[p.job.ID] = p
		times[p.group].start = time.Now()
		dispatch(p)
		// Drain whatever is already ready between dispatches: transports
		// buffer a bounded number of results (and may drop past the bound),
		// so a fleet larger than the buffer must not have every slot full
		// before we read the first one. A closed channel is left for the
		// collect loop below to diagnose.
		for draining := true; draining; {
			select {
			case res, ok := <-t.Results():
				if !ok {
					draining = false
					break
				}
				handle(res)
			default:
				draining = false
			}
		}
	}
	for len(outstanding) > 0 {
		var next time.Time
		for _, p := range outstanding {
			if next.IsZero() || p.deadline.Before(next) {
				next = p.deadline
			}
		}
		wait := time.Until(next)
		if wait < 0 {
			wait = 0
		}
		timer := time.NewTimer(wait)
		select {
		case res, ok := <-t.Results():
			timer.Stop()
			if !ok {
				// The transport shut down under us: nothing further will
				// arrive, so every outstanding job fails its remaining
				// attempts at once.
				for id, p := range outstanding {
					delete(outstanding, id)
					failed = append(failed, FailedJob{Group: p.group,
						Err: fmt.Errorf("shard job %d: %w", p.job.ID, shardrpc.ErrClosed)})
				}
				continue
			}
			handle(res)
		case <-timer.C:
			now := time.Now()
			for _, p := range outstanding {
				if !p.deadline.After(now) {
					p.lastErr = fmt.Errorf("shard job %d: no result within %v (attempt %d of %d)", p.job.ID, timeout, p.attempts, maxAttempts)
					dispatch(p)
				}
			}
		}
	}
	return failed
}
