package cspm

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

	"cspm/internal/graph"
	"cspm/internal/invdb"
	"cspm/internal/shardcache"
	"cspm/internal/slim"
)

// Variant selects the search strategy. Both produce compressing a-star
// models; Partial is the optimised algorithm evaluated in the paper (§V).
type Variant int

const (
	// Partial is CSPM-Partial (Algorithms 3–4): after each merge only the
	// gains related to the merged pair are refreshed.
	Partial Variant = iota
	// Basic is CSPM-Basic (Algorithms 1–2): every iteration regenerates the
	// full candidate list.
	Basic
)

func (v Variant) String() string {
	if v == Basic {
		return "CSPM-Basic"
	}
	return "CSPM-Partial"
}

// Options configures a mining run. CSPM is parameter-free: the zero value
// (Partial variant, single-value coresets, no iteration cap, gain evaluation
// across all cores) reproduces the paper's default behaviour, and the
// remaining knobs exist for experiments and safety rails, not for result
// tuning.
type Options struct {
	Variant Variant
	// MaxIterations caps merge iterations (0 = unlimited). Used only by
	// tests and benchmarks that need bounded runs.
	MaxIterations int
	// CollectStats enables per-iteration gain-update bookkeeping (Fig. 5).
	// It is cheap and on by default in Mine.
	CollectStats bool
	// DisableModelCost drops the L(M) term from merge gains, leaving the
	// pure Eq. 9 data gain. Exposed for the ablation benchmark; the default
	// (false) is the documented reconstruction.
	DisableModelCost bool
	// Workers parallelises the passes that price every co-occurring pair —
	// CSPM-Partial's seed and each CSPM-Basic iteration — across goroutines
	// (the paper's future-work item 3, at shared-memory scale). Each worker
	// sweeps its share of the leafsets with its own EvalScratch arena; the
	// sweeps are pure reads of the inverted database, so merges and
	// Partial's per-merge refresh stay sequential. 0 (the default) uses all
	// cores; 1 forces serial evaluation; negative values are rejected by
	// Validate. Results are bit-identical regardless of the worker count.
	// The component pipeline (MineShardedCached, and MineDistributed
	// without a transport) treats Workers as the TOTAL budget: at most
	// Workers component groups mine at once, splitting it between them. A
	// shard job sent over a transport carries Workers unsplit, since a
	// remote worker's cores are its own.
	Workers int
}

// Validate sanity-checks options.
func (o Options) Validate() error {
	if o.MaxIterations < 0 {
		return fmt.Errorf("cspm: MaxIterations must be >= 0, got %d", o.MaxIterations)
	}
	if o.Workers < 0 {
		return fmt.Errorf("cspm: Workers must be >= 0, got %d", o.Workers)
	}
	return nil
}

// workerCount resolves Options.Workers: 0 means one evaluator per core.
func (o Options) workerCount() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Mine runs CSPM on an attributed graph with single-value coresets and
// default options (CSPM-Partial). This is the parameter-free entry point.
func Mine(g *graph.Graph) *Model {
	return MineWithOptions(g, Options{CollectStats: true})
}

// MineWithOptions runs CSPM on g with explicit options. It panics if opts
// fails Validate.
func MineWithOptions(g *graph.Graph, opts Options) *Model {
	if err := opts.Validate(); err != nil {
		panic(err)
	}
	db := invdb.FromGraph(g)
	return MineDB(db, g.Vocab(), opts)
}

// MineDB runs the merge search on a prepared inverted database. The caller
// supplies the vocabulary used for rendering patterns (nil is allowed when
// patterns are consumed as AttrIDs only). It panics if opts fails Validate.
//
// The reported BaselineDL and FinalDL are computed through the canonical
// summation order (invdb.CanonicalDL): bit-identical for any search that
// reaches the same final database, which is what lets the component
// pipeline promise bit-identical models (see DESIGN.md "Sharded mining").
func MineDB(db *invdb.DB, vocab *graph.Vocab, opts Options) *Model {
	if err := opts.Validate(); err != nil {
		panic(err)
	}
	baseStats := db.AppendLineStats(nil)
	var st *runStats
	if opts.CollectStats {
		st = &runStats{}
	}
	search(db, opts, st)
	m := dbModel(db, vocab, baseStats)
	if st != nil {
		m.Iterations = st.iterations
		m.GainEvals = st.gainEvals
		m.PerIter = st.perIter
	}
	return m
}

// search runs opts.Variant's merge search on db, recording into st when it
// is non-nil: the one variant switch, behind MineDB and executeShardJob.
func search(db *invdb.DB, opts Options, st *runStats) {
	switch opts.Variant {
	case Basic:
		mineBasic(db, opts, st)
	default:
		minePartial(db, opts, st)
	}
}

// dbModel assembles a searched database's model from its initial and live
// lines through mergeEntryStats, with the database's own coresets.
func dbModel(db *invdb.DB, vocab *graph.Vocab, init []invdb.LineStat) *Model {
	m := &Model{Vocab: vocab}
	e := &shardcache.Entry{Init: init, Final: db.AppendLineStats(nil)}
	e.Normalize()
	mergeEntryStats(m, db.StandardTable(), db.CoreValues, db.CoreCodeLen, []*shardcache.Entry{e})
	return m
}

// MineMultiCore runs the §IV-F general mode: multi-value coresets are first
// selected by SLIM on the vertex-attribute transaction database, then
// a-stars are mined over them with CSPM-Partial. Still parameter-free.
func MineMultiCore(g *graph.Graph) (*Model, error) {
	res := slim.Mine(slim.VertexTransactions(g), slim.Options{})
	coresets, positions := slim.ItemsetsAsCoresets(res)
	db, err := invdb.FromGraphWithCoresets(g, coresets, positions)
	if err != nil {
		return nil, err
	}
	return MineDB(db, g.Vocab(), Options{CollectStats: true}), nil
}

// runStats accumulates the diagnostics surfaced on Model.
type runStats struct {
	iterations int
	gainEvals  int
	perIter    []IterationStat
}

func (st *runStats) record(db *invdb.DB, updates, possible int, gain float64) {
	if st == nil {
		return
	}
	st.iterations++
	st.gainEvals += updates
	ratio := 0.0
	if possible > 0 {
		ratio = float64(updates) / float64(possible)
	}
	st.perIter = append(st.perIter, IterationStat{
		Iteration:     st.iterations,
		GainUpdates:   updates,
		PossiblePairs: possible,
		UpdateRatio:   ratio,
		Gain:          gain,
		TotalDL:       db.TotalDL(),
	})
}

// gainOf is a pair's gain honouring the ablation switch.
func gainOf(ev invdb.MergeEval, opts Options) float64 {
	if ev.CoOccurs == 0 {
		return 0
	}
	if opts.DisableModelCost {
		return ev.DataGain
	}
	return ev.Gain
}

// evalState bundles the reusable gain-evaluation buffers of one search: the
// active-leafset list, the sweep results, and one persistent EvalScratch
// arena and result slice per worker, so repeated sweeps allocate nothing
// once warmed up.
type evalState struct {
	active    []invdb.LeafsetID
	evs       []invdb.MergeEval // the last refresh's or parallel sweepAll's results
	scratches []*invdb.EvalScratch
	parts     [][]invdb.MergeEval // per-worker sweepAll results
}

// scratch returns worker w's persistent arena, creating arenas up to it.
func (es *evalState) scratch(w int) *invdb.EvalScratch {
	for len(es.scratches) <= w {
		es.scratches = append(es.scratches, invdb.NewEvalScratch())
		es.parts = append(es.parts, nil)
	}
	return es.scratches[w]
}

// sweepAll prices every unordered pair of leafsets that share a coreset —
// the only pairs that can ever have positive gain (paper §V) — exactly
// once, by sweeping each active leafset p against its partners q > p. The
// leafsets are dealt round-robin to up to opts.workerCount() goroutines,
// each with its own scratch and result slice, and the slices are
// concatenated, each in its leafsets' ascending id order. Every MergeEval
// is a pure function of (db, pair), so callers that choose by (gain desc,
// packed key asc) reach the same decisions for any worker count.
func (es *evalState) sweepAll(db *invdb.DB, opts Options) []invdb.MergeEval {
	active := db.AppendActiveLeafsets(es.active)
	es.active = active
	workers := max(1, min(opts.workerCount(), len(active)))
	es.scratch(workers - 1)
	sweep := func(w int) {
		out := es.parts[w][:0]
		for i := w; i < len(active); i += workers {
			p := active[i]
			out = db.SweepMerges(out, p, p+1, p, es.scratches[w])
		}
		es.parts[w] = out
	}
	if workers == 1 {
		sweep(0)
		return es.parts[0]
	}
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sweep(w)
		}()
	}
	wg.Wait()
	es.evs = es.evs[:0]
	for _, part := range es.parts[:workers] {
		es.evs = append(es.evs, part...)
	}
	return es.evs
}

// mineBasic is Algorithm 1: regenerate all candidates each iteration, merge
// the best pair, repeat until nothing compresses. Ties on gain resolve to
// the smallest packed pair key, the candidate heap's order.
func mineBasic(db *invdb.DB, opts Options, st *runStats) {
	es := &evalState{}
	for iter := 0; opts.MaxIterations == 0 || iter < opts.MaxIterations; iter++ {
		n := db.NumActiveLeafsets()
		possible := n * (n - 1) / 2
		evs := es.sweepAll(db, opts)
		var bestKey uint64
		bestGain := 0.0
		for _, ev := range evs {
			g := gainOf(ev, opts)
			if k := pairKey(ev.X, ev.Y); g > bestGain || (g == bestGain && g > 0 && k < bestKey) {
				bestGain, bestKey = g, k
			}
		}
		if bestGain <= 0 {
			return
		}
		res := db.ApplyMerge(unpackPair(bestKey))
		st.record(db, len(evs), possible, res.Gain)
	}
}

// rdict is the related-leafset dictionary of CSPM-Partial: rdict[x] holds
// every leafset that currently forms a positive-gain candidate with x.
type rdict map[invdb.LeafsetID]map[invdb.LeafsetID]struct{}

func (r rdict) add(a, b invdb.LeafsetID) {
	if r[a] == nil {
		r[a] = make(map[invdb.LeafsetID]struct{})
	}
	r[a][b] = struct{}{}
	if r[b] == nil {
		r[b] = make(map[invdb.LeafsetID]struct{})
	}
	r[b][a] = struct{}{}
}

func (r rdict) removePair(a, b invdb.LeafsetID) {
	if m := r[a]; m != nil {
		delete(m, b)
		if len(m) == 0 {
			delete(r, a)
		}
	}
	if m := r[b]; m != nil {
		delete(m, a)
		if len(m) == 0 {
			delete(r, b)
		}
	}
}

// removeLeafset drops a leafset and all its pairs, clearing candidates too.
func (r rdict) removeLeafset(x invdb.LeafsetID, cs *candidateSet) {
	for rel := range r[x] {
		cs.Remove(x, rel)
		delete(r[rel], x)
		if len(r[rel]) == 0 {
			delete(r, rel)
		}
	}
	delete(r, x)
}

// searchState bundles the candidate heap, related-leafset dictionary and
// reusable evaluation buffers shared by minePartial and the Stepper.
type searchState struct {
	cands  *candidateSet
	rd     rdict
	popped []uint64 // distinct keys of the pairs the last step popped
	evalState
}

func newSearchState() *searchState {
	return &searchState{cands: newCandidateSet(), rd: make(rdict)}
}

// seed evaluates every co-occurring pair (across workers) and enqueues the
// positive-gain ones (Algorithm 3 line 2). The heap orders candidates by
// (gain desc, key asc), so the insertion order does not matter.
func (s *searchState) seed(db *invdb.DB, opts Options) {
	for _, ev := range s.sweepAll(db, opts) {
		if g := gainOf(ev, opts); g > 0 {
			s.cands.Set(ev.X, ev.Y, g)
			s.rd.add(ev.X, ev.Y)
		}
	}
	clear(s.parts) // refreshes never reuse the per-worker seed results
}

// refresh applies Algorithm 4's candidate updates after a committed merge,
// pricing each changed leafset against all its partners in one sweep. A
// sweep runs on the search's own goroutine: concurrency comes from mining
// component groups side by side (mineLocal), not from splitting a sweep.
func (s *searchState) refresh(db *invdb.DB, opts Options, res invdb.MergeResult) {
	// (1) Remove totally merged leafsets and their candidates.
	for _, t := range res.Total {
		s.rd.removeLeafset(t, s.cands)
	}
	// (2) Pairs with the new leafset. Algorithm 4 line 6 draws these from
	// rdict[x] ∩ rdict[y]; we sweep the leafsets co-occurring with the new
	// pattern instead — a superset of that intersection (positions of the
	// new lines lie inside both parents') that keeps Partial's search
	// aligned with Basic when a parent pair was not itself a positive
	// candidate. §V's sparsity observation still bounds the work: only
	// co-occurring leafsets are touched.
	sc := s.scratch(0)
	s.evs = db.SweepMerges(s.evs[:0], res.New, 0, res.New, sc) // never pairs p with itself
	step2 := len(s.evs)
	// (3) Pairs whose gain the merge influenced: every pair that touches a
	// partially merged leafset. Its lines shrank, so gains in both
	// directions are possible (a previously useless pair can flip positive
	// when the leftover positions align better); co-occurrence bounds the
	// work exactly as §V observes. Pairs with the new leafset were priced
	// in step 2.
	for _, p := range res.Part {
		if p != res.New {
			s.evs = db.SweepMerges(s.evs, p, 0, res.New, sc)
		}
	}
	for i, ev := range s.evs {
		if g := gainOf(ev, opts); g > 0 {
			s.cands.Set(ev.X, ev.Y, g)
			s.rd.add(ev.X, ev.Y)
		} else if i >= step2 && s.cands.Contains(ev.X, ev.Y) {
			// Step-2 pairs are additions only; a step-3 pair also clears
			// its stale candidate when the gain flipped non-positive. rdict
			// holds exactly the live candidates, so a pair absent from the
			// candidate set has nothing to clear in either.
			s.cands.Remove(ev.X, ev.Y)
			s.rd.removePair(ev.X, ev.Y)
		}
	}
}

// step is one iteration of Algorithm 3: pop the best candidate, apply it and
// refresh the candidates it affected (Algorithm 4). It returns the applied
// merge and true, or false when no candidate compresses any more. The
// distinct keys of the popped pairs are left in s.popped.
func (s *searchState) step(db *invdb.DB, opts Options) (invdb.MergeResult, bool) {
	s.popped = s.popped[:0]
	for {
		x, y, _, ok := s.cands.PopMax()
		if !ok {
			return invdb.MergeResult{}, false
		}
		// Gains of pairs untouched by a merge can only shrink (their shared
		// coreset frequencies fall), so the stored gain is an upper bound.
		// Re-evaluate lazily on pop and re-queue if another pair now leads —
		// this recovers the exact greedy order without eager refreshes.
		if k := pairKey(x, y); !slices.Contains(s.popped, k) {
			s.popped = append(s.popped, k)
		}
		g := gainOf(db.EvalMerge(x, y), opts)
		if g <= 0 {
			s.rd.removePair(x, y)
			continue
		}
		if top, live := s.cands.PeekGain(); live && g < top-1e-12 {
			s.cands.Set(x, y, g)
			continue
		}
		// A positive gain implies the pair co-occurs, so the merge shares at
		// least one coreset.
		s.rd.removePair(x, y)
		res := db.ApplyMerge(x, y)
		s.refresh(db, opts, res)
		return res, true
	}
}

// minePartial is Algorithms 3–4: seed candidates once, then after each merge
// only (1) remove candidates of totally merged leafsets, (2) evaluate the
// new leafset against the leafsets co-occurring with it, and (3) refresh
// pairs touching partially merged leafsets.
func minePartial(db *invdb.DB, opts Options, st *runStats) {
	s := newSearchState()
	s.seed(db, opts)
	for merges := 0; opts.MaxIterations == 0 || merges < opts.MaxIterations; merges++ {
		// Popping leaves the active leafsets alone, so the count before the
		// step is the count at the applied merge's iteration start.
		n := db.NumActiveLeafsets()
		res, ok := s.step(db, opts)
		if !ok {
			return
		}
		if st != nil {
			st.record(db, s.pricedPairs(), n*(n-1)/2, res.Gain)
		}
	}
}

// pricedPairs counts the distinct pairs whose gain the last step evaluated,
// which Fig. 5's update ratio reports: the popped pairs and the refresh's
// sweep results. Each sweep reports distinct partners and step 3 skips the
// new leafset, so a pair repeats in s.evs only when both its leafsets were
// swept: the merged pair (X, Y) when both parents stay partial, which was
// popped. A popped pair priced c times by the sweeps therefore adds 1 - c.
func (s *searchState) pricedPairs() int {
	n := len(s.evs)
	for _, k := range s.popped {
		x, y := unpackPair(k)
		n++
		for _, ev := range s.evs {
			if ev.X == x && ev.Y == y {
				n--
			}
		}
	}
	return n
}
