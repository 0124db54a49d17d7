package cspm

import (
	"errors"
	"net"
	"reflect"
	"testing"
	"time"

	"cspm/internal/dataset"
	"cspm/internal/graph"
	"cspm/internal/shardcache"
	"cspm/internal/shardrpc"
)

// distTestGraph is a multi-island graph small enough for chaos scenarios
// that burn retry timeouts but large enough that every island actually
// merges patterns.
func distTestGraph(seed int64) *graph.Graph {
	return dataset.Islands(dataset.IslandsConfig{
		Seed: seed, Islands: 4, MinNodes: 10, MaxNodes: 24,
		AttrsPerIsland: 6, ExtraEdges: 0.8, AttrsPerNode: 3,
	})
}

// assertSameModel pins the bit-identical contract on the fields that are
// pure functions of the mined result (GainEvals legitimately varies with
// shard interleaving, like the sharded and cached suites document).
func assertSameModel(t *testing.T, label string, got, want *Model) {
	t.Helper()
	if got.BaselineDL != want.BaselineDL || got.FinalDL != want.FinalDL ||
		got.CondEntropy != want.CondEntropy || got.Iterations != want.Iterations {
		t.Fatalf("%s: summary diverged: got (%v, %v, %v, %d) want (%v, %v, %v, %d)", label,
			got.BaselineDL, got.FinalDL, got.CondEntropy, got.Iterations,
			want.BaselineDL, want.FinalDL, want.CondEntropy, want.Iterations)
	}
	if !reflect.DeepEqual(got.Patterns, want.Patterns) {
		t.Fatalf("%s: patterns diverged", label)
	}
}

func TestDistributedLoopbackEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 5} {
		g := distTestGraph(seed)
		want := MineWithOptions(g, Options{CollectStats: true})
		for _, workers := range []int{1, 2, 8} {
			lb := shardrpc.NewLoopback(ExecuteShardJob, workers)
			m, err := MineDistributed(g, DistributedOptions{Options: Options{Workers: workers}, Transport: lb}, nil)
			lb.Close()
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			assertSameModel(t, "loopback", m, want)
			if m.RemoteJobs == 0 || m.LocalFallbacks != 0 || m.RemoteRetries != 0 {
				t.Fatalf("seed %d workers %d: unexpected diagnostics %+v", seed, workers, m)
			}
		}
	}
}

func TestDistributedTCPEquivalence(t *testing.T) {
	g := distTestGraph(3)
	want := MineWithOptions(g, Options{CollectStats: true})

	// Two worker processes' worth of servers; the client round-robins the
	// component jobs across them.
	var addrs []string
	for i := 0; i < 2; i++ {
		srv := shardrpc.NewServer(ExecuteShardJob, 2)
		ready := make(chan net.Addr, 1)
		go srv.ListenAndServe("127.0.0.1:0", ready)
		addrs = append(addrs, (<-ready).String())
		defer srv.Close()
	}
	cl, err := shardrpc.Dial(addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	m, err := MineDistributed(g, DistributedOptions{Transport: cl}, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertSameModel(t, "tcp", m, want)
	if m.LocalFallbacks != 0 {
		t.Fatalf("healthy TCP run fell back locally %d times", m.LocalFallbacks)
	}
}

// always applies one fault to every attempt; onFirst only to each job's
// attempt 0, so the retry succeeds.
func always(f shardrpc.Fault) shardrpc.FaultPlan {
	return func(uint64, int) shardrpc.Fault { return f }
}

func onFirst(f shardrpc.Fault) shardrpc.FaultPlan {
	return func(_ uint64, attempt int) shardrpc.Fault {
		if attempt == 0 {
			return f
		}
		return shardrpc.FaultNone
	}
}

// TestDistributedChaosEquivalence is the equivalence-under-failure suite:
// for every fault mode the run must either converge to the bit-identical
// model (retry or local fallback) or fail with a clean typed error — never
// return a silently wrong model.
func TestDistributedChaosEquivalence(t *testing.T) {
	g := distTestGraph(7)
	want := MineWithOptions(g, Options{CollectStats: true})
	const timeout = 80 * time.Millisecond

	cases := []struct {
		name         string
		plan         shardrpc.FaultPlan
		delay        time.Duration
		retries      int
		noFallback   bool
		wantErr      bool
		minRetries   int
		minFallbacks int
	}{
		{name: "clean", plan: always(shardrpc.FaultNone)},
		{name: "drop-once-retry", plan: onFirst(shardrpc.FaultDrop), retries: 1, minRetries: 1},
		{name: "drop-always-fallback", plan: always(shardrpc.FaultDrop), retries: 1, minRetries: 1, minFallbacks: 1},
		{name: "drop-always-nofallback", plan: always(shardrpc.FaultDrop), noFallback: true, wantErr: true},
		{name: "duplicate-all", plan: always(shardrpc.FaultDuplicate)},
		{name: "corrupt-once-retry", plan: onFirst(shardrpc.FaultCorrupt), retries: 1, minRetries: 1},
		{name: "corrupt-always-fallback", plan: always(shardrpc.FaultCorrupt), retries: 1, minRetries: 1, minFallbacks: 1},
		{name: "corrupt-always-nofallback", plan: always(shardrpc.FaultCorrupt), noFallback: true, wantErr: true},
		{name: "truncate-once-retry", plan: onFirst(shardrpc.FaultTruncate), retries: 1, minRetries: 1},
		{name: "worker-error-once-retry", plan: onFirst(shardrpc.FaultError), retries: 1, minRetries: 1},
		{name: "worker-error-always-nofallback", plan: always(shardrpc.FaultError), noFallback: true, wantErr: true},
		{name: "slow-worker-retry", plan: onFirst(shardrpc.FaultDelay), delay: 400 * time.Millisecond, retries: 1, minRetries: 1},
		{name: "disconnect-midstream-fallback", plan: func(jobID uint64, attempt int) shardrpc.Fault {
			// Job ids carry a per-run tag in the high word; the low word
			// is the component-group index.
			if jobID&0xffffffff == 1 && attempt == 0 {
				return shardrpc.FaultDisconnect
			}
			return shardrpc.FaultNone
		}, minFallbacks: 1},
		{name: "disconnect-midstream-nofallback", plan: func(jobID uint64, attempt int) shardrpc.Fault {
			// Job ids carry a per-run tag in the high word; the low word
			// is the component-group index.
			if jobID&0xffffffff == 1 && attempt == 0 {
				return shardrpc.FaultDisconnect
			}
			return shardrpc.FaultNone
		}, noFallback: true, wantErr: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ch := shardrpc.NewChaos(shardrpc.NewLoopback(ExecuteShardJob, 2), tc.plan, tc.delay)
			defer ch.Close()
			m, err := MineDistributed(g, DistributedOptions{
				Options:    Options{},
				Transport:  ch,
				Retries:    tc.retries,
				Timeout:    timeout,
				NoFallback: tc.noFallback,
			}, nil)
			if tc.wantErr {
				if err == nil {
					t.Fatal("fault swallowed: run reported success")
				}
				var derr *DistributedError
				if !errors.As(err, &derr) || len(derr.Jobs) == 0 {
					t.Fatalf("not a typed DistributedError: %v", err)
				}
				if m != nil {
					t.Fatal("model returned alongside an error")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			assertSameModel(t, tc.name, m, want)
			if m.RemoteRetries < tc.minRetries {
				t.Fatalf("retries %d, want >= %d", m.RemoteRetries, tc.minRetries)
			}
			if m.LocalFallbacks < tc.minFallbacks {
				t.Fatalf("fallbacks %d, want >= %d", m.LocalFallbacks, tc.minFallbacks)
			}
		})
	}
}

// TestDistributedChaosErrorTypes pins the error taxonomy: corruption
// surfaces as shardrpc.ErrCorruptResult and a worker-side failure as a
// *shardrpc.JobError, both reachable through the DistributedError wrapper.
func TestDistributedChaosErrorTypes(t *testing.T) {
	g := distTestGraph(7)
	run := func(plan shardrpc.FaultPlan) error {
		ch := shardrpc.NewChaos(shardrpc.NewLoopback(ExecuteShardJob, 2), plan, 0)
		defer ch.Close()
		_, err := MineDistributed(g, DistributedOptions{
			Transport: ch, Timeout: 80 * time.Millisecond, NoFallback: true,
		}, nil)
		return err
	}
	if err := run(always(shardrpc.FaultCorrupt)); !errors.Is(err, shardrpc.ErrCorruptResult) {
		t.Fatalf("corrupt blobs not tagged ErrCorruptResult: %v", err)
	}
	var je *shardrpc.JobError
	if err := run(always(shardrpc.FaultError)); !errors.As(err, &je) {
		t.Fatalf("worker failure not a JobError: %v", err)
	}
}

// duplicatingTransport executes every job synchronously and delivers its
// result twice — the deterministic skeleton of the retry-plus-late-original
// race. The buffered channel holds every delivery before the collector
// reads the first one.
type duplicatingTransport struct {
	out chan shardrpc.Result
}

func (d *duplicatingTransport) Submit(job shardrpc.Job) error {
	e, err := ExecuteShardJob(job)
	if err != nil {
		d.out <- shardrpc.Result{JobID: job.ID, Err: err.Error()}
		return nil
	}
	blob, sum, err := shardrpc.EncodeEntry(e)
	if err != nil {
		return err
	}
	res := shardrpc.Result{JobID: job.ID, Blob: blob, Sum: sum}
	d.out <- res
	d.out <- res
	return nil
}

func (d *duplicatingTransport) Results() <-chan shardrpc.Result { return d.out }
func (d *duplicatingTransport) Close() error                    { return nil }

// TestDistributedDeduplicatesDoubleDelivery is the double-count regression:
// a transport that delivers every shard result twice must produce the same
// model (and the same iteration totals) as the clean run, with the echoes
// counted and dropped.
func TestDistributedDeduplicatesDoubleDelivery(t *testing.T) {
	g := distTestGraph(11)
	want := MineWithOptions(g, Options{CollectStats: true})
	groups := graph.AttrClosedComponents(g)
	tr := &duplicatingTransport{out: make(chan shardrpc.Result, 4*groups.Count)}
	m, err := MineDistributed(g, DistributedOptions{Transport: tr}, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertSameModel(t, "duplicated", m, want)
	// Submission is synchronous here and the collector drains between
	// dispatches, so every job's echo is read and discarded: exactly one
	// counted duplicate per job, none double-counted into the merge.
	if m.RemoteDuplicates != groups.Count {
		t.Fatalf("RemoteDuplicates = %d, want %d", m.RemoteDuplicates, groups.Count)
	}
	if m.Iterations != want.Iterations {
		t.Fatalf("iterations double-counted: %d vs %d", m.Iterations, want.Iterations)
	}
}

// closingTransport accepts submissions and then closes its results channel
// — a transport dying mid-run.
type closingTransport struct{ out chan shardrpc.Result }

func (c *closingTransport) Submit(shardrpc.Job) error       { return nil }
func (c *closingTransport) Results() <-chan shardrpc.Result { return c.out }
func (c *closingTransport) Close() error                    { return nil }

func TestDistributedTransportDeath(t *testing.T) {
	g := distTestGraph(13)
	want := MineWithOptions(g, Options{CollectStats: true})

	// Results channel closes immediately: with fallback the model is still
	// exact, without it the run fails with the typed error.
	dead := &closingTransport{out: make(chan shardrpc.Result)}
	close(dead.out)
	m, err := MineDistributed(g, DistributedOptions{Transport: dead, Timeout: time.Second}, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertSameModel(t, "dead transport", m, want)
	if m.LocalFallbacks == 0 {
		t.Fatal("dead transport produced no fallbacks")
	}

	dead2 := &closingTransport{out: make(chan shardrpc.Result)}
	close(dead2.out)
	if _, err := MineDistributed(g, DistributedOptions{Transport: dead2, Timeout: time.Second, NoFallback: true}, nil); !errors.Is(err, shardrpc.ErrClosed) {
		t.Fatalf("transport death not reported as ErrClosed: %v", err)
	}

	// A transport whose Submit itself fails (closed loopback) degrades the
	// same way without waiting out any timeout.
	lb := shardrpc.NewLoopback(ExecuteShardJob, 1)
	lb.Close()
	start := time.Now()
	m, err = MineDistributed(g, DistributedOptions{Transport: lb, Timeout: time.Hour}, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertSameModel(t, "submit-dead transport", m, want)
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("submit-dead transport waited out timeouts: %v", elapsed)
	}
}

func TestDistributedCacheComposition(t *testing.T) {
	g := distTestGraph(17)
	want := MineWithOptions(g, Options{CollectStats: true})
	groups := graph.AttrClosedComponents(g)
	cache := shardcache.New()

	lb := shardrpc.NewLoopback(ExecuteShardJob, 2)
	defer lb.Close()
	cold, err := MineDistributed(g, DistributedOptions{Cache: cache, Transport: lb}, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertSameModel(t, "cold", cold, want)
	if cold.CacheMisses != groups.Count || cold.RemoteJobs != groups.Count {
		t.Fatalf("cold run diagnostics: %+v", cold)
	}

	// Warm run over a transport that would fail every job: with every
	// group a cache hit, no job is ever built, so the hostile transport is
	// never consulted — remote results and cache hits are the same bytes.
	ch := shardrpc.NewChaos(shardrpc.NewLoopback(ExecuteShardJob, 1), always(shardrpc.FaultDrop), 0)
	defer ch.Close()
	warm, err := MineDistributed(g, DistributedOptions{Cache: cache, Transport: ch,
		Timeout: 50 * time.Millisecond, NoFallback: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertSameModel(t, "warm", warm, want)
	if warm.CacheHits != groups.Count || warm.RemoteJobs != 0 {
		t.Fatalf("warm run diagnostics: %+v", warm)
	}

	// Eviction accounting mirrors the cached miner: after two runs over
	// other graphs, a run drops g's entries and must report them.
	runs := shardcache.New()
	var last *Model
	for _, h := range []*graph.Graph{g, distTestGraph(18), distTestGraph(19)} {
		if last, err = MineDistributed(h, DistributedOptions{Cache: runs}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if last.CacheEvictions != groups.Count {
		t.Fatalf("CacheEvictions = %d, want %d", last.CacheEvictions, groups.Count)
	}

	// The distributed cache fill must interoperate with the cached miner:
	// a MineShardedCached run over the same cache is fully warm.
	cachedRun := MineShardedCached(g, Options{}, cache)
	if cachedRun.CacheMisses != 0 {
		t.Fatalf("cached miner re-mined %d groups after a distributed fill", cachedRun.CacheMisses)
	}
	assertSameModel(t, "cached-after-distributed", cachedRun, want)
}

func TestDistributedOptionsValidate(t *testing.T) {
	g := distTestGraph(1)
	for _, opts := range []DistributedOptions{
		{Retries: -1},
		{Timeout: -time.Second},
		{Options: Options{Workers: -1}},
		{Options: Options{MaxIterations: -2}},
	} {
		if _, err := MineDistributed(g, opts, nil); err == nil {
			t.Fatalf("invalid options %+v accepted", opts)
		}
	}
}

func TestExecuteShardJobRejectsMalformedJobs(t *testing.T) {
	g := distTestGraph(1)
	groups := graph.AttrClosedComponents(g)
	members := groups.Members()
	st := mineStandardFreqs(g)
	good := buildShardJob(g, st, Options{}, 0, members[0])
	if _, err := ExecuteShardJob(good); err != nil {
		t.Fatalf("well-formed job rejected: %v", err)
	}
	for name, mut := range map[string]func(*shardrpc.Job){
		"freqs mismatch":  func(j *shardrpc.Job) { j.STFreqs = j.STFreqs[:1] },
		"unknown variant": func(j *shardrpc.Job) { j.Variant = 42 },
		"bad workers":     func(j *shardrpc.Job) { j.Workers = -1 },
	} {
		j := buildShardJob(g, st, Options{}, 0, members[0])
		mut(&j)
		if _, err := ExecuteShardJob(j); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// mineStandardFreqs mirrors MineDistributed's global-context extraction for
// job-construction tests.
func mineStandardFreqs(g *graph.Graph) []int {
	freqs := make([]int, g.NumAttrValues())
	for v := 0; v < g.NumVertices(); v++ {
		for _, a := range g.Attrs(graph.VertexID(v)) {
			freqs[a]++
		}
	}
	return freqs
}

// replayableTransport executes jobs synchronously and can replay every
// result it ever produced — the deterministic skeleton of a long-lived
// fleet connection delivering one run's late results into the next run.
type replayableTransport struct {
	out     chan shardrpc.Result
	history []shardrpc.Result
}

func (r *replayableTransport) Submit(job shardrpc.Job) error {
	res := execFakeResult(job)
	r.history = append(r.history, res)
	r.out <- res
	return nil
}

func (r *replayableTransport) Results() <-chan shardrpc.Result { return r.out }
func (r *replayableTransport) Close() error                    { return nil }

// execFakeResult runs the real handler and wraps the entry the way a
// worker would.
func execFakeResult(job shardrpc.Job) shardrpc.Result {
	jobSum, err := shardrpc.JobChecksum(job)
	if err != nil {
		return shardrpc.Result{JobID: job.ID, Err: err.Error()}
	}
	e, err := ExecuteShardJob(job)
	if err != nil {
		return shardrpc.Result{JobID: job.ID, JobSum: jobSum, Err: err.Error()}
	}
	blob, sum, err := shardrpc.EncodeEntry(e)
	if err != nil {
		return shardrpc.Result{JobID: job.ID, JobSum: jobSum, Err: err.Error()}
	}
	return shardrpc.Result{JobID: job.ID, JobSum: jobSum, Blob: blob, Sum: sum}
}

// TestDistributedStaleResultsAcrossRuns pins the run-scoping of job ids: a
// transport reused for a second MineDistributed call over a DIFFERENT
// graph delivers every result of the first run again, and the second run
// must shrug them off as duplicates — not match them to its own jobs, not
// mistake them for corruption, and above all not merge them.
func TestDistributedStaleResultsAcrossRuns(t *testing.T) {
	g1, g2 := distTestGraph(19), distTestGraph(23)
	want2 := MineWithOptions(g2, Options{CollectStats: true})
	tr := &replayableTransport{out: make(chan shardrpc.Result, 256)}
	if _, err := MineDistributed(g1, DistributedOptions{Transport: tr}, nil); err != nil {
		t.Fatal(err)
	}
	stale := len(tr.history)
	// The first run's results arrive again, ahead of the second run's own.
	for _, res := range tr.history {
		tr.out <- res
	}
	tr.history = nil
	m, err := MineDistributed(g2, DistributedOptions{Transport: tr}, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertSameModel(t, "second run", m, want2)
	if m.RemoteDuplicates != stale {
		t.Fatalf("RemoteDuplicates = %d, want the %d stale results", m.RemoteDuplicates, stale)
	}
	if m.RemoteRetries != 0 || m.LocalFallbacks != 0 {
		t.Fatalf("stale results were misread as failures: %d retries, %d fallbacks", m.RemoteRetries, m.LocalFallbacks)
	}
}

// mutatingTransport corrupts each job BEFORE the worker mines it — the
// fault the result checksum alone cannot see, because the worker
// faithfully checksums its own wrong output. The mutation (one more
// occurrence of a carried value in the standard table) keeps the job
// valid, so it reaches the search.
type mutatingTransport struct {
	out chan shardrpc.Result
}

func (mt *mutatingTransport) Submit(job shardrpc.Job) error {
	job.STFreqs = append([]int(nil), job.STFreqs...)
	job.STFreqs[job.Attrs[0][0]]++
	mt.out <- execFakeResult(job)
	return nil
}

func (mt *mutatingTransport) Results() <-chan shardrpc.Result { return mt.out }
func (mt *mutatingTransport) Close() error                    { return nil }

// TestDistributedRejectsMutatedJobs: a job flipped in flight decodes,
// validates and mines cleanly on the worker, so only the echoed job
// checksum can unmask it. The run must fall back to exact local mining (or
// report corruption with fallback off) — never merge the wrong shard.
func TestDistributedRejectsMutatedJobs(t *testing.T) {
	g := distTestGraph(29)
	want := MineWithOptions(g, Options{CollectStats: true})
	groups := graph.AttrClosedComponents(g)
	m, err := MineDistributed(g, DistributedOptions{
		Transport: &mutatingTransport{out: make(chan shardrpc.Result, 64)},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertSameModel(t, "mutated jobs", m, want)
	if m.LocalFallbacks != groups.Count {
		t.Fatalf("LocalFallbacks = %d, want every group (%d)", m.LocalFallbacks, groups.Count)
	}
	_, err = MineDistributed(g, DistributedOptions{
		Transport:  &mutatingTransport{out: make(chan shardrpc.Result, 64)},
		NoFallback: true,
	}, nil)
	if !errors.Is(err, shardrpc.ErrCorruptResult) {
		t.Fatalf("mutated jobs not reported as corruption: %v", err)
	}
}
