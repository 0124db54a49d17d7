// Package serve hosts mined CSPM models behind a long-running HTTP/JSON
// service: the online half of the ROADMAP's production-scale system. A
// Server owns one live attributed graph plus its mined model and answers
// every read from an immutable snapshot published by atomic pointer swap,
// so query latency never blocks on mining. Writes arrive as batched
// mutations (vertex add/remove, attribute and edge edits) appended to a
// mutation log; a background re-mine loop coalesces pending batches,
// rebuilds the graph, re-mines it through the incremental cached miner
// (only component groups whose shard job changed are re-mined) or the
// distributed miner when a transport is configured, and publishes the next
// snapshot. A failed or poisoned re-mine keeps the last good snapshot
// serving and re-queues the batch, so the service degrades to staleness,
// never to unavailability. A Host is the one HTTP surface: it registers
// Servers as named tenants, gives each its <root>/<ns>/{checkpoint,wal}
// subtree, and routes /v2/graphs/{ns}/... (and the deprecated /v1 alias of
// the default namespace) to them. See DESIGN.md "Online serving" and
// "Multi-tenant serving & API v2".
package serve

import (
	"context"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"cspm/internal/completion"
	icspm "cspm/internal/cspm"
	"cspm/internal/graph"
	"cspm/internal/obs"
	"cspm/internal/shardcache"
	"cspm/internal/shardrpc"
	"cspm/internal/wal"
)

// Options configures a Server. The zero value serves memory-only with the
// paper's parameter-free search, local re-mining and immediate
// (uncoalesced) re-mine triggering.
type Options struct {
	// Mining are the search options every re-mine runs with. Re-mines are
	// component-grained, exactly like MineShardedCached.
	Mining icspm.Options
	// Dir is the tenant directory; "" serves memory-only. Set, the server
	// is durable: a mutation batch is acknowledged only after it is fsync'd
	// into the WAL, every published re-mine checkpoints the folded state
	// (graph, shard-cache blobs, MANIFEST) and compacts the log, and
	// NewServer recovers both, so a crash never loses an acknowledged batch
	// (DESIGN.md "Durability & crash recovery"). wal.TenantDirs names the
	// two subdirectories, and the shard cache is disk-backed on the
	// checkpoint one. A Host namespace's subtree is exactly such a Dir.
	Dir string
	// Transport, when non-nil, fans dirty component groups out to remote
	// workers as shard jobs (MineDistributed's executor) instead of mining
	// them in-process.
	// The server does not close the transport; the caller owns it.
	Transport shardrpc.Transport
	// RemoteRetries, RemoteTimeout and RemoteNoFallback mirror
	// DistributedOptions when Transport is set.
	RemoteRetries    int
	RemoteTimeout    time.Duration
	RemoteNoFallback bool
	// Debounce is how long the re-mine loop waits after a trigger before
	// collecting the pending batch, so bursts of mutations coalesce into
	// one re-mine. 0 re-mines as soon as the loop is free.
	Debounce time.Duration
	// RetryBackoff is the base delay after a failed re-mine before retrying
	// the re-queued batch, so acknowledged mutations are never stranded
	// waiting for the next external trigger. Consecutive failures back off
	// exponentially (with deterministic jitter) from this base up to
	// RetryBackoffMax, so a persistently dead fleet is not retry-stormed.
	// 0 uses a 1s default.
	RetryBackoff time.Duration
	// RetryBackoffMax caps the exponential retry backoff. 0 uses a 30s
	// default; it is raised to RetryBackoff if set below it.
	RetryBackoffMax time.Duration
	// WALSegmentBytes is the WAL's segment rotation threshold
	// (0 = wal.DefaultSegmentBytes).
	WALSegmentBytes int64
	// WALFS overrides the filesystem the WAL runs on (nil = the real one).
	// Recovery tests inject a fault-injecting shim here; requires Dir.
	WALFS wal.FS
	// Standby makes NewServer refuse to cold-start: it must find durable
	// state under Dir — a committed checkpoint or acknowledged batches in
	// the log — to promote, so a warm spare pointed at a primary's directory
	// can never silently come up empty. With a checkpoint present the base
	// graph argument may be nil. Requires Dir.
	Standby bool
	// Budget, when non-nil, is the shared re-mine worker budget this server
	// draws every mining pass (initial mine, re-mines, the shutdown drain)
	// from. A multi-tenant Host hands every tenant the same Budget so one
	// namespace's mutation storm queues behind the budget instead of
	// starving the rest; queries never touch it. Nil is unbounded.
	Budget *Budget
	// Follow, when non-nil, makes this server a FOLLOWER: instead of mining
	// mutations it pulls each generation the named leader publishes, verifies
	// every shipped artifact against the MANIFEST's SHA-256 commitments, and
	// mirrors the leader's WAL tail so promotion loses no acknowledged batch.
	// Followers serve all read endpoints locally and reject mutations with
	// ErrNotLeader. Requires Dir (the mirrored checkpoint and log);
	// incompatible with Standby.
	Follow *FollowOptions
	// Logger receives the server's structured component logs (log/slog). A
	// multi-tenant Host hands every tenant a logger pre-tagged with its
	// namespace. Nil discards — observability is strictly opt-in and the
	// zero Options stays silent.
	Logger *slog.Logger
}

// defaultRetryBackoff and defaultRetryBackoffMax pace automatic retries of
// a failed re-mine: exponential from the base, capped at the max.
const (
	defaultRetryBackoff    = time.Second
	defaultRetryBackoffMax = 30 * time.Second
)

// retryDelay is the wait before retry number `failures` (1-based count of
// consecutive failures): base·2^(failures-1), capped at max, with a
// deterministic ±12.5% jitter derived from the failure count so concurrent
// servers desynchronise without any shared randomness and tests can pin the
// exact schedule.
func retryDelay(base, max time.Duration, failures uint64) time.Duration {
	if base <= 0 {
		base = defaultRetryBackoff
	}
	if max <= 0 {
		max = defaultRetryBackoffMax
	}
	if max < base {
		max = base
	}
	d := base
	for i := uint64(1); i < failures && d < max; i++ {
		// Clamp BEFORE doubling: past max/2 the next doubling would reach or
		// overshoot max — and for a max above MaxInt64/2 it would overflow
		// time.Duration negative, escaping a clamp that only checks d > max.
		if d > max/2 {
			d = max
			break
		}
		d *= 2
	}
	if d > max {
		d = max
	}
	if span := int64(d / 8); span > 0 {
		h := failures * 0x9E3779B97F4A7C15 // splitmix64 increment: cheap avalanche
		j := time.Duration(int64(h%uint64(2*span+1)) - span)
		if j > max-d {
			// A positive jitter may not push past max; adding first and
			// clamping after would overflow when d is already near MaxInt64.
			j = max - d
		}
		d += j
	}
	return d
}

// Validate sanity-checks the options.
func (o Options) Validate() error {
	if err := o.Mining.Validate(); err != nil {
		return err
	}
	if o.RemoteRetries < 0 {
		return fmt.Errorf("serve: RemoteRetries must be >= 0, got %d", o.RemoteRetries)
	}
	if o.RemoteTimeout < 0 {
		return fmt.Errorf("serve: RemoteTimeout must be >= 0, got %v", o.RemoteTimeout)
	}
	if o.Debounce < 0 {
		return fmt.Errorf("serve: Debounce must be >= 0, got %v", o.Debounce)
	}
	if o.RetryBackoff < 0 {
		return fmt.Errorf("serve: RetryBackoff must be >= 0, got %v", o.RetryBackoff)
	}
	if o.RetryBackoffMax < 0 {
		return fmt.Errorf("serve: RetryBackoffMax must be >= 0, got %v", o.RetryBackoffMax)
	}
	if o.WALSegmentBytes < 0 {
		return fmt.Errorf("serve: WALSegmentBytes must be >= 0, got %d", o.WALSegmentBytes)
	}
	if o.WALFS != nil && o.Dir == "" {
		return fmt.Errorf("serve: WALFS requires Dir")
	}
	if o.Standby && o.Dir == "" {
		return fmt.Errorf("serve: Standby requires Dir to promote from")
	}
	if o.Follow != nil {
		if o.Follow.Leader == "" {
			return fmt.Errorf("serve: Follow requires a leader URL")
		}
		if o.Dir == "" {
			return fmt.Errorf("serve: Follow requires Dir (the mirrored checkpoint and log)")
		}
		if o.Standby {
			return fmt.Errorf("serve: Follow and Standby are exclusive (a follower IS a continuously-warmed standby)")
		}
		if o.Follow.Poll < 0 {
			return fmt.Errorf("serve: Follow.Poll must be >= 0, got %v", o.Follow.Poll)
		}
	}
	return nil
}

// Snapshot is one immutable serving state: a graph generation, the model
// mined from it, and the completion scorer built over both. Handlers load
// exactly one snapshot per request, so every response is internally
// consistent — the generation it reports is the generation its patterns
// and scores came from. A snapshot copies no pattern: the multi-leaf page
// reads Model.Patterns through an index of positions built at publish, so
// Go callers wanting that view call Model.MultiLeaf().
type Snapshot struct {
	// Generation counts published snapshots: 1 is the initial mine, and
	// each successful re-mine increments it.
	Generation uint64
	// Graph is the graph this snapshot's model was mined from.
	Graph *graph.Graph
	// Model is the mined model, bit-identical to Mine(Graph).
	Model *icspm.Model
	// Scorer ranks candidate attribute values with Model (Algorithm 5).
	Scorer *completion.Scorer
	// PublishedAt is when the snapshot was swapped in.
	PublishedAt time.Time
	// ModelSHA256 is the name-canonical model commitment (the same digest
	// checkpoint manifests record), computed once at publish so /watch
	// can hand clients a generation plus the model bytes it stands for.
	ModelSHA256 string

	// multiLeaf is Model.MultiLeafIndex(), computed once at publish: the
	// multileaf page and its count read Model.Patterns through it, so they
	// cost the read path nothing and the snapshot copies no pattern.
	multiLeaf []int32
}

// newSnapshot assembles one immutable serving state. sum is
// modelChecksum(model): a caller that has just verified the model against
// that digest passes it rather than hashing the model again.
func newSnapshot(gen uint64, g *graph.Graph, model *icspm.Model, sum string) *Snapshot {
	return &Snapshot{
		Generation: gen, Graph: g, Model: model,
		Scorer:      completion.NewScorer(model, g),
		PublishedAt: time.Now(),
		ModelSHA256: sum,
		multiLeaf:   model.MultiLeafIndex(),
	}
}

// Server is one tenant's long-running pattern-serving state. It serves HTTP
// only through a Host. All exported methods and the handlers are safe for
// concurrent use.
type Server struct {
	opts  Options
	cache *shardcache.Cache
	snap  atomic.Pointer[Snapshot]
	met   metrics

	// Durable state under Options.Dir (all zero on a memory-only server):
	// the checkpoint and log directories wal.TenantDirs derives, and the
	// log itself, opened once by recoverStartup and never replaced.
	ckptDir      string
	logDir       string
	wl           *wal.Log
	subMu        sync.Mutex    // serialises submits so WAL order = log order
	subVerts     int           // vertex count after every accepted batch; guarded by subMu
	rec          RecoveryStats // what NewServer recovered; fixed at startup
	ckptModelSum string        // verified checkpoint's model commitment

	// Observability (PR 10). log never nil (Nop when unconfigured); traces
	// records per-batch lifecycle events keyed by batch sequence; profiles
	// keeps the stage breakdown of recent re-mine passes. followerID is the
	// identity a follower sends on every replication pull so the leader can
	// report per-follower state; lastCkptGen is the generation of the last
	// committed checkpoint (what a replication pull ships).
	log         *slog.Logger
	traces      *obs.TraceRing
	profiles    *obs.ProfileRing
	followerID  string
	lastCkptGen atomic.Uint64
	folMu       sync.Mutex
	followers   map[string]*followerState

	// Replication state. walPos shadows the WAL's last appended sequence in
	// an atomic so metrics and the replication handlers never take the
	// log's lock (a follower's mirror reset rewinds it). walTail holds the
	// unfolded records a leader ships to followers; lastLeaderGen is the
	// newest generation a follower has seen its leader publish (lag = that
	// minus the served generation). followCtx cancels every in-flight pull
	// when the follower closes.
	tailMu        sync.Mutex
	walTail       []wal.Record
	tailIDs       map[uint64]string // trace IDs of tail records, shipped to followers
	walPos        atomic.Uint64
	lastLeaderGen atomic.Uint64
	followCtx     context.Context
	followCancel  context.CancelFunc

	mu            sync.Mutex
	closed        bool          // set by Close; rejects further mutation submits
	pending       []Mutation    // mutations not yet collected into a re-mine batch
	mutSeq        uint64        // total mutations accepted
	minedSeq      uint64        // mutations covered by the published snapshot
	failSeq       uint64        // mutations covered by the latest failed attempt
	attempts      uint64        // completed re-mine attempts (success or failure)
	consecFails   uint64        // consecutive failed attempts; drives the backoff
	batchSeq      uint64        // last batch sequence: the WAL's when durable, 1, 2, 3… otherwise
	foldedBatches uint64        // batches covered by the published snapshot
	ckptBatches   uint64        // batches covered by the last committed checkpoint
	lastErr       error         // latest re-mine failure, nil after a success
	notify        chan struct{} // closed and replaced on every publish or failure

	wake      chan struct{}
	quit      chan struct{}
	done      chan struct{}
	draining  chan struct{} // closed by Drain; unblocks /watch long-polls
	drainOnce sync.Once
	closeOnce sync.Once
	closeErr  error
}

// NewServer validates opts, recovers any durable state under Dir (the
// checkpoint, then unfolded batches in the WAL — see DESIGN.md "Durability &
// crash recovery"), mines the recovered graph synchronously for the first
// snapshot, and starts the background re-mine loop. Callers must Close the
// server to stop the loop (and checkpoint when Dir is set). g may be nil
// only when Standby is set and a committed checkpoint supplies the graph.
func NewServer(g *graph.Graph, opts Options) (*Server, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	s := &Server{
		opts:      opts,
		log:       opts.Logger,
		traces:    obs.NewTraceRing(0),
		profiles:  obs.NewProfileRing(0),
		followers: make(map[string]*followerState),
		notify:    make(chan struct{}),
		wake:      make(chan struct{}, 1),
		quit:      make(chan struct{}),
		done:      make(chan struct{}),
		draining:  make(chan struct{}),
	}
	if s.log == nil {
		s.log = obs.Nop()
	}
	if s.durable() {
		s.ckptDir, s.logDir = wal.TenantDirs(opts.Dir)
		cache, err := shardcache.Open(s.ckptDir)
		if err != nil {
			return nil, err
		}
		s.cache = cache
	} else {
		s.cache = shardcache.New()
	}
	if opts.Follow != nil {
		// The follower's stable identity on every replication pull: lets the
		// leader report per-follower fetch state in /replication/status.
		s.followerID = obs.NewTraceID()
		// Followers bootstrap from the leader BEFORE recovery: install its
		// current checkpoint (verified in memory first) if the local mirror
		// is missing or older, then recover through the exact same
		// commit-then-verify path a restart of the leader itself would take.
		s.followCtx, s.followCancel = context.WithCancel(context.Background())
		if err := s.followBootstrap(); err != nil {
			return nil, err
		}
	}
	base, gen, err := s.recoverStartup(g)
	if err != nil {
		return nil, err
	}
	// Batches recovered from the WAL fold into the initial snapshot below
	// (and the ring holds no traces for them anyway): the first checkpoint
	// traces only batches submitted after startup.
	s.ckptBatches = s.batchSeq
	s.subVerts = base.NumVertices()
	// The initial mine draws from the shared budget too: a fleet recovering
	// (or bulk-creating) many namespaces mines them at the budget's pace,
	// not all at once. The slot is held across the recovery verification,
	// which may re-mine cold on a checksum mismatch.
	opts.Budget.acquire()
	model, err := s.mine(base)
	if err != nil {
		opts.Budget.release()
		return nil, fmt.Errorf("serve: initial mine: %w", err)
	}
	model, err = s.verifyRecoveredModel(base, model)
	opts.Budget.release()
	if err != nil {
		return nil, err
	}
	snap := newSnapshot(gen, base, model, modelChecksum(model))
	s.snap.Store(snap)
	if s.Role() == RoleLeader {
		// Commit the recovered state immediately: replayed batches fold into
		// a fresh checkpoint and their segments compact away, so the next
		// restart (or a standby on the same directory) starts clean.
		if err := s.checkpoint(snap); err != nil {
			return nil, fmt.Errorf("serve: startup checkpoint: %w", err)
		}
	}
	s.log.Info("serving",
		"role", s.Role(),
		"gen", snap.Generation,
		"vertices", base.NumVertices(),
		"replayed_batches", s.rec.ReplayedBatches,
		"checkpoint", s.rec.Checkpoint)
	if opts.Follow != nil {
		go s.followLoop()
	} else {
		go s.loop()
	}
	return s, nil
}

// Snapshot returns the currently served snapshot. The returned value and
// everything it references are immutable.
func (s *Server) Snapshot() *Snapshot { return s.snap.Load() }

// Cache exposes the server's shard-result cache (for stats and warm-start
// inspection).
func (s *Server) Cache() *shardcache.Cache { return s.cache }

// durable reports whether the server keeps a checkpoint and a WAL under
// Options.Dir.
func (s *Server) durable() bool { return s.opts.Dir != "" }

// SubmitMutations validates muts and appends them to the mutation log,
// triggering a background re-mine. The batch is all-or-nothing: the first
// invalid mutation rejects the whole slice and nothing is enqueued. Vertex
// ops change |V|, so validation runs against the count implied by every
// previously accepted batch (not the published snapshot, which may lag) and
// threads the running count through the batch — a mutation may reference a
// vertex added earlier in its own batch.
//
// On a durable server (Options.Dir set), a nil return means the batch is
// DURABLE: it was fsync'd into the log before being enqueued, and recovery
// replays it if the process dies before a snapshot folds it in. A failed
// append returns ErrUnavailable (wrapped) and the batch is not accepted.
func (s *Server) SubmitMutations(muts []Mutation) error {
	_, err := s.submit(muts, "")
	return err
}

// submit is SubmitMutations with lifecycle tracing: traceID is the client's
// X-Request-Id (or "" to skip correlation), and the returned sequence is the
// batch's trace key — the WAL sequence on durable servers, 1, 2, 3… on
// memory-only ones — queryable at /debug/trace/{seq}.
func (s *Server) submit(muts []Mutation, traceID string) (uint64, error) {
	if len(muts) == 0 {
		return 0, fmt.Errorf("serve: empty mutation batch")
	}
	if f := s.opts.Follow; f != nil {
		s.met.mutationsRejected.Add(uint64(len(muts)))
		return 0, fmt.Errorf("%w (leader: %s)", ErrNotLeader, f.Leader)
	}
	// subMu serialises validate+append+enqueue so WAL order is exactly
	// mutation-log order — recovery replay then rebuilds the same graph a
	// crash-free run would have — and so the vertex count each batch is
	// validated against is the one it will actually apply to.
	s.subMu.Lock()
	defer s.subMu.Unlock()
	delta, err := validateBatch(muts, s.subVerts)
	if err != nil {
		s.met.mutationsRejected.Add(uint64(len(muts)))
		return 0, fmt.Errorf("serve: %w", err)
	}
	s.mu.Lock()
	closed, seq := s.closed, s.batchSeq+1
	s.mu.Unlock()
	if closed {
		s.met.mutationsRejected.Add(uint64(len(muts)))
		return 0, fmt.Errorf("serve: server closed, mutations not accepted")
	}
	if s.durable() {
		// Durable: the WAL assigns the sequence. It equals batchSeq+1,
		// because batchSeq tracks the log's last record.
		payload, err := encodeBatch(muts)
		if err != nil {
			s.met.mutationsRejected.Add(uint64(len(muts)))
			return 0, err
		}
		if seq, err = s.wl.Append(payload); err != nil {
			s.met.walAppendErrors.Add(1)
			s.met.mutationsRejected.Add(uint64(len(muts)))
			return 0, fmt.Errorf("%w: %v", ErrUnavailable, err)
		}
		s.met.walAppends.Add(1)
		s.walPos.Store(seq)
		// Every durable server that accepts writes leads: it keeps the
		// unfolded tail in memory so followers mirror acknowledged batches
		// without the leader re-reading its own log.
		s.appendTail(seq, payload, traceID)
	}
	s.mu.Lock()
	s.pending = append(s.pending, muts...)
	s.mutSeq += uint64(len(muts))
	s.batchSeq = seq
	s.mu.Unlock()
	s.subVerts += delta
	s.met.mutationsAccepted.Add(uint64(len(muts)))
	s.traces.Start(seq, traceID, len(muts), obs.StageSubmitted, 0, "")
	if s.durable() {
		s.traces.Record(seq, obs.StageWALAppended, 0, "")
	}
	s.log.Debug("mutations accepted", "batch", seq, "trace", traceID, "mutations", len(muts))
	s.trigger()
	return seq, nil
}

// PendingMutations reports how many accepted mutations the published
// snapshot does not cover yet (log backlog plus any in-flight batch).
func (s *Server) PendingMutations() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int(s.mutSeq - s.minedSeq)
}

// Flush triggers a re-mine of everything submitted before the call and
// blocks until a snapshot covering it is published (nil), the attempt
// covering it fails (the re-mine error; the batch stays queued for the
// next trigger), or ctx expires.
func (s *Server) Flush(ctx context.Context) error {
	s.mu.Lock()
	target, before := s.mutSeq, s.attempts
	s.mu.Unlock()
	for {
		s.mu.Lock()
		mined, failed, att, lastErr := s.minedSeq, s.failSeq, s.attempts, s.lastErr
		ch, backlog := s.notify, len(s.pending)
		s.mu.Unlock()
		if mined >= target {
			return nil
		}
		if att > before && failed >= target && lastErr != nil {
			return lastErr
		}
		if backlog > 0 {
			s.trigger()
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("serve: flush of %d mutations interrupted: %w", target, ctx.Err())
		case <-s.done:
			// One final check: a last publish may have landed between the
			// progress check above and the loop shutting down.
			s.mu.Lock()
			mined = s.minedSeq
			s.mu.Unlock()
			if mined >= target {
				return nil
			}
			return fmt.Errorf("serve: server closed before %d mutations were mined", target)
		case <-ch:
		}
	}
}

// AwaitGeneration blocks until the served snapshot's generation reaches gen
// or ctx expires.
func (s *Server) AwaitGeneration(ctx context.Context, gen uint64) error {
	for {
		s.mu.Lock()
		ch := s.notify
		s.mu.Unlock()
		if s.snap.Load().Generation >= gen {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("serve: awaiting generation %d (at %d): %w", gen, s.snap.Load().Generation, ctx.Err())
		case <-s.done:
			if s.snap.Load().Generation >= gen {
				return nil
			}
			return fmt.Errorf("serve: server closed at generation %d awaiting %d", s.snap.Load().Generation, gen)
		case <-ch:
		}
	}
}

// Drain unblocks every /watch long-poll immediately (each responds with
// the currently served generation). It is idempotent and safe to call at
// any time; wire it into http.Server.RegisterOnShutdown so watchers release
// at the START of a graceful drain instead of holding Shutdown open until
// their timeouts lapse. Close drains too, so embedders without an HTTP host
// need not call it.
func (s *Server) Drain() {
	s.drainOnce.Do(func() { close(s.draining) })
}

// Close stops the re-mine loop (letting an in-flight re-mine finish),
// runs one final re-mine over any still-pending acknowledged mutations so
// a graceful shutdown never silently discards a 202-acked batch, and, on a
// durable server, checkpoints the served state (folded graph, cache blobs,
// MANIFEST) so the next server — or a warm standby — promotes without a
// cold re-mine; folded segments are compacted and the log is closed last. Close is idempotent and does not drain HTTP requests
// — the owning http.Server's Shutdown does that first, which is exactly
// what lets mutations accepted mid-drain reach the final re-mine. The one
// exception is /watch long-polls: Close (like Drain) releases them
// immediately, so a shutdown never waits out a 30s poll.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.Drain()
		s.mu.Lock()
		s.closed = true
		s.mu.Unlock()
		close(s.quit)
		if s.followCancel != nil {
			// Abort any in-flight pull so the follow loop notices quit now
			// instead of after a long-poll lapses.
			s.followCancel()
		}
		<-s.done
		// A follower neither mines nor checkpoints at shutdown: the installed
		// leader checkpoint IS its durable commit (re-marshalling one locally
		// would re-stamp the leader's fold bookkeeping), and the mirror WAL
		// already holds every acknowledged batch past it.
		if s.opts.Follow == nil && s.PendingMutations() > 0 && !s.remine() {
			s.mu.Lock()
			s.closeErr = fmt.Errorf("serve: %d acknowledged mutations not mined at shutdown: %w",
				len(s.pending), s.lastErr)
			s.mu.Unlock()
		}
		if s.Role() == RoleLeader {
			if err := s.checkpoint(s.snap.Load()); err != nil && s.closeErr == nil {
				s.closeErr = err
			}
		}
		if s.durable() {
			if err := s.wl.Close(); err != nil && s.closeErr == nil {
				s.closeErr = err
			}
		}
	})
	return s.closeErr
}

// trigger nudges the re-mine loop without blocking (the buffered token
// collapses concurrent triggers into one pass).
func (s *Server) trigger() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// loop is the background re-mine scheduler: wait for a trigger, let the
// debounce window coalesce follow-up mutations, then run one re-mine.
func (s *Server) loop() {
	defer close(s.done)
	for {
		select {
		case <-s.quit:
			return
		case <-s.wake:
		}
		if d := s.opts.Debounce; d > 0 {
			t := time.NewTimer(d)
			select {
			case <-s.quit:
				t.Stop()
				return
			case <-t.C:
			}
		}
		if !s.remine() {
			// The batch was re-queued; retry after a backoff instead of
			// waiting for the next external trigger, so acknowledged
			// mutations are never stranded behind a transient failure.
			// Consecutive failures back off exponentially so a dead fleet
			// is probed, not hammered.
			s.mu.Lock()
			failures := s.consecFails
			s.mu.Unlock()
			t := time.NewTimer(retryDelay(s.opts.RetryBackoff, s.opts.RetryBackoffMax, failures))
			select {
			case <-s.quit:
				t.Stop()
				return
			case <-t.C:
			}
			s.trigger()
		}
	}
}

// remine collects the pending batch, rebuilds the graph, mines it, and
// publishes the next snapshot, reporting whether the pass succeeded (an
// empty batch is a successful no-op). On failure the batch is re-queued at
// the front of the log (order preserved) and the last good snapshot keeps
// serving; the loop retries after a backoff.
func (s *Server) remine() bool {
	// Take a shared-budget slot BEFORE collecting the batch: mutations that
	// land while this tenant queues behind other tenants' mining coalesce
	// into the pass instead of forcing a follow-up one.
	s.opts.Budget.acquire()
	defer s.opts.Budget.release()
	s.mu.Lock()
	batch := s.pending
	s.pending = nil
	covered := s.mutSeq
	prevBatch, coveredBatch := s.foldedBatches, s.batchSeq
	s.mu.Unlock()
	if len(batch) == 0 {
		return true
	}
	cur := s.snap.Load()
	s.traces.RecordRange(prevBatch, coveredBatch, obs.StageRemineStart, cur.Generation, "")
	rec := obs.NewRecorder()
	start := time.Now()
	next, model, err := s.rebuildAndMine(cur.Graph, batch, rec)
	if err != nil {
		s.met.remineFailures.Add(1)
		s.profiles.Add(rec.Finish(0, int(coveredBatch-prevBatch), err))
		s.log.Warn("remine failed", "gen", cur.Generation, "mutations", len(batch), "err", err)
		s.mu.Lock()
		s.pending = append(batch, s.pending...)
		s.failSeq = covered
		s.attempts++
		s.consecFails++
		s.lastErr = err
		s.broadcastLocked()
		s.mu.Unlock()
		return false
	}
	elapsed := time.Since(start)
	s.traces.RecordRange(prevBatch, coveredBatch, obs.StageFolded, cur.Generation+1, "")
	var snap *Snapshot
	rec.Time(obs.SpanPublish, func() {
		snap = newSnapshot(cur.Generation+1, next, model, modelChecksum(model))
		s.snap.Store(snap)
	})
	s.met.remines.Add(1)
	s.met.remineNanosTotal.Add(elapsed.Nanoseconds())
	s.met.remineNanosLast.Store(elapsed.Nanoseconds())
	s.mu.Lock()
	s.minedSeq = covered
	s.foldedBatches = coveredBatch
	s.attempts++
	s.consecFails = 0
	s.lastErr = nil
	s.broadcastLocked()
	s.mu.Unlock()
	s.traces.RecordRange(prevBatch, coveredBatch, obs.StagePublished, snap.Generation, "")
	if s.durable() {
		// Checkpoint-then-compact: once the folded state is committed in the
		// checkpoint dir, the WAL segments holding those batches may go. A
		// failed checkpoint is non-fatal — the log simply keeps the batches
		// and the next publish (or Close) tries again.
		var cerr error
		rec.Time(obs.SpanCheckpoint, func() { cerr = s.checkpoint(snap) })
		if cerr != nil {
			s.met.persistErrors.Add(1)
			s.log.Warn("checkpoint failed", "gen", snap.Generation, "err", cerr)
		}
	}
	s.profiles.Add(rec.Finish(snap.Generation, int(coveredBatch-prevBatch), nil))
	s.log.Info("remine published", "gen", snap.Generation, "mutations", len(batch),
		"seconds", elapsed.Seconds())
	return true
}

// broadcastLocked wakes every Flush/AwaitGeneration waiter. Caller holds
// s.mu.
func (s *Server) broadcastLocked() {
	close(s.notify)
	s.notify = make(chan struct{})
}

// rebuildAndMine applies batch and mines the result under one recover, so a
// poisoned batch — whether it breaks the rebuild or the search — degrades to
// staleness (the batch re-queues, the last good snapshot keeps serving)
// instead of killing the re-mine loop.
func (s *Server) rebuildAndMine(g *graph.Graph, batch []Mutation, rec *obs.Recorder) (next *graph.Graph, model *icspm.Model, err error) {
	defer func() {
		if r := recover(); r != nil {
			next, model, err = nil, nil, fmt.Errorf("serve: rebuild panicked: %v", r)
		}
	}()
	rec.Time(obs.SpanRebuild, func() { next = Rebuild(g, batch) })
	model, err = s.mineProfiled(next, rec)
	return next, model, err
}

// mine runs one search over g through the configured path, converting
// panics into errors so a poisoned re-mine degrades to staleness instead of
// killing the serving process.
func (s *Server) mine(g *graph.Graph) (*icspm.Model, error) {
	return s.mineProfiled(g, nil)
}

// mineProfiled is mine with per-stage timing: when rec is non-nil, the
// component pipeline reports its fingerprint/diff/shard_mine/merge phases
// into it, whether the dirty groups mine in-process or over the transport.
func (s *Server) mineProfiled(g *graph.Graph, rec *obs.Recorder) (model *icspm.Model, err error) {
	defer func() {
		if r := recover(); r != nil {
			model, err = nil, fmt.Errorf("serve: re-mine panicked: %v", r)
		}
	}()
	return icspm.MineDistributed(g, icspm.DistributedOptions{
		Options:    s.opts.Mining,
		Transport:  s.opts.Transport,
		Retries:    s.opts.RemoteRetries,
		Timeout:    s.opts.RemoteTimeout,
		NoFallback: s.opts.RemoteNoFallback,
		Cache:      s.cache,
	}, rec)
}
