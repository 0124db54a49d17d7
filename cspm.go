// Package cspm is the public API of the CSPM library, a Go implementation
// of "Discovering Representative Attribute-stars via Minimum Description
// Length" (ICDE 2022). It mines attribute-stars — patterns of the form
// (coreset, leafset) stating that vertices carrying the core values tend to
// have neighbours carrying the leaf values — from attributed graphs, with
// no parameters to tune: model selection is driven entirely by the MDL
// principle and conditional entropy.
//
// Quick start:
//
//	b := cspm.NewBuilder(3)
//	b.AddAttr(0, "smoker")
//	b.AddAttr(1, "smoker")
//	b.AddEdge(0, 1)
//	g := b.Build()
//	model := cspm.Mine(g)
//	for _, p := range model.MultiLeaf() {
//	    fmt.Println(p.Format(g.Vocab()), p.Confidence())
//	}
//
// The implementation packages live under internal/; this package re-exports
// the stable surface as type aliases, so all returned values are fully
// usable by downstream code.
package cspm

import (
	"io"

	"cspm/internal/completion"
	icspm "cspm/internal/cspm"
	"cspm/internal/graph"
	"cspm/internal/invdb"
	"cspm/internal/krimp"
	"cspm/internal/serve"
	"cspm/internal/shardcache"
	"cspm/internal/shardrpc"
	"cspm/internal/slim"
	"cspm/internal/tensor"
)

// Graph construction and inspection.
type (
	// Graph is an immutable attributed graph (vertices carry sets of
	// nominal attribute values, edges are undirected, no self-loops).
	Graph = graph.Graph
	// Builder accumulates vertices, edges and attributes into a Graph.
	Builder = graph.Builder
	// Vocab interns attribute-value strings to dense ids.
	Vocab = graph.Vocab
	// AttrID is an interned attribute value.
	AttrID = graph.AttrID
	// VertexID is a dense vertex identifier.
	VertexID = graph.VertexID
	// Stats summarises a graph (Table II columns).
	Stats = graph.Stats
)

// NewBuilder returns a Builder for a graph with n vertices.
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// Load parses the line-oriented text format ("v id val..." / "e u v").
// An input of r records may use vertex ids below 2r only (a bare "v id"
// line names a vertex without attributes); larger ids are rejected.
func Load(r io.Reader) (*Graph, error) { return graph.Load(r) }

// Write serialises g in the format accepted by Load.
func Write(w io.Writer, g *Graph) error { return graph.Write(w, g) }

// Mining.
type (
	// Model is a mined set of a-stars ordered by ascending code length.
	Model = icspm.Model
	// AStar is one attribute-star pattern.
	AStar = icspm.AStar
	// Options tunes experiment knobs; the zero value is the paper's
	// parameter-free default (CSPM-Partial).
	Options = icspm.Options
	// Variant selects CSPM-Basic or CSPM-Partial.
	Variant = icspm.Variant
	// IterationStat records one merge iteration (Fig. 5 series).
	IterationStat = icspm.IterationStat
)

// Re-exported variant constants.
const (
	Partial = icspm.Partial
	Basic   = icspm.Basic
)

// Mine runs CSPM-Partial with single-value coresets — the parameter-free
// entry point (Algorithm 3).
func Mine(g *Graph) *Model { return icspm.Mine(g) }

// MineWithOptions runs CSPM with explicit options (variant selection,
// iteration caps, stats collection, ablations).
func MineWithOptions(g *Graph, opts Options) *Model {
	return icspm.MineWithOptions(g, opts)
}

// Incremental mining: a shard-result cache keyed by each component group's
// shard job turns repeated mining of evolving graphs into jobs that re-mine
// only changed components.
type (
	// ShardCache caches per-group mining results keyed by the digest of the
	// group's shard job — its rows, its values' global ids, the graph's
	// occurrence count N and the result-shaping options — and of the
	// graph's per-value occurrence counts, so an edit that changes any
	// value's count re-mines every group. It holds results in memory while
	// one of the last two runs used them, with an optional on-disk layer:
	// mining stores results in memory only, and Persist (or
	// PersistManifest, which also commits a checkpoint manifest) writes
	// their blobs to the cache's own directory.
	ShardCache = shardcache.Cache
	// ShardCacheStats snapshots a cache's hit/miss/eviction counters.
	ShardCacheStats = shardcache.Stats
)

// NewShardCache returns a memory-only shard-result cache, holding each
// entry while one of the last two runs used it.
func NewShardCache() *ShardCache { return shardcache.New() }

// OpenShardCache returns a shard-result cache persisted under dir (one blob
// per key, surviving process restarts and evictions from memory),
// creating the directory if needed. Mining fills the cache in memory only:
// call its Persist method after mining to write the new results' blobs,
// or a later process will not find them.
func OpenShardCache(dir string) (*ShardCache, error) { return shardcache.Open(dir) }

// MineShardedCached mines g in-process by attribute-closed component groups,
// mines the groups concurrently and merges the per-group models with exact
// description-length accounting, replaying groups whose shard jobs hit
// in cache and re-mining only dirty ones. The result is bit-identical to
// Mine(g) for every cache state, except that Options.MaxIterations caps
// each group independently rather than globally; Model.CacheHits and
// CacheMisses report what the run reused. A nil cache mines every group
// and reports zero cache counters. Options.Workers bounds how many groups
// mine at once. It panics on invalid options.
func MineShardedCached(g *Graph, opts Options, cache *ShardCache) *Model {
	return icspm.MineShardedCached(g, opts, cache)
}

// Distributed mining: shard jobs fan out over a pluggable transport to
// worker processes (cmd/cspm-worker) and the collected results merge
// through the same exact path as cache replays.
type (
	// DistributedOptions tunes MineDistributed: search options plus the
	// transport, retry, timeout and fallback policy around them.
	DistributedOptions = icspm.DistributedOptions
	// DistributedError reports the shard jobs a MineDistributed run could
	// not collect when local fallback is disabled.
	DistributedError = icspm.DistributedError
	// ShardTransport moves shard jobs to workers and results back —
	// in-process loopback, TCP to cspm-worker processes, or a custom
	// implementation (the ShardJob/ShardResult aliases make the interface
	// satisfiable outside this module).
	ShardTransport = shardrpc.Transport
	// ShardJob is one self-contained shard mining job a transport carries.
	ShardJob = shardrpc.Job
	// ShardResult is a worker's checksummed response to one ShardJob.
	ShardResult = shardrpc.Result
)

// MineDistributed is the error-returning form of MineShardedCached with
// its cache in opts.Cache. With a non-nil opts.Transport it fans one shard
// job per dirty component group over the transport, retrying failed
// attempts and falling back to local mining, so the result is
// bit-identical to Mine(g) under any transport behaviour — or, with
// NoFallback set, a typed *DistributedError. A nil Transport mines
// in-process. See DESIGN.md "Distributed shard exchange".
func MineDistributed(g *Graph, opts DistributedOptions) (*Model, error) {
	return icspm.MineDistributed(g, opts, nil)
}

// DialShardWorkers connects to cspm-worker processes at the given TCP
// addresses and returns the transport for DistributedOptions.Transport.
// Close it after mining.
func DialShardWorkers(addrs []string) (ShardTransport, error) {
	return shardrpc.Dial(addrs)
}

// Online serving: a long-running HTTP/JSON host for a mined model. Reads
// are answered from an atomically swapped immutable snapshot; mutations are
// ingested in batches and folded in by a background incremental re-mine.
type (
	// Server hosts a live graph plus its mined model: snapshot reads,
	// completion scoring and batched mutations at the Go API. It is not an
	// http.Handler: to serve a graph over HTTP, create it as a namespace of
	// a ServeHost (NewServeHost, then Create), which builds its Server.
	Server = serve.Server
	// ServerOptions configures a Server: search options, optional worker
	// transport, the re-mine coalescing window, and the durability
	// contract (Dir, the tenant directory holding the fsync'd-before-ack
	// mutation WAL and the verified checkpoint; Standby for warm-spare
	// promotion). Empty Dir serves memory-only.
	ServerOptions = serve.Options
	// ServerSnapshot is one immutable serving state: generation, graph,
	// model, and the completion scorer built over both. It copies no
	// pattern: the multi-leaf page reads the model through an internal
	// index of positions, and Go callers get that view from
	// snap.Model.MultiLeaf().
	ServerSnapshot = serve.Snapshot
	// GraphMutation is one edit submitted to a Server's mutation log:
	// attribute or edge edits, or vertex add/remove ops that grow and
	// shrink the served graph (validated per batch with a running vertex
	// count; deletes shift later ids down by one).
	GraphMutation = serve.Mutation
	// ServerWatchResponse is the GET /watch long-poll payload: the
	// published generation and its model commitment.
	ServerWatchResponse = serve.WatchResponse
	// ServerMetrics is the server's counters snapshot (GET /metrics under
	// /v2/graphs/{ns}).
	ServerMetrics = serve.MetricsSnapshot
	// ServerRecoveryStats reports what NewServer recovered from durable
	// state: checkpoint generation, replayed WAL batches, quarantined
	// blobs, and whether any commitment failed verification.
	ServerRecoveryStats = serve.RecoveryStats
)

// NewServer validates opts, recovers any durable state under
// ServerOptions.Dir (a verified checkpoint, then unfolded WAL batches),
// mines the recovered graph synchronously for the first snapshot, and
// starts the background re-mine loop. Close the returned Server to stop
// the loop (and checkpoint when Dir is set). It answers at the Go API
// only; HTTP serving goes through NewServeHost + Create. With Dir set, a
// nil error from SubmitMutations means the batch is durable — a crash
// never loses it. After each successful re-mine the served model is
// bit-identical to Mine on the mutated graph. g may be nil only when
// Standby is set and a committed checkpoint supplies the graph.
func NewServer(g *Graph, opts ServerOptions) (*Server, error) {
	return serve.NewServer(g, opts)
}

// Multi-tenant serving: one process hosting many named graphs behind the
// /v2/graphs/{ns} API, each an isolated Server with its own WAL and
// checkpoint subtree under a shared root, re-mines drawn from one bounded
// worker budget.
type (
	// ServeHost is the multi-tenant fleet member: a namespace registry plus
	// the HTTP surface (/v2/graphs admin verbs, /v2/graphs/{ns}/... per
	// tenant, and the deprecated flat /v1 alias of the "default"
	// namespace). It is an http.Handler.
	ServeHost = serve.Host
	// ServeHostOptions configures a ServeHost: the persist root every
	// namespace lives under, the tenant cap, the shared re-mine budget, and
	// the per-tenant Options template.
	ServeHostOptions = serve.HostOptions
	// ServeNamespaceInfo is one tenant's directory entry on the admin
	// surface.
	ServeNamespaceInfo = serve.NamespaceInfo
)

// DefaultServeNamespace is the namespace the deprecated flat /v1 surface
// aliases to.
const DefaultServeNamespace = serve.DefaultNamespace

// NewServeHost validates opts and, when RootDir is set, restores every
// namespace found under it (standby-style promotion from each tenant's
// checkpoint + WAL). Namespace trees with no durable state are quarantined,
// never served; any other recovery failure is fatal. Close the host to stop
// every tenant.
func NewServeHost(opts ServeHostOptions) (*ServeHost, error) {
	return serve.NewHost(opts)
}

// MineMultiCore runs the §IV-F general mode: multi-value coresets are first
// selected by SLIM on the vertex-attribute transaction database, then
// a-stars are mined over them. Still parameter-free.
func MineMultiCore(g *Graph) (*Model, error) { return icspm.MineMultiCore(g) }

// Stepper exposes the CSPM-Partial search one merge at a time (anytime
// mining: every prefix of the merge sequence is a valid lossless model).
type Stepper = icspm.Stepper

// NewStepper seeds a step-wise mining run on g.
func NewStepper(g *Graph, opts Options) *Stepper { return icspm.NewStepper(g, opts) }

// ReadModelJSON loads a model serialised with Model.WriteJSON. Passing an
// existing graph's vocabulary keeps attribute ids aligned with that graph;
// nil interns a fresh vocabulary.
func ReadModelJSON(r io.Reader, vocab *Vocab) (*Model, error) {
	return icspm.ReadJSON(r, vocab)
}

// MineMultiCoreKrimp is the §IV-F alternative using Krimp for coreset
// selection. Unlike SLIM it is not parameter-free: Krimp's candidate miner
// needs an absolute support threshold.
func MineMultiCoreKrimp(g *Graph, minSupport int) (*Model, error) {
	res, err := krimp.Mine(slim.VertexTransactions(g), krimp.Options{MinSupport: minSupport})
	if err != nil {
		return nil, err
	}
	coresets, positions := slim.CodeTableAsCoresets(res.CT)
	db, err := invdb.FromGraphWithCoresets(g, coresets, positions)
	if err != nil {
		return nil, err
	}
	return icspm.MineDB(db, g.Vocab(), Options{CollectStats: true}), nil
}

// Node attribute completion (§VI-C).
type (
	// CompletionTask hides a fraction of vertices' attributes for the
	// completion benchmark.
	CompletionTask = completion.Task
	// Scorer ranks candidate attribute values with a mined model
	// (Algorithm 5). It is safe for concurrent use.
	Scorer = completion.Scorer
	// CompletionMetrics holds Recall@K and NDCG@K.
	CompletionMetrics = completion.Metrics
	// Matrix is the dense score matrix exchanged with completion models.
	Matrix = tensor.Matrix
)

// NewCompletionTask hides testFraction of the attributed vertices.
func NewCompletionTask(g *Graph, testFraction float64, seed int64) (*CompletionTask, error) {
	return completion.NewTask(g, testFraction, seed)
}

// NewScorer builds an Algorithm 5 scorer from a mined model. It indexes
// the model once, so each ScoreNode call reads only the a-stars whose
// leafsets meet the vertex's neighbourhood; the index is immutable and the
// scorer is safe for concurrent use.
func NewScorer(model *Model, g *Graph) *Scorer { return completion.NewScorer(model, g) }

// Fuse multiplies normalised model scores with normalised CSPM scores
// (Fig. 7).
func Fuse(modelScores, cspmScores *Matrix, testNodes []VertexID) *Matrix {
	return completion.Fuse(modelScores, cspmScores, testNodes)
}

// EvaluateCompletion computes Recall@K / NDCG@K for a score matrix.
func EvaluateCompletion(task *CompletionTask, scores *Matrix, ks []int) CompletionMetrics {
	return completion.Evaluate(task, scores, ks)
}
