package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	icspm "cspm/internal/cspm"
	"cspm/internal/graph"
	"cspm/internal/obs"
	"cspm/internal/shardcache"
	"cspm/internal/wal"
)

// ErrUnavailable reports that a mutation batch could not be made durable:
// the WAL append failed, so the batch was NOT accepted and the client must
// retry against a recovered server. Handlers map it to 503, not 400 — the
// request was fine, the durability layer is not.
var ErrUnavailable = errors.New("serve: durability unavailable")

// ErrNoDurableState reports that a Standby start found NOTHING to promote:
// no committed checkpoint and no acknowledged WAL batches. For a warm spare
// that is fatal (the whole point is refusing an empty cold start); for a
// multi-tenant recovery scan it marks a namespace whose create never
// completed — its directory tree is quarantined, never trusted, and the
// scan moves on.
var ErrNoDurableState = errors.New("serve: no durable state to promote")

// checkpointGraphName is the folded-graph file a checkpoint writes next to
// the cache blobs and MANIFEST in the checkpoint dir.
const checkpointGraphName = "GRAPH"

// RecoveryStats describes what NewServer found and did while recovering
// durable state, for operators deciding whether a standby promoted warm.
type RecoveryStats struct {
	// Checkpoint reports that a committed MANIFEST was found under Dir.
	Checkpoint bool
	// CheckpointGeneration is the generation the manifest committed to.
	CheckpointGeneration uint64
	// CheckpointDamaged reports that the checkpoint failed verification
	// (unreadable or checksum-mismatched graph) and was distrusted wholesale.
	CheckpointDamaged bool
	// ModelMismatch reports that the model mined over the recovered cache did
	// not match the manifest's commitment: every blob was quarantined and the
	// model re-mined cold.
	ModelMismatch bool
	// ReplayedBatches / ReplayedMutations count WAL records folded in on top
	// of the checkpoint (or the base graph) during recovery.
	ReplayedBatches   int
	ReplayedMutations int
	// QuarantinedBlobs counts cache blobs renamed aside because their bytes
	// no longer matched the manifest.
	QuarantinedBlobs int
	// TornWALTail reports that the WAL truncated a partially written record
	// (a crash mid-append; the record was never acknowledged).
	TornWALTail bool
}

// Recovery returns what NewServer recovered. The value is fixed at startup.
func (s *Server) Recovery() RecoveryStats { return s.rec }

// walBatchVersion is the payload format this binary writes. Version 1 (the
// PR 6 format) is a bare gob-encoded []Mutation from the fixed-|V| era;
// version 2 wraps the same gob stream in wal.EncodePayload framing, marking
// batches that may contain vertex add/remove ops so a v1-era binary fails
// loudly on them instead of replaying ops it does not understand.
const walBatchVersion = 2

// gob numbers types process-wide in first-use order, and the numbers are
// part of the encoded bytes. Encoding one empty batch at init gives
// []Mutation the same type ids in every process, whatever the process
// gob-encodes first (a startup checkpoint's cache blobs, say), so a batch's
// WAL bytes never depend on process history; testdata/wal_batch_v2.bin pins
// them.
func init() { _, _ = encodeBatch([]Mutation{}) }

// encodeBatch serialises one acknowledged mutation batch as a WAL payload.
func encodeBatch(muts []Mutation) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(muts); err != nil {
		return nil, fmt.Errorf("serve: encode batch: %w", err)
	}
	return wal.EncodePayload(walBatchVersion, buf.Bytes()), nil
}

// decodeBatch is the inverse of encodeBatch, and still decodes version-1
// payloads (segments written by older binaries recover cleanly; the
// fixture-pinned compatibility test holds us to it).
func decodeBatch(payload []byte) ([]Mutation, error) {
	ver, body, err := wal.DecodePayload(payload)
	if err != nil {
		return nil, fmt.Errorf("serve: decode batch: %w", err)
	}
	if ver > walBatchVersion {
		return nil, fmt.Errorf("serve: WAL batch format v%d is newer than this binary (reads up to v%d)", ver, walBatchVersion)
	}
	var muts []Mutation
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&muts); err != nil {
		return nil, fmt.Errorf("serve: decode batch: %w", err)
	}
	return muts, nil
}

// modelChecksum commits to a mined model: summary statistics plus every
// pattern, with attribute ids spelled by NAME so the digest is invariant
// under re-interning (the same logical model hashes identically no matter
// what order a recovered graph assigned its ids in).
func modelChecksum(m *icspm.Model) string {
	h := sha256.New()
	var b [8]byte
	writeF := func(x float64) { binary.LittleEndian.PutUint64(b[:], math.Float64bits(x)); h.Write(b[:]) }
	writeU := func(x uint64) { binary.LittleEndian.PutUint64(b[:], x); h.Write(b[:]) }
	writeAttrs := func(ids []graph.AttrID) {
		writeU(uint64(len(ids)))
		for _, a := range ids {
			io.WriteString(h, m.Vocab.Name(a))
			h.Write([]byte{0})
		}
	}
	writeF(m.BaselineDL)
	writeF(m.FinalDL)
	writeF(m.CondEntropy)
	writeU(uint64(len(m.Patterns)))
	for _, p := range m.Patterns {
		writeAttrs(p.CoreValues)
		writeAttrs(p.LeafValues)
		writeU(uint64(p.FL))
		writeU(uint64(p.FC))
		writeF(p.CodeLen)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// graphBytes serialises g in the graph text format (deterministic output).
func graphBytes(g *graph.Graph) ([]byte, error) {
	var buf bytes.Buffer
	if err := graph.Write(&buf, g); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func sha256Hex(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// reintern rebuilds g so its vocabulary is interned in exactly the given
// name order (then any value of g missing from order, which a consistent
// checkpoint never has). Cache keys digest each group's shard job, which
// names values by interned id, so recovering the checkpoint graph in its
// original interning order is what makes the persisted blobs hit instead of
// silently going cold.
func reintern(g *graph.Graph, order []string) *graph.Graph {
	b := graph.NewBuilder(g.NumVertices())
	vocab := b.Vocab()
	for _, name := range order {
		vocab.ID(name)
	}
	for v := 0; v < g.NumVertices(); v++ {
		for _, a := range g.Attrs(graph.VertexID(v)) {
			// Vertices are in range by construction; AddAttr cannot fail.
			_ = b.AddAttr(graph.VertexID(v), g.Vocab().Name(a))
		}
	}
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range g.Neighbors(graph.VertexID(v)) {
			if graph.VertexID(v) < u {
				_ = b.AddEdge(graph.VertexID(v), u)
			}
		}
	}
	return b.Build()
}

// loadCheckpointGraph reads and VERIFIES the checkpointed graph: its bytes
// must hash to the manifest's commitment before they are parsed or trusted,
// and the parsed graph is re-interned in the manifest's recorded vocabulary
// order so cache keys line up.
func loadCheckpointGraph(dir string, man *shardcache.Manifest) (*graph.Graph, error) {
	data, err := os.ReadFile(filepath.Join(dir, checkpointGraphName))
	if err != nil {
		return nil, fmt.Errorf("serve: checkpoint graph: %w", err)
	}
	if got := sha256Hex(data); got != man.GraphSHA256 {
		return nil, fmt.Errorf("serve: checkpoint graph checksum %s does not match manifest %s",
			got[:12], man.GraphSHA256[:12])
	}
	g, err := graph.Load(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("serve: checkpoint graph: %w", err)
	}
	return reintern(g, man.Vocab), nil
}

// recoverStartup is NewServer's durability pass, run before the initial
// mine. On a durable server it loads and verifies any checkpoint, opens the
// WAL and replays unfolded batches, and returns the graph the generation-0
// state should be mined from plus the generation to publish it as. On
// return s.wl/s.batchSeq/s.foldedBatches/s.rec are populated. A memory-only
// server gets g0 at generation 1.
//
// Failure policy: damage that loses NO acknowledged data degrades (distrust
// the checkpoint, quarantine blobs, fall back to g0 + full replay); damage
// that would silently drop an acknowledged batch — a WAL gap, a compacted
// WAL whose covering checkpoint is unusable — is a hard error, because
// serving would mean lying about writes the server acknowledged.
func (s *Server) recoverStartup(g0 *graph.Graph) (*graph.Graph, uint64, error) {
	if !s.durable() {
		if g0 == nil {
			return nil, 0, fmt.Errorf("serve: nil graph and no checkpoint to recover")
		}
		return g0, 1, nil
	}
	opts := s.opts
	base := g0
	gen := uint64(1)
	man, err := shardcache.LoadManifest(s.ckptDir)
	if err != nil {
		return nil, 0, err
	}
	if man != nil {
		s.rec.Checkpoint = true
		s.rec.CheckpointGeneration = man.Generation
		gen = man.Generation
		ckpt, cerr := loadCheckpointGraph(s.ckptDir, man)
		switch {
		case cerr == nil:
			// No |V| cross-check against g0: vertex mutations legitimately
			// drift the checkpoint's count away from the base graph's, and the
			// manifest's graph checksum already authenticates the checkpoint.
			base = ckpt
			s.ckptModelSum = man.ModelSHA256
			// Per-blob verification: a blob whose bytes drifted from the
			// manifest is quarantined so it can never poison a re-mine.
			q, verr := shardcache.VerifyBlobs(s.ckptDir, man)
			s.rec.QuarantinedBlobs += len(q)
			s.met.quarantinedBlobs.Add(uint64(len(q)))
			if verr != nil {
				return nil, 0, verr
			}
		default:
			// The checkpoint as a whole is untrustworthy. Nothing acknowledged
			// is lost yet — the WAL may still hold every batch — so degrade:
			// distrust every blob and rebuild from g0 + full replay. Whether
			// that replay actually covers the folded batches is checked below.
			s.rec.CheckpointDamaged = true
			s.met.checksumMismatches.Add(1)
			n, qerr := shardcache.QuarantineDir(s.ckptDir)
			s.rec.QuarantinedBlobs += n
			s.met.quarantinedBlobs.Add(uint64(n))
			if qerr != nil {
				return nil, 0, qerr
			}
			s.cache.Purge()
			man = nil // fall through as if no checkpoint existed
			if g0 == nil {
				return nil, 0, fmt.Errorf("serve: checkpoint unusable and no base graph given: %w", cerr)
			}
		}
	}
	if base == nil {
		if opts.Standby {
			return nil, 0, fmt.Errorf("%w: standby found no checkpoint in %q", ErrNoDurableState, s.ckptDir)
		}
		return nil, 0, fmt.Errorf("serve: nil graph and no checkpoint to recover")
	}

	l, recs, err := wal.Open(s.logDir, wal.Options{FS: opts.WALFS, SegmentBytes: opts.WALSegmentBytes})
	if err != nil {
		return nil, 0, err
	}
	s.wl = l
	s.rec.TornWALTail = l.TornTail()
	// Batches the checkpoint already folded replay as no-ops; skip them.
	var folded uint64
	if man != nil {
		folded = man.FoldedBatches
	}
	i := 0
	for i < len(recs) && recs[i].Seq <= folded {
		i++
	}
	recs = recs[i:]
	if len(recs) > 0 && recs[0].Seq != folded+1 {
		// Records between the checkpoint and the log's first survivor were
		// compacted away, but the checkpoint supposed to cover them is not
		// the one we recovered: acknowledged batches are gone.
		return nil, 0, fmt.Errorf("serve: WAL resumes at batch %d but recovered state folds only %d — acknowledged batches lost",
			recs[0].Seq, folded)
	}
	if len(recs) == 0 && l.NextSeq()-1 > folded {
		return nil, 0, fmt.Errorf("serve: WAL was compacted through batch %d but recovered state folds only %d — acknowledged batches lost",
			l.NextSeq()-1, folded)
	}
	// Sequence bookkeeping lives in the WAL's own domain: batchSeq is the
	// last record on disk.
	s.batchSeq = l.NextSeq() - 1
	s.walPos.Store(s.batchSeq)
	if opts.Follow != nil {
		// Mirror mode: the surviving records are the LEADER's unfolded
		// batches. They stay in the log so a promotion can replay them, but
		// a follower serves exactly the installed checkpoint generation —
		// replaying here would publish state the leader never committed to
		// a manifest. The gap checks above still ran: a mirror that lost
		// acknowledged records refuses to start too.
		s.foldedBatches = folded
		return base, gen, nil
	}
	// Replay validation threads the running vertex count batch to batch,
	// exactly as the submit path did when the batches were acknowledged.
	var replayed []Mutation
	n := base.NumVertices()
	for _, r := range recs {
		batch, derr := decodeBatch(r.Payload)
		if derr != nil {
			return nil, 0, fmt.Errorf("serve: WAL batch %d: %w", r.Seq, derr)
		}
		delta, verr := validateBatch(batch, n)
		if verr != nil {
			return nil, 0, fmt.Errorf("serve: WAL batch %d replays invalid mutation: %w", r.Seq, verr)
		}
		n += delta
		replayed = append(replayed, batch...)
	}
	s.rec.ReplayedBatches = len(recs)
	s.rec.ReplayedMutations = len(replayed)
	s.met.recoveredBatches.Add(uint64(len(recs)))
	// The initial snapshot folds every replayed batch, and the leader
	// re-seeds its in-memory ship tail from the same records.
	s.foldedBatches = s.batchSeq
	s.walTail = recs
	if opts.Standby && man == nil && len(recs) == 0 {
		return nil, 0, fmt.Errorf("%w: no checkpoint, empty WAL", ErrNoDurableState)
	}
	if len(replayed) > 0 {
		base = Rebuild(base, replayed)
		gen++
	}
	return base, gen, nil
}

// verifyRecoveredModel checks the freshly mined recovery model against the
// manifest's commitment (captured as s.ckptModelSum while recovering; empty
// when there is nothing to verify against). Only meaningful when the mined
// graph IS the checkpoint graph (no WAL replay on top): mining is
// deterministic, so any difference means the recovered cache replayed stale
// or tampered entries whose keys still matched. The degrade path
// quarantines every blob, purges memory, and re-mines cold — correctness
// over warmth.
func (s *Server) verifyRecoveredModel(base *graph.Graph, model *icspm.Model) (*icspm.Model, error) {
	if s.ckptModelSum == "" || s.rec.ReplayedBatches > 0 {
		return model, nil
	}
	if modelChecksum(model) == s.ckptModelSum {
		return model, nil
	}
	s.rec.ModelMismatch = true
	s.met.checksumMismatches.Add(1)
	n, qerr := shardcache.QuarantineDir(s.ckptDir)
	s.rec.QuarantinedBlobs += n
	s.met.quarantinedBlobs.Add(uint64(n))
	if qerr != nil {
		return nil, qerr
	}
	s.cache.Purge()
	remodel, merr := s.mine(base)
	if merr != nil {
		return nil, fmt.Errorf("serve: re-mine after checksum mismatch: %w", merr)
	}
	return remodel, nil
}

// checkpoint commits the served state to the checkpoint dir — folded graph,
// cache blobs, then the MANIFEST as the atomic commit point — and only then
// compacts WAL segments the checkpoint covers. Called on durable leaders
// from startup, the re-mine loop and Close, never concurrently.
func (s *Server) checkpoint(snap *Snapshot) error {
	gb, err := graphBytes(snap.Graph)
	if err != nil {
		return err
	}
	if err := shardcache.WriteFileAtomic(s.ckptDir, checkpointGraphName, gb, true); err != nil {
		return err
	}
	s.mu.Lock()
	ckptLo, folded, foldedMuts := s.ckptBatches, s.foldedBatches, s.minedSeq
	s.mu.Unlock()
	man := &shardcache.Manifest{
		Generation:      snap.Generation,
		FoldedBatches:   folded,
		FoldedMutations: foldedMuts,
		ModelSHA256:     modelChecksum(snap.Model),
		GraphSHA256:     sha256Hex(gb),
		Vocab:           snap.Graph.Vocab().Names(),
	}
	if err := s.cache.PersistManifest(man); err != nil {
		return err
	}
	// The manifest above is durable: every batch ≤ folded is recoverable
	// without the log, so the segments holding them may go.
	if err := s.wl.Compact(folded); err != nil {
		return err
	}
	// Followers can re-fetch anything ≤ folded from the checkpoint just
	// shipped, so the in-memory tail sheds it too.
	s.pruneTail(folded)
	s.met.checkpoints.Add(1)
	s.lastCkptGen.Store(man.Generation)
	s.mu.Lock()
	if folded > s.ckptBatches {
		s.ckptBatches = folded
	}
	s.mu.Unlock()
	s.traces.RecordRange(ckptLo, folded, obs.StageCheckpointed, man.Generation, "")
	s.log.Debug("checkpoint committed", "gen", man.Generation, "folded_batches", folded)
	return nil
}
