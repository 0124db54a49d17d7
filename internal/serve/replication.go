package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"cspm/internal/obs"
	"cspm/internal/shardcache"
	"cspm/internal/wal"
)

// Replication layer: a leader exposes its checkpoint state — MANIFEST,
// folded GRAPH bytes, cache blobs, and the WAL tail past the fold — over
// /replication/* read endpoints, and a follower pulls each published
// generation, verifies EVERY artifact against the MANIFEST's SHA-256
// commitments before swapping its served snapshot, and mirrors the leader's
// WAL tail under the leader's own sequence numbers so promoting the
// follower loses no acknowledged batch. The MANIFEST is shipped as raw
// bytes and installed last, so a follower's checkpoint directory is
// bit-identical to the leader's and recovers through the exact same
// commit-then-verify path. See DESIGN.md "Replication & fleet roles".

// Server roles on the replication fleet.
const (
	// RoleStandalone serves memory-only, without durable state to ship: it
	// can neither lead nor follow.
	RoleStandalone = "standalone"
	// RoleLeader mines, publishes, and ships checkpoints. Every durable
	// server that is not following is a leader — having zero followers is
	// just a fleet of one.
	RoleLeader = "leader"
	// RoleFollower pulls, verifies, and serves the leader's generations;
	// mutations are rejected (or proxied by the host) with not_leader.
	RoleFollower = "follower"
)

// ErrNotLeader rejects a mutation submitted to a follower: writes go to the
// leader (the error message names it).
var ErrNotLeader = errors.New("serve: not the leader")

// ErrNotFollower rejects promoting a tenant that is not following anyone.
var ErrNotFollower = errors.New("serve: not a follower")

// FollowOptions configures a follower Server.
type FollowOptions struct {
	// Leader is the leader tenant's base URL — the mount the replication
	// endpoints live under, e.g. "http://leader:8080/v2/graphs/prod".
	Leader string
	// Poll bounds the watch long-poll driving the pull loop and paces the
	// WAL-tail mirror (0 = 500ms). Smaller = lower replication lag, more
	// leader round-trips.
	Poll time.Duration
	// Client is the HTTP client of every pull (nil = http.DefaultClient).
	Client *http.Client
}

// defaultFollowPoll bounds a follower's watch long-poll when FollowOptions
// names none.
const defaultFollowPoll = 500 * time.Millisecond

func (f *FollowOptions) poll() time.Duration {
	if f.Poll > 0 {
		return f.Poll
	}
	return defaultFollowPoll
}

// Role reports which side of the replication protocol this server is on.
func (s *Server) Role() string {
	switch {
	case s.opts.Follow != nil:
		return RoleFollower
	case s.durable():
		return RoleLeader
	default:
		return RoleStandalone
	}
}

// ReplicationStatusResponse is the GET /replication/status payload.
type ReplicationStatusResponse struct {
	Role          string `json:"role"`
	Generation    uint64 `json:"generation"`
	FoldedBatches uint64 `json:"folded_batches"`
	WALPosition   uint64 `json:"wal_position"`
	// Leader names the upstream a follower pulls from ("" elsewhere).
	Leader string `json:"leader,omitempty"`
	// Followers is the leader's view of every replica that has pulled from
	// it (PR 10): replication lag becomes observable from the leader side,
	// not just by asking each follower. Absent on followers/standalones.
	Followers []FollowerStatusJSON `json:"followers,omitempty"`
}

// FollowerStatusJSON is one replica's fetch state as the leader saw it.
type FollowerStatusJSON struct {
	// ID is the follower's self-assigned identity (stable for its lifetime).
	ID string `json:"id"`
	// ShippedGeneration is the checkpoint generation committed at the
	// follower's last manifest fetch — what the follower is syncing toward.
	ShippedGeneration uint64 `json:"shipped_generation"`
	// ShippedWALPosition is the highest WAL sequence shipped to this
	// follower's mirror.
	ShippedWALPosition uint64 `json:"shipped_wal_position"`
	// ManifestFetchAgeSeconds / WALFetchAgeSeconds are how long ago the
	// follower last pulled each surface (-1 = never).
	ManifestFetchAgeSeconds float64 `json:"manifest_fetch_age_seconds"`
	WALFetchAgeSeconds      float64 `json:"wal_fetch_age_seconds"`
}

// ReplicationWALRecord is one shipped WAL record: the leader's sequence
// number and the framed batch payload, verbatim. TraceID carries the
// batch's request ID so the follower's mirror trace joins the leader's.
type ReplicationWALRecord struct {
	Seq     uint64 `json:"seq"`
	Payload []byte `json:"payload"`
	TraceID string `json:"trace_id,omitempty"`
}

// ReplicationWALResponse is the GET /replication/wal?after=N payload: every
// unfolded record with Seq > N, plus the leader's current WAL position so a
// caught-up mirror can tell.
type ReplicationWALResponse struct {
	Position uint64                 `json:"position"`
	Records  []ReplicationWALRecord `json:"records"`
}

// PromoteResponse is the POST /replication/promote payload: the promoted
// tenant's new role and generation, and how many mirrored batches the
// promotion replayed on top of the last shipped checkpoint.
type PromoteResponse struct {
	Name            string `json:"name"`
	Role            string `json:"role"`
	Generation      uint64 `json:"generation"`
	ReplayedBatches int    `json:"replayed_batches"`
}

// replicationRoutes is the leader-side replication surface. It is mounted
// ONLY under /v2/graphs/{ns} — replication is fleet plumbing, not part of
// the frozen /v1 contract — and rides the shared registrar so misses and
// method mismatches answer the unified envelope. The promote verb is
// host-level (it restarts the tenant) and registered separately.
var replicationRoutes = []tenantRoute{
	{"GET", "/replication/status", epReplication, (*Server).handleReplStatus},
	{"GET", "/replication/manifest", epReplication, (*Server).handleReplManifest},
	{"GET", "/replication/graph", epReplication, (*Server).handleReplGraph},
	{"GET", "/replication/blob", epReplication, (*Server).handleReplBlob},
	{"GET", "/replication/wal", epReplication, (*Server).handleReplWAL},
}

// followerIDHeader carries a follower's self-assigned identity on every
// replication pull, so the leader can account per-follower fetch state.
const followerIDHeader = "X-CSPM-Follower"

// maxTrackedFollowers bounds the leader's per-follower state map: past the
// cap the stalest entry is evicted, so a churn of short-lived follower IDs
// (restarts mint new ones) cannot grow leader memory without bound.
const maxTrackedFollowers = 64

// followerState is the leader's record of one replica's pulls.
type followerState struct {
	lastManifest time.Time
	lastWAL      time.Time
	shippedGen   uint64
	shippedWAL   uint64
}

// noteFollower updates (creating if needed) the state for the follower named
// by the request's ID header and returns it still under folMu via the update
// callback. Requests without the header are anonymous pulls (curl, tests)
// and are not tracked.
func (s *Server) noteFollower(r *http.Request, update func(*followerState)) string {
	id := r.Header.Get(followerIDHeader)
	if id == "" {
		return ""
	}
	s.folMu.Lock()
	defer s.folMu.Unlock()
	fs, ok := s.followers[id]
	if !ok {
		if len(s.followers) >= maxTrackedFollowers {
			stalest, when := "", time.Time{}
			for fid, f := range s.followers {
				last := f.lastManifest
				if f.lastWAL.After(last) {
					last = f.lastWAL
				}
				if stalest == "" || last.Before(when) {
					stalest, when = fid, last
				}
			}
			delete(s.followers, stalest)
		}
		fs = &followerState{}
		s.followers[id] = fs
	}
	update(fs)
	return id
}

// followerStatuses snapshots the tracked followers, sorted by ID for a
// deterministic wire order.
func (s *Server) followerStatuses() []FollowerStatusJSON {
	age := func(t time.Time) float64 {
		if t.IsZero() {
			return -1
		}
		return time.Since(t).Seconds()
	}
	s.folMu.Lock()
	out := make([]FollowerStatusJSON, 0, len(s.followers))
	for id, f := range s.followers {
		out = append(out, FollowerStatusJSON{
			ID:                      id,
			ShippedGeneration:       f.shippedGen,
			ShippedWALPosition:      f.shippedWAL,
			ManifestFetchAgeSeconds: age(f.lastManifest),
			WALFetchAgeSeconds:      age(f.lastWAL),
		})
	}
	s.folMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

func (s *Server) handleReplStatus(w http.ResponseWriter, r *http.Request) {
	snap := s.snap.Load()
	s.mu.Lock()
	folded := s.foldedBatches
	s.mu.Unlock()
	st := ReplicationStatusResponse{
		Role:          s.Role(),
		Generation:    snap.Generation,
		FoldedBatches: folded,
		WALPosition:   s.walPos.Load(),
	}
	if f := s.opts.Follow; f != nil {
		st.Leader = f.Leader
	}
	if s.Role() == RoleLeader {
		st.Followers = s.followerStatuses()
	}
	writeJSON(w, http.StatusOK, st)
}

// requireShippable gates the artifact endpoints: only a leader with a
// committed checkpoint has state to ship. Followers refuse too — chained
// replication would serve a mirror as an origin.
func (s *Server) requireShippable(w http.ResponseWriter) bool {
	if s.Role() != RoleLeader {
		writeError(w, http.StatusConflict, CodeNotReplicable,
			"replication source must be a durable leader (role %s)", s.Role())
		return false
	}
	return true
}

// shipFile serves one checkpoint artifact's raw bytes.
func (s *Server) shipFile(w http.ResponseWriter, name string) {
	data, err := os.ReadFile(filepath.Join(s.ckptDir, name))
	if err != nil {
		if os.IsNotExist(err) {
			writeError(w, http.StatusConflict, CodeNotReplicable, "no committed %s yet", name)
			return
		}
		writeError(w, http.StatusInternalServerError, CodeInternal, "read %s: %v", name, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(data)
	s.met.replicationBytesShipped.Add(uint64(len(data)))
}

func (s *Server) handleReplManifest(w http.ResponseWriter, r *http.Request) {
	if !s.requireShippable(w) {
		return
	}
	shipped := s.lastCkptGen.Load()
	s.noteFollower(r, func(f *followerState) {
		f.lastManifest = time.Now()
		f.shippedGen = shipped
	})
	s.shipFile(w, shardcache.ManifestName)
}

func (s *Server) handleReplGraph(w http.ResponseWriter, r *http.Request) {
	if !s.requireShippable(w) {
		return
	}
	s.shipFile(w, checkpointGraphName)
}

func (s *Server) handleReplBlob(w http.ResponseWriter, r *http.Request) {
	if !s.requireShippable(w) {
		return
	}
	name := r.URL.Query().Get("name")
	// Blob names come from a MANIFEST the caller fetched here; anything with
	// a path separator or the wrong extension is an attack, not a typo.
	if name == "" || name != filepath.Base(name) || !strings.HasSuffix(name, ".gob") {
		s.badRequest(w, "bad blob name %q", name)
		return
	}
	s.shipFile(w, name)
}

func (s *Server) handleReplWAL(w http.ResponseWriter, r *http.Request) {
	if !s.requireShippable(w) {
		return
	}
	after, err := queryUint64(r, "after", 0)
	if err != nil {
		s.badRequest(w, "bad after: want a non-negative integer")
		return
	}
	resp := ReplicationWALResponse{Position: s.walPos.Load()}
	var shipped uint64
	s.tailMu.Lock()
	for _, rec := range s.walTail {
		if rec.Seq > after {
			resp.Records = append(resp.Records, ReplicationWALRecord{
				Seq: rec.Seq, Payload: rec.Payload, TraceID: s.tailIDs[rec.Seq],
			})
			shipped += uint64(len(rec.Payload))
		}
	}
	s.tailMu.Unlock()
	var hi uint64
	if n := len(resp.Records); n > 0 {
		hi = resp.Records[n-1].Seq
	}
	fid := s.noteFollower(r, func(f *followerState) {
		f.lastWAL = time.Now()
		if hi > f.shippedWAL {
			f.shippedWAL = hi
		}
	})
	writeJSON(w, http.StatusOK, resp)
	// Counted and traced only once the records are on their way.
	s.met.replicationBytesShipped.Add(shipped)
	for _, rec := range resp.Records {
		s.traces.Record(rec.Seq, obs.StageReplicated, 0, fid)
	}
}

// appendTail records a shipped-able WAL record on the in-memory tail,
// remembering its trace ID so the ship to a follower carries it.
// checkpoint() prunes everything a committed manifest folds, so the tail is
// bounded by the same backlog the WAL's unfolded segments are.
func (s *Server) appendTail(seq uint64, payload []byte, traceID string) {
	s.tailMu.Lock()
	s.walTail = append(s.walTail, wal.Record{Seq: seq, Payload: payload})
	if traceID != "" {
		if s.tailIDs == nil {
			s.tailIDs = make(map[uint64]string)
		}
		s.tailIDs[seq] = traceID
	}
	s.tailMu.Unlock()
}

// pruneTail drops tail records a committed checkpoint covers.
func (s *Server) pruneTail(folded uint64) {
	s.tailMu.Lock()
	i := 0
	for i < len(s.walTail) && s.walTail[i].Seq <= folded {
		i++
	}
	for seq := range s.tailIDs {
		if seq <= folded {
			delete(s.tailIDs, seq)
		}
	}
	s.walTail = append([]wal.Record(nil), s.walTail[i:]...)
	s.tailMu.Unlock()
}

// ---------------------------------------------------------------------------
// Follower pull loop.

// errStaleSync marks a verification mismatch explained by the leader
// checkpointing mid-fetch (the re-fetched manifest differs): not corruption,
// just retry against the new manifest.
var errStaleSync = errors.New("serve: replication fetch raced a leader checkpoint")

// replGet fetches path (relative to the leader mount) with the follower's
// client (see leaderGet).
func (s *Server) replGet(path string) ([]byte, error) {
	f := s.opts.Follow
	return leaderGet(s.followCtx, f.Client, f.poll(), f.Leader+path, s.followerID)
}

// leaderGet GETs url with hc (nil = http.DefaultClient) and returns the body
// of a 200 answer. The request dies with ctx and after one poll interval
// plus slack, so a dead or stalled leader never wedges a follower's loop.
// A non-empty followerID identifies the caller to the leader.
func leaderGet(ctx context.Context, hc *http.Client, poll time.Duration, url, followerID string) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, poll+10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	if followerID != "" {
		req.Header.Set(followerIDHeader, followerID)
	}
	if hc == nil {
		hc = http.DefaultClient
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxGraphUpload))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		var env ErrorJSON
		if json.Unmarshal(body, &env) == nil && env.Code != "" {
			return nil, fmt.Errorf("serve: leader %s: %d %s: %s", url, resp.StatusCode, env.Code, env.Error)
		}
		return nil, fmt.Errorf("serve: leader %s: status %d", url, resp.StatusCode)
	}
	return body, nil
}

// fetchLeaderManifest pulls and decodes the leader's MANIFEST, returning
// both the raw bytes (installed verbatim) and the parsed form (verified
// against).
func (s *Server) fetchLeaderManifest() ([]byte, *shardcache.Manifest, error) {
	raw, err := s.replGet("/replication/manifest")
	if err != nil {
		return nil, nil, err
	}
	man := &shardcache.Manifest{}
	if err := json.Unmarshal(raw, man); err != nil {
		return nil, nil, fmt.Errorf("serve: leader manifest: %w", err)
	}
	if man.Version > shardcache.ManifestVersion {
		return nil, nil, fmt.Errorf("serve: leader manifest v%d is newer than this binary (reads up to v%d)",
			man.Version, shardcache.ManifestVersion)
	}
	return raw, man, nil
}

// fetchVerified pulls one artifact and checks it against its manifest
// commitment IN MEMORY — nothing unverified ever lands under a durable
// name. On mismatch it re-fetches the manifest: if the manifest moved the
// fetch merely raced a leader checkpoint (errStaleSync, retry); if not, the
// artifact really is corrupt — its bytes are set aside as <name>.quarantined
// for the operator and the sync fails without touching the served snapshot.
func (s *Server) fetchVerified(path, name, wantSHA string, manRaw []byte) ([]byte, error) {
	var data []byte
	for attempt := 0; ; attempt++ {
		var err error
		data, err = s.replGet(path)
		if err != nil {
			return nil, err
		}
		if sha256Hex(data) == wantSHA {
			return data, nil
		}
		if raw2, _, err2 := s.fetchLeaderManifest(); err2 == nil && !bytes.Equal(raw2, manRaw) {
			return nil, errStaleSync
		}
		// An unchanged manifest does not yet prove corruption: the leader
		// renames GRAPH and blobs BEFORE the manifest that commits them, so
		// a fetch can land in the window where an artifact is already new
		// while the manifest is still old. Give the in-flight checkpoint a
		// beat to commit and re-pull before condemning the bytes.
		if attempt >= 2 {
			break
		}
		t := time.NewTimer(time.Duration(attempt+1) * 10 * time.Millisecond)
		select {
		case <-s.followCtx.Done():
			t.Stop()
			return nil, s.followCtx.Err()
		case <-t.C:
		}
	}
	// The failure counter is bumped only after the quarantine write has
	// happened (or failed), so an observer that sees the count can already
	// stat the quarantined bytes.
	qname := name + shardcache.QuarantineSuffix
	werr := shardcache.WriteFileAtomic(s.ckptDir, qname, data, true)
	s.met.replicationVerifyFailures.Add(1)
	if werr != nil {
		return nil, fmt.Errorf("serve: shipped %s failed verification (got %s, manifest %s); quarantine also failed: %v",
			name, sha256Hex(data)[:12], wantSHA[:12], werr)
	}
	return nil, fmt.Errorf("serve: shipped %s failed verification (got %s, manifest %s); bytes quarantined as %s",
		name, sha256Hex(data)[:12], wantSHA[:12], qname)
}

// fetchAndInstall pulls the generation the leader's manifest commits to —
// graph bytes and every cache blob — verifies each against the manifest in
// memory, and only then installs: blobs first, GRAPH next, raw MANIFEST
// last. The manifest write is the commit point exactly as on the leader, so
// a crash mid-install leaves the previous checkpoint fully intact.
func (s *Server) fetchAndInstall(manRaw []byte, man *shardcache.Manifest) error {
	gb, err := s.fetchVerified("/replication/graph", checkpointGraphName, man.GraphSHA256, manRaw)
	if err != nil {
		return err
	}
	blobs := make(map[string][]byte, len(man.Blobs))
	for name, sum := range man.Blobs {
		b, err := s.fetchVerified("/replication/blob?name="+name, name, sum, manRaw)
		if err != nil {
			return err
		}
		blobs[name] = b
	}
	dir := s.ckptDir
	for name, b := range blobs {
		if err := shardcache.WriteFileAtomic(dir, name, b, true); err != nil {
			return err
		}
	}
	if err := shardcache.WriteFileAtomic(dir, checkpointGraphName, gb, true); err != nil {
		return err
	}
	return shardcache.WriteFileAtomic(dir, shardcache.ManifestName, manRaw, true)
}

// followBootstrap runs before recoverStartup on a follower: it checks the
// upstream really is a leader and installs its current checkpoint if the
// local one is missing or older, so recovery then promotes from leader
// state exactly like a warm standby would from its own.
func (s *Server) followBootstrap() error {
	raw, err := s.replGet("/replication/status")
	if err != nil {
		return fmt.Errorf("serve: follow bootstrap: %w", err)
	}
	var st ReplicationStatusResponse
	if err := json.Unmarshal(raw, &st); err != nil {
		return fmt.Errorf("serve: follow bootstrap: %w", err)
	}
	if st.Role != RoleLeader {
		return fmt.Errorf("serve: follow bootstrap: upstream %s has role %s, want %s (chained replication is not supported)",
			s.opts.Follow.Leader, st.Role, RoleLeader)
	}
	manRaw, man, err := s.fetchLeaderManifest()
	if err != nil {
		return fmt.Errorf("serve: follow bootstrap: %w", err)
	}
	local, err := shardcache.LoadManifest(s.ckptDir)
	if err != nil {
		return err
	}
	if local != nil && local.Generation >= man.Generation {
		return nil // restart with a current mirror: nothing to ship
	}
	for {
		err := s.fetchAndInstall(manRaw, man)
		if err == nil {
			return nil
		}
		if !errors.Is(err, errStaleSync) {
			return fmt.Errorf("serve: follow bootstrap: %w", err)
		}
		if manRaw, man, err = s.fetchLeaderManifest(); err != nil {
			return fmt.Errorf("serve: follow bootstrap: %w", err)
		}
	}
}

// followLoop is the follower's twin of loop(): long-poll the leader's watch
// for a generation beyond ours, mirror the WAL tail, and sync any new
// generation. Errors back off on the server's retry schedule and keep the
// last verified snapshot serving — a follower degrades to staleness exactly
// like a failed re-mine does.
func (s *Server) followLoop() {
	defer close(s.done)
	var fails uint64
	for {
		select {
		case <-s.quit:
			return
		default:
		}
		err := s.followOnce()
		if err == nil || errors.Is(err, errStaleSync) {
			fails = 0
			continue
		}
		if errors.Is(err, context.Canceled) {
			return // Close cancelled the pull context
		}
		fails++
		s.mu.Lock()
		s.lastErr = err
		s.mu.Unlock()
		t := time.NewTimer(retryDelay(s.opts.RetryBackoff, s.opts.RetryBackoffMax, fails))
		select {
		case <-s.quit:
			t.Stop()
			return
		case <-t.C:
		}
	}
}

// followOnce runs one pull cycle: watch, mirror the WAL tail, sync the
// generation if the leader moved on.
func (s *Server) followOnce() error {
	cur := s.snap.Load().Generation
	pollMS := int(s.opts.Follow.poll() / time.Millisecond)
	raw, err := s.replGet(fmt.Sprintf("/watch?generation=%d&timeout_ms=%d", cur+1, pollMS))
	if err != nil {
		return err
	}
	var wr WatchResponse
	if err := json.Unmarshal(raw, &wr); err != nil {
		return fmt.Errorf("serve: leader watch: %w", err)
	}
	if wr.Generation > s.lastLeaderGen.Load() {
		s.lastLeaderGen.Store(wr.Generation)
	}
	if err := s.syncWALTail(); errors.Is(err, wal.ErrGap) {
		// The leader compacted past the mirror: everything missing is covered
		// by a checkpoint the leader committed since, so install that first,
		// then restart the mirror log from the new fold. The reset drops only
		// records the installed checkpoint covers, so no acknowledged batch
		// loses its last durable copy.
		if serr := s.syncGeneration(); serr != nil {
			return serr
		}
		if rerr := s.wl.Reset(); rerr != nil {
			return rerr
		}
		s.walPos.Store(0)
		return s.syncWALTail()
	} else if err != nil {
		return err
	}
	if wr.Generation > cur {
		if err := s.syncGeneration(); err != nil {
			return err
		}
		if s.snap.Load().Generation == cur {
			// The leader published but its checkpoint has not committed yet
			// (the manifest still names the old generation), so the next
			// watch would resolve instantly — wait a beat instead of
			// spinning on the leader until the checkpoint lands.
			t := time.NewTimer(s.opts.Follow.poll() / 4)
			select {
			case <-s.quit:
				t.Stop()
			case <-t.C:
			}
		}
	}
	return nil
}

// syncWALTail mirrors the leader's unfolded WAL records under their leader
// sequence numbers. Already-held records ship as no-ops; a gap returns
// wal.ErrGap for followOnce to resolve via a checkpoint re-install.
func (s *Server) syncWALTail() error {
	after := s.wl.NextSeq() - 1
	raw, err := s.replGet(fmt.Sprintf("/replication/wal?after=%d", after))
	if err != nil {
		return err
	}
	var resp ReplicationWALResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return fmt.Errorf("serve: leader wal: %w", err)
	}
	for _, rec := range resp.Records {
		wrote, err := s.wl.AppendAt(rec.Seq, rec.Payload)
		if err != nil {
			return err
		}
		if wrote {
			s.walPos.Store(rec.Seq)
			// The mirror trace lives under the LEADER's sequence number —
			// that is the join key a fleet-wide trace query uses.
			s.traces.Start(rec.Seq, rec.TraceID, 0, obs.StageWALMirrored, 0, "")
			s.log.Debug("wal record mirrored", "batch", rec.Seq, "trace", rec.TraceID)
		}
	}
	return nil
}

// syncGeneration pulls the leader's latest committed checkpoint, verifies
// every artifact against its manifest, installs it, re-mines the warm cache
// over the verified graph, checks the mined model against the manifest's
// commitment, and ONLY THEN swaps the served snapshot — at the leader's own
// generation number, so the fleet's generations are comparable.
func (s *Server) syncGeneration() error {
	manRaw, man, err := s.fetchLeaderManifest()
	if err != nil {
		return err
	}
	cur := s.snap.Load()
	if man.Generation <= cur.Generation {
		return nil // the publish we watched has not checkpointed yet; next cycle
	}
	if err := s.fetchAndInstall(manRaw, man); err != nil {
		return err
	}
	g, err := loadCheckpointGraph(s.ckptDir, man)
	if err != nil {
		return err
	}
	// Drop resident entries so the mine reads the freshly installed blobs:
	// the keys of unchanged components still hit, now from verified disk.
	s.cache.Purge()
	s.opts.Budget.acquire()
	model, err := s.mine(g)
	if err == nil && modelChecksum(model) != man.ModelSHA256 {
		// The verified graph + shipped blobs mined to something else: a blob
		// replayed stale state whose key still matched. Same degrade
		// path as local recovery — quarantine every blob, re-mine cold.
		n, qerr := shardcache.QuarantineDir(s.ckptDir)
		s.met.quarantinedBlobs.Add(uint64(n))
		s.met.replicationVerifyFailures.Add(1)
		s.met.checksumMismatches.Add(1)
		if qerr == nil {
			s.cache.Purge()
			model, err = s.mine(g)
			if err == nil && modelChecksum(model) != man.ModelSHA256 {
				err = fmt.Errorf("serve: cold re-mine of shipped generation %d still diverges from the manifest commitment", man.Generation)
			}
		} else {
			err = qerr
		}
	}
	s.opts.Budget.release()
	if err != nil {
		return err
	}
	s.mu.Lock()
	prevFolded := s.foldedBatches
	s.mu.Unlock()
	// Everything between the previous fold and the manifest's is now
	// verified against the leader's commitments; the swap below starts
	// serving it.
	s.traces.RecordRange(prevFolded, man.FoldedBatches, obs.StageVerified, man.Generation, "")
	snap := newSnapshot(man.Generation, g, model)
	s.snap.Store(snap)
	s.met.replicationSyncs.Add(1)
	s.mu.Lock()
	s.foldedBatches = man.FoldedBatches
	s.minedSeq = man.FoldedMutations
	s.mutSeq = man.FoldedMutations
	s.broadcastLocked()
	s.mu.Unlock()
	s.traces.RecordRange(prevFolded, man.FoldedBatches, obs.StageSwapped, man.Generation, "")
	s.log.Info("generation synced", "gen", man.Generation, "folded_batches", man.FoldedBatches)
	// Mirror segments the installed checkpoint covers are garbage now.
	return s.wl.Compact(man.FoldedBatches)
}
