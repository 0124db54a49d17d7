package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	icspm "cspm/internal/cspm"
	"cspm/internal/graph"
	"cspm/internal/shardcache"
	"cspm/internal/wal"
)

// fastFollower is the tenant template replica tests use: tight retry pacing
// so corruption/retry paths resolve in test time instead of the 1s default.
func fastFollower() Options {
	return Options{RetryBackoff: 20 * time.Millisecond, RetryBackoffMax: 100 * time.Millisecond}
}

// newReplicaHost follows leaderURL with fast pacing.
func newReplicaHost(t *testing.T, leaderURL string, opts HostOptions) *Host {
	t.Helper()
	if opts.RootDir == "" {
		opts.RootDir = t.TempDir()
	}
	opts.Follow = leaderURL
	if opts.FollowPoll == 0 {
		opts.FollowPoll = 25 * time.Millisecond
	}
	opts.Tenant = fastFollower()
	return newTestHost(t, opts)
}

// within polls cond until it holds or the deadline passes.
func within(t *testing.T, d time.Duration, desc string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("condition not reached within %v: %s", d, desc)
}

// getRaw fetches url and returns the status code and raw body.
func getRaw(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// postRaw POSTs body as JSON and returns the status code and raw response.
func postRaw(t *testing.T, url string, body any) (int, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// readBytes fetches url asserting 200 and returns the raw response body.
func readBytes(t *testing.T, url string) []byte {
	t.Helper()
	code, body := getRaw(t, url)
	if code != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", url, code, body)
	}
	return body
}

// requireReplicaInSync asserts the replica serves generation >= gen with a
// model — and read-path bytes — identical to the leader's.
func requireReplicaInSync(t *testing.T, ls, rs *Server, lURL, rURL string, gen uint64) {
	t.Helper()
	if err := rs.AwaitGeneration(ctxShort(t), gen); err != nil {
		t.Fatalf("replica never reached generation %d: %v", gen, err)
	}
	lsum, rsum := modelChecksum(ls.Snapshot().Model), modelChecksum(rs.Snapshot().Model)
	if lsum != rsum {
		t.Fatalf("generation %d model diverged: leader %s, replica %s", gen, lsum, rsum)
	}
	const page = "/patterns?limit=1000"
	if l, r := readBytes(t, lURL+page), readBytes(t, rURL+page); string(l) != string(r) {
		t.Fatalf("generation %d /patterns bytes diverged:\nleader  %s\nreplica %s", gen, l, r)
	}
	req := CompleteRequest{Vertices: []graph.VertexID{0, 1, 3}, TopK: 5}
	lcode, lc := postRaw(t, lURL+"/complete", req)
	rcode, rc := postRaw(t, rURL+"/complete", req)
	if lcode != http.StatusOK || rcode != http.StatusOK {
		t.Fatalf("POST /complete = leader %d, replica %d", lcode, rcode)
	}
	if string(lc) != string(rc) {
		t.Fatalf("generation %d /complete bytes diverged:\nleader  %s\nreplica %s", gen, lc, rc)
	}
}

// TestReplicaFollowsLiveLeader is the headline acceptance check: a replica
// following a live, concurrently mutated leader publishes every generation
// bit-identically — same model commitment, same /patterns and /complete
// bytes — first in lock-step, then through a burst landing mid-pull.
func TestReplicaFollowsLiveLeader(t *testing.T) {
	g := testGraph(t)
	leader := newTestHost(t, HostOptions{RootDir: t.TempDir()})
	if _, err := leader.Create("prod", g, nil); err != nil {
		t.Fatal(err)
	}
	lhs := startHostHTTP(t, leader)
	replica := newReplicaHost(t, lhs.URL, HostOptions{})
	rhs := startHostHTTP(t, replica)

	ls, _ := leader.Tenant("prod")
	rs, ok := replica.Tenant("prod")
	if !ok {
		t.Fatal("replica host did not mirror the prod namespace")
	}
	if got := rs.Role(); got != RoleFollower {
		t.Fatalf("replica tenant role = %q, want %q", got, RoleFollower)
	}
	if got := ls.Role(); got != RoleLeader {
		t.Fatalf("leader tenant role = %q, want %q", got, RoleLeader)
	}
	lURL, rURL := lhs.URL+"/v2/graphs/prod", rhs.URL+"/v2/graphs/prod"
	requireReplicaInSync(t, ls, rs, lURL, rURL, 1)

	ctx := ctxShort(t)
	batches := testBatches()
	// Lock-step: each batch folds into its own generation and must ship
	// bit-identically before the next lands.
	for i, b := range batches[:3] {
		if err := ls.SubmitMutations(b); err != nil {
			t.Fatalf("batch %d: %v", i+1, err)
		}
		if err := ls.Flush(ctx); err != nil {
			t.Fatal(err)
		}
		requireReplicaInSync(t, ls, rs, lURL, rURL, ls.Snapshot().Generation)
	}
	// Burst: the remaining batches land while the replica is mid-pull; the
	// replica converges on whatever generation the leader coalesces them to.
	for _, b := range batches[3:] {
		if err := ls.SubmitMutations(b); err != nil {
			t.Fatal(err)
		}
	}
	if err := ls.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	requireReplicaInSync(t, ls, rs, lURL, rURL, ls.Snapshot().Generation)

	// Ground truth: the replica's converged model is the offline mine of the
	// full workload, not merely whatever the leader happens to serve.
	if want, got := prefixChecksums(t, g, batches)[len(batches)], modelChecksum(rs.Snapshot().Model); got != want {
		t.Fatalf("replica converged on %s, offline mine says %s", got, want)
	}
	m := rs.Metrics()
	if m.Role != RoleFollower || m.ReplicationSyncs == 0 {
		t.Fatalf("replica metrics = role %q, %d syncs; want follower with at least one sync", m.Role, m.ReplicationSyncs)
	}
	if lm := ls.Metrics(); lm.Role != RoleLeader || lm.ReplicationWALPosition != uint64(len(batches)) {
		t.Fatalf("leader metrics = role %q, wal position %d; want leader at position %d",
			lm.Role, lm.ReplicationWALPosition, len(batches))
	}
}

// TestReplicaMirrorsNamespaceSet checks fleet membership: namespaces created
// on the leader appear on the replica as followers, deletes propagate, and
// the replica's own admin surface refuses direct membership edits.
func TestReplicaMirrorsNamespaceSet(t *testing.T) {
	leader := newTestHost(t, HostOptions{RootDir: t.TempDir()})
	if _, err := leader.Create("prod", testGraph(t), nil); err != nil {
		t.Fatal(err)
	}
	lhs := startHostHTTP(t, leader)
	replica := newReplicaHost(t, lhs.URL, HostOptions{})

	// Direct membership edits on the replica must not fork the fleet.
	if _, err := replica.Create("rogue", testGraphB(t), nil); !strings.Contains(err.Error(), "not the leader") {
		t.Fatalf("replica Create = %v, want ErrNotLeader", err)
	}
	if _, err := replica.Delete("prod"); !strings.Contains(err.Error(), "not the leader") {
		t.Fatalf("replica Delete = %v, want ErrNotLeader", err)
	}

	// A namespace born after the replica attached still propagates.
	gb := testGraphB(t)
	if _, err := leader.Create("beta", gb, nil); err != nil {
		t.Fatal(err)
	}
	within(t, 15*time.Second, "beta appears on the replica", func() bool {
		s, ok := replica.Tenant("beta")
		return ok && s.Snapshot().Generation >= 1
	})
	bs, _ := replica.Tenant("beta")
	if got := bs.Role(); got != RoleFollower {
		t.Fatalf("propagated tenant role = %q, want follower", got)
	}
	requireModelEqual(t, bs.Snapshot().Model, icspm.Mine(gb))

	// And a leader-side delete removes the mirror.
	if _, err := leader.Delete("beta"); err != nil {
		t.Fatal(err)
	}
	within(t, 15*time.Second, "beta disappears from the replica", func() bool {
		_, ok := replica.Tenant("beta")
		return !ok
	})
}

// TestReplicaHostCloseAbortsStalledLeaderPoll: a leader that answers the
// first namespace list and then accepts the next request without ever
// answering must not wedge the replica host. Close cancels the in-flight
// membership poll and returns promptly.
func TestReplicaHostCloseAbortsStalledLeaderPoll(t *testing.T) {
	var lists atomic.Int32
	stalled := make(chan struct{})
	release := make(chan struct{})
	leader := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch lists.Add(1) {
		case 1:
			writeJSON(w, http.StatusOK, NamespacesResponse{})
			return
		case 2:
			close(stalled)
		}
		select {
		case <-r.Context().Done():
		case <-release:
		}
	}))
	t.Cleanup(leader.Close)
	t.Cleanup(func() { close(release) }) // runs first: unblocks the handler
	h, err := NewHost(HostOptions{RootDir: t.TempDir(), Follow: leader.URL, FollowPoll: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-stalled:
	case <-time.After(10 * time.Second):
		h.Close()
		t.Fatal("the replica host never polled the leader again")
	}
	closed := make(chan error, 1)
	go func() { closed <- h.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close is stuck behind a stalled leader poll")
	}
}

// TestFollowerWritePathRejectAndProxy pins the replica write contract: 409
// not_leader naming the leader by default, transparent forwarding with
// ProxyWrites.
func TestFollowerWritePathRejectAndProxy(t *testing.T) {
	leader := newTestHost(t, HostOptions{RootDir: t.TempDir()})
	if _, err := leader.Create("prod", testGraph(t), nil); err != nil {
		t.Fatal(err)
	}
	lhs := startHostHTTP(t, leader)
	ls, _ := leader.Tenant("prod")

	reject := newReplicaHost(t, lhs.URL, HostOptions{})
	rejectHS := startHostHTTP(t, reject)
	rrs, _ := reject.Tenant("prod")
	if err := rrs.SubmitMutations([]Mutation{{Op: OpAddAttr, U: 0, Value: "x"}}); err == nil || !strings.Contains(err.Error(), lhs.URL) {
		t.Fatalf("follower SubmitMutations = %v, want ErrNotLeader naming %s", err, lhs.URL)
	}
	code, body := postRaw(t, rejectHS.URL+"/v2/graphs/prod/mutations",
		MutationsRequest{Mutations: []Mutation{{Op: OpAddAttr, U: 0, Value: "x"}}})
	if code != http.StatusConflict {
		t.Fatalf("follower mutation status = %d, want 409: %s", code, body)
	}
	var env ErrorJSON
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if env.Code != CodeNotLeader || !strings.Contains(env.Error, lhs.URL) {
		t.Fatalf("follower mutation envelope = %+v, want code %q naming the leader", env, CodeNotLeader)
	}

	proxy := newReplicaHost(t, lhs.URL, HostOptions{ProxyWrites: true})
	proxyHS := startHostHTTP(t, proxy)
	prs, _ := proxy.Tenant("prod")
	var ack MutationsResponse
	if resp := postJSON(t, proxyHS.URL+"/v2/graphs/prod/mutations",
		MutationsRequest{Mutations: []Mutation{{Op: OpAddAttr, U: 0, Value: "cancer"}}}, &ack); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("proxied mutation status = %d, want 202", resp.StatusCode)
	}
	// The write landed on the LEADER: it folds there, then ships back.
	ctx := ctxShort(t)
	if err := ls.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if gen := ls.Snapshot().Generation; gen < 2 {
		t.Fatalf("leader generation after proxied write = %d, want >= 2", gen)
	}
	requireReplicaInSync(t, ls, prs, lhs.URL+"/v2/graphs/prod", proxyHS.URL+"/v2/graphs/prod", ls.Snapshot().Generation)
}

// TestReplicaQuarantinesCorruptShippedGraph corrupts the shipped graph bytes
// in flight: the replica must quarantine the artifact, count the verify
// failure, keep serving its old snapshot, and converge once the corruption
// clears.
func TestReplicaQuarantinesCorruptShippedGraph(t *testing.T) {
	g := testGraph(t)
	leader := newTestHost(t, HostOptions{RootDir: t.TempDir()})
	if _, err := leader.Create("prod", g, nil); err != nil {
		t.Fatal(err)
	}
	lhs := startHostHTTP(t, leader)
	ls, _ := leader.Tenant("prod")

	// A corrupting proxy between replica and leader: pass-through until the
	// flag flips, then flip one byte of every shipped graph artifact.
	var corrupt atomic.Bool
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		resp, err := http.Get(lhs.URL + r.URL.RequestURI())
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		if corrupt.Load() && strings.HasSuffix(r.URL.Path, "/replication/graph") && len(body) > 0 {
			body[len(body)/2] ^= 0xff
		}
		w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
		w.WriteHeader(resp.StatusCode)
		_, _ = w.Write(body)
	}))
	t.Cleanup(proxy.Close)

	rroot := t.TempDir()
	replica := newReplicaHost(t, proxy.URL, HostOptions{RootDir: rroot})
	rs, ok := replica.Tenant("prod")
	if !ok {
		t.Fatal("replica host did not mirror the prod namespace")
	}
	if err := rs.AwaitGeneration(ctxShort(t), 1); err != nil {
		t.Fatal(err)
	}

	corrupt.Store(true)
	if err := ls.SubmitMutations(testBatches()[0]); err != nil {
		t.Fatal(err)
	}
	if err := ls.Flush(ctxShort(t)); err != nil {
		t.Fatal(err)
	}
	within(t, 15*time.Second, "replica counts a verify failure", func() bool {
		return rs.Metrics().ReplicationVerifyFailures >= 1
	})
	// The old snapshot must survive: corruption degrades to staleness, never
	// to serving unverified bytes.
	if gen := rs.Snapshot().Generation; gen != 1 {
		t.Fatalf("replica swapped to generation %d past a failed verify", gen)
	}
	requireModelEqual(t, rs.Snapshot().Model, icspm.Mine(g))
	rckpt, _ := wal.TenantDirs(wal.Layout{Root: rroot}.NamespaceDir("prod"))
	qpath := filepath.Join(rckpt, checkpointGraphName+shardcache.QuarantineSuffix)
	if _, err := os.Stat(qpath); err != nil {
		t.Fatalf("corrupt graph was not quarantined at %s: %v", qpath, err)
	}

	// Clear the fault: the follower's retry loop converges on its own.
	corrupt.Store(false)
	if err := rs.AwaitGeneration(ctxShort(t), 2); err != nil {
		t.Fatalf("replica never recovered after the corruption cleared: %v", err)
	}
	if lsum, rsum := modelChecksum(ls.Snapshot().Model), modelChecksum(rs.Snapshot().Model); lsum != rsum {
		t.Fatalf("post-recovery models diverged: leader %s, replica %s", lsum, rsum)
	}
}

// TestPromoteReplicaLosesNoAckedBatch is the failover acceptance check: the
// leader acknowledges batches it never publishes (debounce pinned to an
// hour), dies abruptly, and the promoted replica must still fold every one
// of them — the mirrored WAL is the only copy that survives.
func TestPromoteReplicaLosesNoAckedBatch(t *testing.T) {
	g := testGraph(t)
	leader := newTestHost(t, HostOptions{RootDir: t.TempDir()})
	if _, err := leader.Create("prod", g, &Options{Debounce: time.Hour}); err != nil {
		t.Fatal(err)
	}
	lhs := startHostHTTP(t, leader)
	ls, _ := leader.Tenant("prod")

	replica := newReplicaHost(t, lhs.URL, HostOptions{})
	rhs := startHostHTTP(t, replica)
	rs, ok := replica.Tenant("prod")
	if !ok {
		t.Fatal("replica host did not mirror the prod namespace")
	}

	batches := testBatches()
	for i, b := range batches {
		if err := ls.SubmitMutations(b); err != nil {
			t.Fatalf("batch %d: %v", i+1, err)
		}
	}
	within(t, 15*time.Second, "mirror WAL catches the acknowledged tail", func() bool {
		return rs.Metrics().ReplicationWALPosition >= uint64(len(batches))
	})
	// Nothing published: the acked batches exist ONLY in the two WALs.
	if gen := rs.Snapshot().Generation; gen != 1 {
		t.Fatalf("replica generation = %d before any leader publish", gen)
	}

	// Kill the leader abruptly — no drain, no final checkpoint ships.
	lhs.CloseClientConnections()
	lhs.Close()

	var pr PromoteResponse
	if resp := postJSON(t, rhs.URL+"/v2/graphs/prod/replication/promote", nil, &pr); resp.StatusCode != http.StatusOK {
		t.Fatalf("promote status = %d", resp.StatusCode)
	}
	if pr.Role != RoleLeader || pr.ReplayedBatches != len(batches) {
		t.Fatalf("promote = %+v, want role leader with %d replayed batches", pr, len(batches))
	}
	ps, ok := replica.Tenant("prod")
	if !ok {
		t.Fatal("promoted tenant vanished")
	}
	if want, got := prefixChecksums(t, g, batches)[len(batches)], modelChecksum(ps.Snapshot().Model); got != want {
		t.Fatalf("promoted model = %s, offline mine of every acked batch = %s — acknowledged data lost", got, want)
	}

	// The promoted tenant takes writes, and the (now dead-lettered) membership
	// sync must not tear it down just because its old leader is unreachable.
	if err := ps.SubmitMutations([]Mutation{{Op: OpAddAttr, U: 0, Value: "promoted"}}); err != nil {
		t.Fatalf("promoted tenant rejected a write: %v", err)
	}
	if err := ps.Flush(ctxShort(t)); err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond) // a few sync-loop ticks against the dead leader
	if _, ok := replica.Tenant("prod"); !ok {
		t.Fatal("membership sync removed the promoted tenant")
	}
}

// TestFollowerMirrorGapReinstallsAndResets drives the mirror-gap path: a
// replica whose mirror stopped at batch 1 restarts after the leader folded
// batches 1–2 into a checkpoint and compacted them away. Its first tail
// sync meets wal.ErrGap, so it re-installs the leader's checkpoint, resets
// its mirror log and mirrors batch 3 — and promoting it then folds every
// acknowledged batch.
func TestFollowerMirrorGapReinstallsAndResets(t *testing.T) {
	g := testGraph(t)
	batches := testBatches()[:3]
	// One mine slot, held by the test whenever batches must stay unfolded:
	// the leader's re-mine queues behind it.
	leader := newTestHost(t, HostOptions{RootDir: t.TempDir(), MineBudget: 1})
	ls, err := leader.Create("prod", g, nil)
	if err != nil {
		t.Fatal(err)
	}
	lhs := startHostHTTP(t, leader)
	held := false
	hold := func(on bool) {
		if on {
			leader.Budget().acquire()
		} else {
			leader.Budget().release()
		}
		held = on
	}
	t.Cleanup(func() { // before the leader closes: its final re-mine needs the slot
		if held {
			hold(false)
		}
	})

	hold(true)
	if err := ls.SubmitMutations(batches[0]); err != nil {
		t.Fatal(err)
	}
	rroot := t.TempDir()
	replica := newReplicaHost(t, lhs.URL, HostOptions{RootDir: rroot})
	rs, _ := replica.Tenant("prod")
	within(t, 15*time.Second, "the mirror holds batch 1", func() bool { return rs.walPos.Load() == 1 })
	if err := replica.Close(); err != nil {
		t.Fatal(err)
	}

	// With the replica down, the leader folds batches 1–2 into checkpoint
	// generation 2, then acknowledges batch 3 unfolded.
	if err := ls.SubmitMutations(batches[1]); err != nil {
		t.Fatal(err)
	}
	hold(false)
	if err := ls.Flush(ctxShort(t)); err != nil {
		t.Fatal(err)
	}
	within(t, 15*time.Second, "the leader checkpoints generation 2", func() bool { return ls.lastCkptGen.Load() == 2 })
	hold(true)
	if err := ls.SubmitMutations(batches[2]); err != nil {
		t.Fatal(err)
	}

	replica = newReplicaHost(t, lhs.URL, HostOptions{RootDir: rroot})
	rs, _ = replica.Tenant("prod")
	within(t, 15*time.Second, "the reset mirror holds batch 3", func() bool { return rs.walPos.Load() == 3 })
	if gen := rs.Snapshot().Generation; gen != 2 {
		t.Fatalf("replica serves generation %d, want the re-installed 2", gen)
	}
	ps, err := replica.Promote("prod")
	if err != nil {
		t.Fatal(err)
	}
	if got := ps.Recovery().ReplayedBatches; got != 1 {
		t.Fatalf("promotion replayed %d batches, want 1 (batch 3 on top of checkpoint 2)", got)
	}
	if want, got := prefixChecksums(t, g, batches)[len(batches)], modelChecksum(ps.Snapshot().Model); got != want {
		t.Fatalf("promoted model = %s, offline mine of every acked batch = %s", got, want)
	}
}

// TestReplicationRouteGating pins who answers what: leaders ship, memory
// tenants and followers answer 409 not_replicable, promote of a non-follower
// answers 409 not_follower, blob names are sanitized, and none of it leaks
// onto the frozen /v1 alias.
func TestReplicationRouteGating(t *testing.T) {
	leader := newTestHost(t, HostOptions{RootDir: t.TempDir()})
	if _, err := leader.Create("default", testGraph(t), nil); err != nil {
		t.Fatal(err)
	}
	lhs := startHostHTTP(t, leader)

	var st ReplicationStatusResponse
	getJSON(t, lhs.URL+"/v2/graphs/default/replication/status", &st)
	if st.Role != RoleLeader || st.Generation != 1 || st.WALPosition != 0 {
		t.Fatalf("leader status = %+v", st)
	}
	if man := readBytes(t, lhs.URL+"/v2/graphs/default/replication/manifest"); !strings.Contains(string(man), "model_sha256") {
		t.Fatalf("shipped manifest carries no model commitment: %s", man)
	}
	for _, bad := range []string{"", "../MANIFEST", "x.txt", "a/b.gob"} {
		resp := getJSON(t, lhs.URL+"/v2/graphs/default/replication/blob?name="+bad, nil)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("blob name %q = %d, want 400", bad, resp.StatusCode)
		}
	}
	if code, body := postRaw(t, lhs.URL+"/v2/graphs/default/replication/promote", nil); code != http.StatusConflict ||
		!strings.Contains(string(body), CodeNotFollower) {
		t.Fatalf("promote of a leader = %d %s, want 409 %s", code, body, CodeNotFollower)
	}
	// The /v1 alias predates replication and must not grow it.
	if resp := getJSON(t, lhs.URL+"/v1/replication/status", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/v1/replication/status = %d, want 404", resp.StatusCode)
	}

	// A memory-only tenant has nothing to ship.
	mem := newTestHost(t, HostOptions{})
	if _, err := mem.Create("mem", testGraph(t), nil); err != nil {
		t.Fatal(err)
	}
	mhs := startHostHTTP(t, mem)
	getJSON(t, mhs.URL+"/v2/graphs/mem/replication/status", &st)
	if st.Role != RoleStandalone {
		t.Fatalf("memory tenant role = %q, want standalone", st.Role)
	}
	code, body := getRaw(t, mhs.URL+"/v2/graphs/mem/replication/manifest")
	var env ErrorJSON
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if code != http.StatusConflict || env.Code != CodeNotReplicable {
		t.Fatalf("memory manifest = %d %q, want 409 %q", code, env.Code, CodeNotReplicable)
	}
}
