package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	icspm "cspm/internal/cspm"
	"cspm/internal/graph"
	"cspm/internal/shardcache"
	"cspm/internal/wal"
	"cspm/internal/wal/crashfs"
)

// testBatches is the mutation workload the durability tests drive: five
// acknowledged batches whose prefixes all mine to distinct models. The last
// two grow and shrink the vertex set, so every recovery test also proves
// vertex ops survive the WAL — and, because replaying add_vertex twice
// changes |V| where re-adding an attribute is silently idempotent, vertex
// batches make double-application after a partial recovery DETECTABLE in
// the model commitment.
func testBatches() [][]Mutation {
	return [][]Mutation{
		{{Op: OpAddAttr, U: 0, Value: "cancer"}},
		{{Op: OpAddEdge, U: 0, V: 3}, {Op: OpDelAttr, U: 1, Value: "smoker"}},
		{{Op: OpAddAttr, U: 5, Value: "vldb"}},
		// Grow: a new vertex (id 8) wired into island 2 and attributed in the
		// same batch.
		{{Op: OpAddVertex}, {Op: OpAddEdge, U: 8, V: 4}, {Op: OpAddAttr, U: 8, Value: "vldb"}},
		// Shrink: delete an attributed vertex; every larger id shifts down.
		{{Op: OpDelVertex, U: 2}},
	}
}

// flatten concatenates the first n batches into one mutation slice.
func flatten(batches [][]Mutation, n int) []Mutation {
	var all []Mutation
	for _, b := range batches[:n] {
		all = append(all, b...)
	}
	return all
}

// prefixChecksums mines every prefix of the batch workload offline and
// returns the model commitment for each: prefix j is the state a recovered
// server must serve when exactly j batches survived.
func prefixChecksums(t *testing.T, g *graph.Graph, batches [][]Mutation) []string {
	t.Helper()
	sums := make([]string, len(batches)+1)
	for j := 0; j <= len(batches); j++ {
		sums[j] = modelChecksum(icspm.Mine(Rebuild(g, flatten(batches, j))))
	}
	return sums
}

// TestRetryDelaySchedule pins the exact backoff schedule: exponential from
// the base, capped at the max, with the deterministic jitter folded in.
func TestRetryDelaySchedule(t *testing.T) {
	defaults := []time.Duration{
		1095339391, 1977474242, 4004643471, 8519005146, 17071502109,
		30000000000, 30000000000, // capped: the jittered value may not exceed max
	}
	for i, want := range defaults {
		if got := retryDelay(0, 0, uint64(i+1)); got != want {
			t.Errorf("retryDelay(defaults, %d) = %d, want %d", i+1, got, want)
		}
	}
	custom := []time.Duration{107123954, 218135798, 356041572, 400000000, 400000000}
	for i, want := range custom {
		if got := retryDelay(100*time.Millisecond, 400*time.Millisecond, uint64(i+1)); got != want {
			t.Errorf("retryDelay(100ms, 400ms, %d) = %d, want %d", i+1, got, want)
		}
	}
	// A max below the base is raised to it, never truncating the first delay.
	if got := retryDelay(time.Second, time.Millisecond, 1); got < 875*time.Millisecond {
		t.Errorf("retryDelay with max<base = %v, want ~1s", got)
	}

	// Long failure runs: the schedule stays pinned at the (jittered) cap no
	// matter how many consecutive failures accumulate. Before the exponent
	// clamp, the doubling loop overflowed time.Duration once the failure
	// count crossed the word size, so a long-dead fleet was suddenly retried
	// with a zero (or negative) delay — a retry storm exactly when backoff
	// mattered most.
	longRun := map[uint64]time.Duration{
		8: 30000000000, 16: 27349779157, 32: 27199572574,
		64: 26899159408, 128: 26298333076, 1 << 20: 30000000000,
	}
	for f, want := range longRun {
		if got := retryDelay(0, 0, f); got != want {
			t.Errorf("retryDelay(defaults, %d) = %d, want %d", f, got, want)
		}
	}
	// The overflow regression itself: a cap in the top half of the duration
	// range (here the maximum representable one) used to wrap the doubled
	// delay negative past ~63 failures. Pin the exact saturated schedule and
	// that every delay in a long run stays positive and capped.
	unbounded := time.Duration(math.MaxInt64)
	saturated := map[uint64]time.Duration{
		61: 9223372036854775807, 62: 9223372036854775807, 63: 9198308284150614322,
		64: 9069808057405343044, 65: 8941307830660071766, 128: 9223372036854775807,
	}
	for f, want := range saturated {
		if got := retryDelay(time.Second, unbounded, f); got != want {
			t.Errorf("retryDelay(1s, MaxInt64, %d) = %d, want %d", f, got, want)
		}
	}
	for f := uint64(1); f <= 256; f++ {
		if got := retryDelay(time.Second, unbounded, f); got <= 0 || got > unbounded {
			t.Fatalf("retryDelay(1s, MaxInt64, %d) = %d: escaped (0, max]", f, got)
		}
	}
}

// TestWALAckDurabilityAcrossRestart pins the core contract: a batch whose
// SubmitMutations returned nil survives an abrupt process death (the first
// server is reaped, never Closed) and is replayed on restart.
func TestWALAckDurabilityAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	g := testGraph(t)
	batches := testBatches()
	// The hour-long debounce keeps every batch acknowledged but unfolded.
	s1, err := NewServer(g, Options{Dir: dir, Debounce: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		if err := s1.SubmitMutations(b); err != nil {
			t.Fatal(err)
		}
	}
	// Deliberately no Close: s1 "crashes" with every batch acknowledged.
	reap(s1)

	s2 := newTestServer(t, g, Options{Dir: dir})
	rec := s2.Recovery()
	if rec.ReplayedBatches != len(batches) {
		t.Fatalf("replayed %d batches, want %d", rec.ReplayedBatches, len(batches))
	}
	if rec.ReplayedMutations != len(flatten(batches, len(batches))) {
		t.Fatalf("replayed %d mutations, want %d", rec.ReplayedMutations, len(flatten(batches, len(batches))))
	}
	// The only checkpoint is the one s1 committed at startup, before any
	// batch: every batch comes back from the log.
	if !rec.Checkpoint || rec.CheckpointGeneration != 1 || rec.TornWALTail {
		t.Fatalf("recovery reported checkpoint=%v (generation %d) torn=%v, want the startup checkpoint at generation 1 and no torn tail",
			rec.Checkpoint, rec.CheckpointGeneration, rec.TornWALTail)
	}
	snap := s2.Snapshot()
	if snap.Generation != 2 {
		t.Fatalf("recovered generation = %d, want 2 (replay advances the base)", snap.Generation)
	}
	requireModelEqual(t, snap.Model, icspm.Mine(Rebuild(g, flatten(batches, len(batches)))))
	if got := s2.Metrics().RecoveredBatches; got != uint64(len(batches)) {
		t.Fatalf("recovered_batches metric = %d, want %d", got, len(batches))
	}
}

// TestRecoverEmptyWALDir: a durable server on a fresh directory is a plain
// cold start that still acknowledges durably from the first batch.
func TestRecoverEmptyWALDir(t *testing.T) {
	dir := t.TempDir()
	g := testGraph(t)
	s := newTestServer(t, g, Options{Dir: dir})
	if rec := s.Recovery(); rec != (RecoveryStats{}) {
		t.Fatalf("fresh dir recovered state: %+v", rec)
	}
	if s.Snapshot().Generation != 1 {
		t.Fatalf("generation = %d, want 1", s.Snapshot().Generation)
	}
	muts := testBatches()[0]
	if err := s.SubmitMutations(muts); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(ctxShort(t)); err != nil {
		t.Fatal(err)
	}
	requireModelEqual(t, s.Snapshot().Model, icspm.Mine(Rebuild(g, muts)))
	if got := s.Metrics().WALAppends; got != 1 {
		t.Fatalf("wal_appends = %d, want 1", got)
	}
}

// TestCheckpointRestartIsWarm: Close commits a checkpoint (graph + blobs +
// MANIFEST) and a restart over it promotes at the committed generation with
// a fully warm cache — no replay, no misses.
func TestCheckpointRestartIsWarm(t *testing.T) {
	dir := t.TempDir()
	g := testGraph(t)
	muts := testBatches()[0]
	s1, err := NewServer(g, Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.SubmitMutations(muts); err != nil {
		t.Fatal(err)
	}
	if err := s1.Flush(ctxShort(t)); err != nil {
		t.Fatal(err)
	}
	gen := s1.Snapshot().Generation
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := newTestServer(t, nil, Options{Dir: dir})
	rec := s2.Recovery()
	if !rec.Checkpoint || rec.ReplayedBatches != 0 || rec.CheckpointGeneration != gen || rec.CheckpointDamaged || rec.ModelMismatch {
		t.Fatalf("checkpoint recovery stats: %+v (want clean checkpoint at generation %d)", rec, gen)
	}
	snap := s2.Snapshot()
	if snap.Generation != gen {
		t.Fatalf("promoted at generation %d, want the checkpointed %d", snap.Generation, gen)
	}
	requireModelEqual(t, snap.Model, icspm.Mine(Rebuild(g, muts)))
	if m := snap.Model; m.CacheMisses != 0 || m.CacheHits == 0 {
		t.Fatalf("checkpoint promote mined cold: hits=%d misses=%d", m.CacheHits, m.CacheMisses)
	}
}

// TestManifestModelChecksumMismatch: a MANIFEST whose model commitment does
// not match what the recovered cache mines means the blobs are stale or
// tampered. Recovery must quarantine every blob, re-mine cold, and still
// come up serving the correct model.
func TestManifestModelChecksumMismatch(t *testing.T) {
	dir := t.TempDir()
	ckptDir, _ := wal.TenantDirs(dir)
	g := testGraph(t)
	s1, err := NewServer(g, Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	// Tamper with the manifest's model commitment only: graph and blobs
	// still verify, so recovery reaches the model check and must trip there.
	manPath := filepath.Join(ckptDir, shardcache.ManifestName)
	raw, err := os.ReadFile(manPath)
	if err != nil {
		t.Fatal(err)
	}
	var man shardcache.Manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		t.Fatal(err)
	}
	man.ModelSHA256 = strings.Repeat("0", 64)
	tampered, err := json.Marshal(&man)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manPath, tampered, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := newTestServer(t, g, Options{Dir: dir})
	rec := s2.Recovery()
	if !rec.ModelMismatch {
		t.Fatalf("tampered model commitment not detected: %+v", rec)
	}
	if rec.QuarantinedBlobs == 0 {
		t.Fatal("mismatch must quarantine the cache blobs")
	}
	requireModelEqual(t, s2.Snapshot().Model, icspm.Mine(g))
	if got := s2.Metrics().ChecksumMismatches; got == 0 {
		t.Fatal("checksum_mismatches metric not incremented")
	}
	quarantined, err := filepath.Glob(filepath.Join(ckptDir, "*"+shardcache.QuarantineSuffix))
	if err != nil || len(quarantined) == 0 {
		t.Fatalf("no quarantined blob files on disk (%v, err=%v)", quarantined, err)
	}
}

// TestDamagedCheckpointGraphDegrades: a checkpoint whose graph bytes no
// longer hash to the manifest commitment is distrusted wholesale — recovery
// quarantines the blobs and rebuilds from the base graph instead of parsing
// unverified bytes.
func TestDamagedCheckpointGraphDegrades(t *testing.T) {
	dir := t.TempDir()
	g := testGraph(t)
	s1, err := NewServer(g, Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	ckptDir, _ := wal.TenantDirs(dir)
	gpath := filepath.Join(ckptDir, checkpointGraphName)
	data, err := os.ReadFile(gpath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(gpath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// A copy of the damaged directory for the graphless attempt below: the
	// degraded server commits a fresh checkpoint at startup, which would
	// repair the original.
	graphless := t.TempDir()
	if err := os.CopyFS(graphless, os.DirFS(dir)); err != nil {
		t.Fatal(err)
	}

	s2 := newTestServer(t, g, Options{Dir: dir})
	rec := s2.Recovery()
	if !rec.CheckpointDamaged || rec.QuarantinedBlobs == 0 {
		t.Fatalf("damaged checkpoint stats: %+v (want CheckpointDamaged + quarantined blobs)", rec)
	}
	requireModelEqual(t, s2.Snapshot().Model, icspm.Mine(g))

	// Without a base graph there is nothing to degrade to: hard error.
	if _, err := NewServer(nil, Options{Dir: graphless, Standby: true}); err == nil {
		t.Fatal("damaged checkpoint with no base graph must fail, not serve garbage")
	}
}

// TestStandby pins both halves of the warm-spare contract: refusal to come
// up with no durable state, and promotion — graphless — from a checkpoint.
func TestStandby(t *testing.T) {
	g := testGraph(t)
	if _, err := NewServer(g, Options{Standby: true}); err == nil {
		t.Fatal("Standby without Dir must fail validation")
	}
	if _, err := NewServer(g, Options{Standby: true, Dir: t.TempDir()}); err == nil {
		t.Fatal("standby over an empty dir cold-started")
	}
	if _, err := NewServer(nil, Options{Standby: true, Dir: t.TempDir()}); err == nil {
		t.Fatal("graphless standby over an empty dir cold-started")
	}

	// Promote from a checkpoint with no graph argument at all.
	dir := t.TempDir()
	muts := testBatches()[0]
	s1, err := NewServer(g, Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := s1.SubmitMutations(muts); err != nil {
		t.Fatal(err)
	}
	if err := s1.Flush(ctxShort(t)); err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := newTestServer(t, nil, Options{Dir: dir, Standby: true})
	if !s2.Recovery().Checkpoint {
		t.Fatal("standby promote did not report the checkpoint")
	}
	requireModelEqual(t, s2.Snapshot().Model, icspm.Mine(Rebuild(g, muts)))

	// Promote with the batch still only in the log: the hour-long debounce
	// keeps it unfolded, so the standby replays it on top of the startup
	// checkpoint.
	wdir := t.TempDir()
	s3, err := NewServer(g, Options{Dir: wdir, Debounce: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if err := s3.SubmitMutations(muts); err != nil {
		t.Fatal(err)
	}
	// Reaped, not closed: the standby takes over from the log.
	reap(s3)
	s4 := newTestServer(t, g, Options{Dir: wdir, Standby: true})
	if s4.Recovery().ReplayedBatches != 1 {
		t.Fatalf("WAL standby replayed %d batches, want 1", s4.Recovery().ReplayedBatches)
	}
	requireModelEqual(t, s4.Snapshot().Model, icspm.Mine(Rebuild(g, muts)))
}

// TestLegacyDirsRecoverUnderRootLayout is the migration proof for the
// retired single-tenant directory pair (the -cache-dir checkpoint and the
// -wal-dir log): a checkpoint and a log copied while acknowledged batches
// are still unfolded and moved to <root>/default/checkpoint and
// <root>/default/wal restore on a standby host with every acknowledged
// batch replayed — no durable state becomes unreachable when the flags go.
func TestLegacyDirsRecoverUnderRootLayout(t *testing.T) {
	g := testGraph(t)
	batches := testBatches()[:2]
	src := t.TempDir()
	cdir, wdir := wal.TenantDirs(src)
	// The hour-long debounce parks both batches acknowledged but unfolded.
	s := newTestServer(t, g, Options{Dir: src, Debounce: time.Hour})
	for _, b := range batches {
		if err := s.SubmitMutations(b); err != nil {
			t.Fatal(err)
		}
	}
	if s.Snapshot().Generation != 1 {
		t.Fatal("a batch folded before the copy; the migration must carry unfolded batches")
	}

	// Copy the live pair aside, then mkdir -p R/default and mv each copy
	// into its layout slot, exactly as the operator recipe does.
	staged := t.TempDir()
	root := t.TempDir()
	nsDir := wal.Layout{Root: root}.NamespaceDir(DefaultNamespace)
	if err := os.MkdirAll(nsDir, 0o755); err != nil {
		t.Fatal(err)
	}
	ckptSlot, walSlot := wal.TenantDirs(nsDir)
	for src, dst := range map[string]string{cdir: ckptSlot, wdir: walSlot} {
		cp := filepath.Join(staged, filepath.Base(dst))
		if err := os.CopyFS(cp, os.DirFS(src)); err != nil {
			t.Fatal(err)
		}
		if err := os.Rename(cp, dst); err != nil {
			t.Fatal(err)
		}
	}

	h := newTestHost(t, HostOptions{RootDir: root, Standby: true})
	rs, ok := h.Tenant(DefaultNamespace)
	if !ok {
		t.Fatal("standby host did not restore the migrated default namespace")
	}
	if got := rs.Recovery().ReplayedBatches; got != len(batches) {
		t.Fatalf("migrated namespace replayed %d batches, want %d", got, len(batches))
	}
	requireModelEqual(t, rs.Snapshot().Model, icspm.Mine(Rebuild(g, flatten(batches, len(batches)))))
}

// TestServerDirRecoversAsHostNamespace: a standalone server's Dir and a
// host namespace's subtree are one layout, so a server abandoned with an
// acknowledged but unfolded batch in <root>/alpha restores as namespace
// alpha on a standby host, with the batch replayed.
func TestServerDirRecoversAsHostNamespace(t *testing.T) {
	g := testGraph(t)
	batch := testBatches()[0]
	root := t.TempDir()
	s, err := NewServer(g, Options{Dir: wal.Layout{Root: root}.NamespaceDir("alpha"), Debounce: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SubmitMutations(batch); err != nil {
		t.Fatal(err)
	}
	reap(s) // abandoned, never closed: the batch lives only in the log

	h := newTestHost(t, HostOptions{RootDir: root, Standby: true})
	rs, ok := h.Tenant("alpha")
	if !ok {
		t.Fatal("standby host did not restore the server's directory as namespace alpha")
	}
	if got := rs.Recovery().ReplayedBatches; got != 1 {
		t.Fatalf("namespace alpha replayed %d batches, want 1", got)
	}
	requireModelEqual(t, rs.Snapshot().Model, icspm.Mine(Rebuild(g, batch)))
}

// TestWALUnavailable503: when the WAL cannot make a batch durable the batch
// is refused — SubmitMutations wraps ErrUnavailable and the HTTP surface
// maps it to 503 (retry against a recovered server), never 400.
func TestWALUnavailable503(t *testing.T) {
	g := testGraph(t)
	// Crash the filesystem on the very first mutating operation: the first
	// append cannot create its segment, so durability is gone from the start.
	// The WALFS override puts the rooted tenant's log on the shim.
	d := crashfs.New(crashfs.Config{CrashAtOp: 1})
	h := newTestHost(t, HostOptions{RootDir: t.TempDir()})
	s, err := h.Create(DefaultNamespace, g, &Options{WALFS: d})
	if err != nil {
		t.Fatal(err)
	}
	err = s.SubmitMutations(testBatches()[0])
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("submit over a crashed WAL = %v, want ErrUnavailable", err)
	}
	body, _ := json.Marshal(MutationsRequest{Mutations: testBatches()[0]})
	req := httptest.NewRequest("POST", "/v1/mutations", bytes.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("POST /v1/mutations over a crashed WAL = %d, want 503", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("503 unavailable envelope without a Retry-After header")
	}
	if got := s.Metrics(); got.WALAppendErrors == 0 {
		t.Fatal("wal_append_errors not incremented")
	}
	// The served snapshot is untouched: unavailability never corrupts reads.
	requireModelEqual(t, s.Snapshot().Model, icspm.Mine(g))
}

// TestCheckpointCompactsWAL: once a re-mine's checkpoint commits, the WAL
// segments holding the folded batches are garbage and must be compacted; a
// restart then promotes from the checkpoint with nothing to replay.
func TestCheckpointCompactsWAL(t *testing.T) {
	dir := t.TempDir()
	g := testGraph(t)
	batches := testBatches()
	// 1-byte segments: every batch gets its own segment, so compaction is
	// observable as a shrinking file count.
	s1, err := NewServer(g, Options{Dir: dir, WALSegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		if err := s1.SubmitMutations(b); err != nil {
			t.Fatal(err)
		}
		if err := s1.Flush(ctxShort(t)); err != nil {
			t.Fatal(err)
		}
	}
	if n := s1.wl.Segments(); n != 1 {
		t.Fatalf("after checkpointed flushes the WAL spans %d segments, want 1 (active only)", n)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := newTestServer(t, g, Options{Dir: dir, WALSegmentBytes: 1})
	rec := s2.Recovery()
	if !rec.Checkpoint || rec.ReplayedBatches != 0 {
		t.Fatalf("restart over checkpoint+compacted WAL: %+v (want checkpoint, 0 replayed)", rec)
	}
	requireModelEqual(t, s2.Snapshot().Model, icspm.Mine(Rebuild(g, flatten(batches, len(batches)))))
	// And the durable ack sequence resumes where the dead server left off.
	if err := s2.SubmitMutations(batches[0]); err != nil {
		t.Fatal(err)
	}
}

// TestDurableCacheRunBound pins the shard cache's memory bound on a durable
// tenant: every re-mine adds a new attribute value, so the global context
// shifts and each re-mine stores a fresh entry for every group, yet after
// each checkpoint the cache and the MANIFEST hold at most the groups of the
// last two mined states, and from the third mine on each re-mine reports
// the entries it dropped.
func TestDurableCacheRunBound(t *testing.T) {
	dir := t.TempDir()
	ckptDir, _ := wal.TenantDirs(dir)
	s := newTestServer(t, testGraph(t), Options{Dir: dir})
	for i := range 20 {
		before := checkpointAttempts(s)
		if err := s.SubmitMutations([]Mutation{{Op: OpAddAttr, U: graph.VertexID(i % 8), Value: fmt.Sprintf("edit%d", i)}}); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(ctxShort(t)); err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(30 * time.Second); checkpointAttempts(s) == before; {
			if time.Now().After(deadline) {
				t.Fatalf("re-mine %d: no checkpoint attempt", i)
			}
			runtime.Gosched()
		}
		snap := s.Snapshot()
		groups := graph.AttrClosedComponents(snap.Graph).Count
		if snap.Model.CacheMisses != groups {
			t.Fatalf("re-mine %d: %d misses, want all %d groups re-mined", i, snap.Model.CacheMisses, groups)
		}
		if i >= 1 && snap.Model.CacheEvictions != groups {
			t.Fatalf("re-mine %d: %d evictions, want the %d groups of the state two mines back", i, snap.Model.CacheEvictions, groups)
		}
		if n := s.Cache().Stats().Entries; n > 2*groups {
			t.Fatalf("re-mine %d: cache holds %d entries, want at most %d", i, n, 2*groups)
		}
		man, err := shardcache.LoadManifest(ckptDir)
		if err != nil || man == nil {
			t.Fatalf("re-mine %d: manifest %v, %v", i, man, err)
		}
		if len(man.Blobs) > 2*groups {
			t.Fatalf("re-mine %d: MANIFEST lists %d blobs, want at most %d", i, len(man.Blobs), 2*groups)
		}
	}
}

// TestCrashMatrix is the recovery-equivalence suite the WAL exists for: the
// serving workload runs on a fault-injecting filesystem that kills the
// process at EVERY mutating filesystem operation (optionally tearing the
// final write), and after each crash a restarted server must recover a model
// bit-identical to mining some prefix of the submitted batches that includes
// every acknowledged one — then keep serving new writes correctly.
func TestCrashMatrix(t *testing.T) {
	g := testGraph(t)
	batches := testBatches()
	sums := prefixChecksums(t, g, batches)
	// Tiny segments force a rotation per batch, so crash points cover
	// segment creation and directory syncs, not just record writes. The
	// checkpoint directory is a real filesystem; only the log is on the shim.
	opts := func(fs *crashfs.Dir, dir string, debounce time.Duration) Options {
		return Options{Dir: dir, WALFS: fs, WALSegmentBytes: 64, Debounce: debounce}
	}
	// workload acknowledges batches in order until the crash bites; the
	// return is how many were DURABLY acknowledged (submit returned nil).
	// The hour-long debounce keeps every batch in the log only — no re-mine
	// checkpoints it — so the crash points are exactly the log's.
	workload := func(t *testing.T, d *crashfs.Dir, dir string) int {
		s, err := NewServer(g, opts(d, dir, time.Hour))
		if err != nil {
			t.Fatalf("NewServer on a clean crashfs: %v", err)
		}
		acked := 0
		for _, b := range batches {
			if err := s.SubmitMutations(b); err != nil {
				break
			}
			acked++
		}
		reap(s) // the real process just died: no shutdown checkpoint
		return acked
	}

	// Dry run: count the workload's mutating filesystem operations.
	dry := crashfs.New(crashfs.Config{})
	if got := workload(t, dry, t.TempDir()); got != len(batches) {
		t.Fatalf("fault-free workload acked %d/%d batches", got, len(batches))
	}
	total := dry.Ops()
	if total == 0 {
		t.Fatal("workload performed no mutating filesystem operations")
	}

	extra := []Mutation{{Op: OpAddAttr, U: 7, Value: "kdd"}}
	for _, torn := range []int{0, 3, 1 << 20} {
		for k := 1; k <= total; k++ {
			dir := t.TempDir()
			d := crashfs.New(crashfs.Config{CrashAtOp: k, TornBytes: torn})
			acked := workload(t, d, dir)
			if !d.Crashed() {
				t.Fatalf("torn=%d: crash at op %d/%d never fired", torn, k, total)
			}

			s2, err := NewServer(g, opts(d.Recover(), dir, 0))
			if err != nil {
				t.Fatalf("torn=%d crash@%d: recovery failed: %v", torn, k, err)
			}
			r := s2.Recovery().ReplayedBatches
			// No acknowledged batch may be lost; at most the one in-flight
			// batch may additionally have become durable before the crash
			// (a torn write that flushed the entire record).
			if r < acked || r > acked+1 || r > len(batches) {
				s2.Close()
				t.Fatalf("torn=%d crash@%d: recovered %d batches, acked %d", torn, k, r, acked)
			}
			if got := modelChecksum(s2.Snapshot().Model); got != sums[r] {
				s2.Close()
				t.Fatalf("torn=%d crash@%d: recovered model is not Mine(prefix %d)", torn, k, r)
			}
			// Recovery is not just a read-only salvage: the server must keep
			// acknowledging and folding new batches on the recovered log.
			if err := s2.SubmitMutations(extra); err != nil {
				s2.Close()
				t.Fatalf("torn=%d crash@%d: recovered server refused writes: %v", torn, k, err)
			}
			if err := s2.Flush(ctxShort(t)); err != nil {
				s2.Close()
				t.Fatalf("torn=%d crash@%d: flush on recovered server: %v", torn, k, err)
			}
			want := icspm.Mine(Rebuild(g, append(flatten(batches, r), extra...)))
			if got := modelChecksum(s2.Snapshot().Model); got != modelChecksum(want) {
				s2.Close()
				t.Fatalf("torn=%d crash@%d: post-recovery mutation diverged from offline mine", torn, k)
			}
			s2.Close()
		}
	}
}

// checkpointAttempts counts completed checkpoint attempts, committed or
// failed — the signal the checkpointed crash matrix uses to know that the
// asynchronous checkpoint-then-compact following a publish has finished.
func checkpointAttempts(s *Server) uint64 {
	m := s.Metrics()
	return m.Checkpoints + m.PersistErrors
}

// reap simulates process death: it stops the re-mine loop without Close's
// graceful-shutdown work (final re-mine, checkpoint, WAL close). A crashed
// process does not get to write a fresh checkpoint on its way down.
func reap(s *Server) {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	close(s.quit)
	<-s.done
}

// TestCrashMatrixCheckpointed runs the crash matrix over the FULL durability
// pipeline — WAL append, publish, checkpoint commit, WAL compaction — with
// the WAL filesystem killed at every mutating operation (the checkpoint
// directory is a real filesystem, as in production). The crash points
// between a checkpoint's commit and its segment compaction are the
// interesting ones: the folded batches then exist in BOTH the checkpoint
// and the log, and recovery must fold them exactly once — which the
// workload's vertex batches make checkable by model commitment.
func TestCrashMatrixCheckpointed(t *testing.T) {
	g := testGraph(t)
	batches := testBatches()
	sums := prefixChecksums(t, g, batches)
	opts := func(fs *crashfs.Dir, dir string) Options {
		return Options{Dir: dir, WALFS: fs, WALSegmentBytes: 64}
	}
	// workload acknowledges batches in order, waiting out each publish's
	// checkpoint+compact so the filesystem operation sequence is
	// deterministic; the return is how many batches were durably acked.
	workload := func(t *testing.T, d *crashfs.Dir, dir string) int {
		s, err := NewServer(g, opts(d, dir))
		if err != nil {
			return 0 // crashed inside the startup checkpoint
		}
		acked := 0
		for _, b := range batches {
			before := checkpointAttempts(s)
			if err := s.SubmitMutations(b); err != nil {
				break
			}
			acked++
			if err := s.Flush(ctxShort(t)); err != nil {
				break
			}
			// A flushed publish always attempts a checkpoint (success or
			// persist error), so this settles even after the crash fired.
			for checkpointAttempts(s) == before {
				runtime.Gosched()
			}
		}
		reap(s)
		return acked
	}

	// Dry run: count the workload's mutating WAL filesystem operations.
	dry := crashfs.New(crashfs.Config{})
	if got := workload(t, dry, t.TempDir()); got != len(batches) {
		t.Fatalf("fault-free workload acked %d/%d batches", got, len(batches))
	}
	total := dry.Ops()
	if total == 0 {
		t.Fatal("workload performed no mutating WAL operations")
	}

	extra := []Mutation{{Op: OpAddAttr, U: 0, Value: "kdd"}}
	for _, torn := range []int{0, 3, 1 << 20} {
		for k := 1; k <= total; k++ {
			dir := t.TempDir()
			d := crashfs.New(crashfs.Config{CrashAtOp: k, TornBytes: torn})
			acked := workload(t, d, dir)
			if !d.Crashed() {
				t.Fatalf("torn=%d: crash at op %d/%d never fired", torn, k, total)
			}

			s2, err := NewServer(g, opts(d.Recover(), dir))
			if err != nil {
				t.Fatalf("torn=%d crash@%d: recovery failed: %v", torn, k, err)
			}
			// The recovered model must be Mine of SOME batch prefix that
			// includes every acknowledged batch — never a double-fold (which
			// the vertex batches would surface as a prefix-less commitment).
			got := modelChecksum(s2.Snapshot().Model)
			j := -1
			for idx, sum := range sums {
				if sum == got {
					j = idx
					break
				}
			}
			if j < acked {
				s2.Close()
				t.Fatalf("torn=%d crash@%d: recovered model matches batch prefix %d, acked %d",
					torn, k, j, acked)
			}
			// Recovery must keep serving writes on the recovered log+checkpoint.
			if err := s2.SubmitMutations(extra); err != nil {
				s2.Close()
				t.Fatalf("torn=%d crash@%d: recovered server refused writes: %v", torn, k, err)
			}
			if err := s2.Flush(ctxShort(t)); err != nil {
				s2.Close()
				t.Fatalf("torn=%d crash@%d: flush on recovered server: %v", torn, k, err)
			}
			want := icspm.Mine(Rebuild(g, append(flatten(batches, j), extra...)))
			if modelChecksum(s2.Snapshot().Model) != modelChecksum(want) {
				s2.Close()
				t.Fatalf("torn=%d crash@%d: post-recovery mutation diverged from offline mine", torn, k)
			}
			s2.Close()
		}
	}
}

// TestCheckpointGraphRoundtripDeterministic pins the property the model
// verification depends on: a graph serialised to checkpoint bytes, parsed
// back, and re-interned in the recorded vocabulary order mines a model with
// the exact same commitment as the original. If this drifted, every clean
// restart would false-positive as a checksum mismatch and re-mine cold.
func TestCheckpointGraphRoundtripDeterministic(t *testing.T) {
	g := testGraph(t)
	gb, err := graphBytes(g)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := graph.Load(bytes.NewReader(gb))
	if err != nil {
		t.Fatal(err)
	}
	g2 = reintern(g2, g.Vocab().Names())
	a, b := icspm.Mine(g), icspm.Mine(g2)
	if modelChecksum(a) != modelChecksum(b) {
		t.Fatal("checkpoint graph roundtrip changed the model commitment")
	}
	requireModelEqual(t, a, b)
}

// modelChecksumReference is the buffered modelChecksum the streaming one
// replaced: the whole commitment laid out in one buffer, hashed once.
func modelChecksumReference(m *icspm.Model) string {
	names := m.Vocab.Names()
	var b []byte
	appendF := func(x float64) { b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x)) }
	appendU := func(x uint64) { b = binary.LittleEndian.AppendUint64(b, x) }
	appendAttrs := func(ids []graph.AttrID) {
		appendU(uint64(len(ids)))
		for _, a := range ids {
			b = append(b, names[a]...)
			b = append(b, 0)
		}
	}
	appendF(m.BaselineDL)
	appendF(m.FinalDL)
	appendF(m.CondEntropy)
	appendU(uint64(len(m.Patterns)))
	for _, p := range m.Patterns {
		appendAttrs(p.CoreValues)
		appendAttrs(p.LeafValues)
		appendU(uint64(p.FL))
		appendU(uint64(p.FC))
		appendF(p.CodeLen)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestModelChecksumMatchesReference holds the streamed digest to the
// buffered one: on the mid archipelago (a 1.5 MB commitment, many chunk
// flushes), the small test graph, an empty model, and a model whose names
// outgrow a chunk on their own.
func TestModelChecksumMatchesReference(t *testing.T) {
	long := graph.NewVocab()
	var patterns []icspm.AStar
	for i := 0; i < 40; i++ {
		a := long.ID(strings.Repeat(string(rune('a'+i%26)), 1000*i))
		patterns = append(patterns, icspm.AStar{CoreValues: []graph.AttrID{a}, LeafValues: []graph.AttrID{a, 0}, FL: i, FC: 2 * i, CodeLen: float64(i) / 3})
	}
	for _, tc := range []struct {
		name string
		m    *icspm.Model
	}{
		{"mid", midSnapshot().Model},
		{"small", icspm.Mine(testGraph(t))},
		{"empty", &icspm.Model{Vocab: graph.NewVocab()}},
		{"long-names", &icspm.Model{Vocab: long, Patterns: patterns, FinalDL: 1.5}},
	} {
		if got, want := modelChecksum(tc.m), modelChecksumReference(tc.m); got != want {
			t.Errorf("%s: streamed digest %s, buffered %s", tc.name, got, want)
		}
	}
}
