package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	icspm "cspm/internal/cspm"
	"cspm/internal/obs"
	"cspm/internal/shardrpc"
)

// --- latencyHist bucket boundaries (PR 10 satellite) ------------------------

// TestLatencyHistBucketBoundaries pins the histogram's boundary semantics:
// the bounds are 100µs·4^k, and observe uses a strict `>` comparison, so a
// value landing EXACTLY on a bound counts in that bound's bucket (le-style,
// matching Prometheus's cumulative le buckets), and anything above the top
// bound lands in the overflow bucket.
func TestLatencyHistBucketBoundaries(t *testing.T) {
	var h latencyHist
	top := time.Duration(latencyBucketBounds[latencyBuckets-1] * float64(time.Second))
	obsv := []struct {
		d    time.Duration
		want int // bucket index
	}{
		{50 * time.Microsecond, 0},
		{100 * time.Microsecond, 0}, // exactly on bounds[0]: in, not above
		{101 * time.Microsecond, 1},
		{400 * time.Microsecond, 1},         // exactly on bounds[1]
		{2 * time.Millisecond, 3},           // between bounds[2]=1.6ms and bounds[3]=6.4ms
		{top, latencyBuckets - 1},           // exactly on the top bound: last finite bucket
		{top + time.Second, latencyBuckets}, // overflow
	}
	for _, o := range obsv {
		h.observe(o.d)
	}
	snap := h.snapshot()
	if snap.Count != uint64(len(obsv)) {
		t.Fatalf("count = %d, want %d", snap.Count, len(obsv))
	}
	wantBuckets := make([]uint64, latencyBuckets+1)
	var wantSum float64
	for _, o := range obsv {
		wantBuckets[o.want]++
		wantSum += o.d.Seconds()
	}
	for i, want := range wantBuckets {
		if snap.Buckets[i] != want {
			t.Fatalf("bucket[%d] = %d, want %d (buckets %v)", i, snap.Buckets[i], want, snap.Buckets)
		}
	}
	if diff := snap.SumSeconds - wantSum; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("sum = %v, want %v", snap.SumSeconds, wantSum)
	}
	if len(snap.UpperBounds) != latencyBuckets || snap.UpperBounds[0] != 100e-6 {
		t.Fatalf("upper bounds = %v", snap.UpperBounds)
	}
}

// --- Budget utilization stats (PR 10 satellite) -----------------------------

func TestBudgetStats(t *testing.T) {
	var nilB *Budget
	if st := nilB.Stats(); st != (BudgetStats{}) {
		t.Fatalf("nil budget stats = %+v, want zero", st)
	}

	unbounded := NewBudget(0)
	unbounded.acquire()
	unbounded.release()
	unbounded.acquire()
	unbounded.release()
	if st := unbounded.Stats(); st.Slots != 0 || st.InUse != 0 || st.Acquisitions != 2 {
		t.Fatalf("unbounded stats = %+v, want 2 acquisitions and no slots", st)
	}

	b := NewBudget(2)
	b.acquire()
	b.acquire()
	st := b.Stats()
	if st.Slots != 2 || st.InUse != 2 || st.Acquisitions != 2 || st.Waiters != 0 {
		t.Fatalf("full budget stats = %+v", st)
	}
	// A third acquire must block and show up as a waiter.
	entered := make(chan struct{})
	done := make(chan struct{})
	go func() {
		close(entered)
		b.acquire()
		close(done)
	}()
	<-entered
	within(t, 5*time.Second, "waiter visible in stats", func() bool {
		return b.Stats().Waiters == 1
	})
	b.release()
	<-done
	st = b.Stats()
	if st.InUse != 2 || st.Acquisitions != 3 || st.Waiters != 0 {
		t.Fatalf("post-handoff stats = %+v", st)
	}
	b.release()
	b.release()
	if st := b.Stats(); st.InUse != 0 {
		t.Fatalf("drained budget InUse = %d", st.InUse)
	}
}

// --- Mutation ack trace IDs -------------------------------------------------

// TestMutationAckTraceID pins the 202 contract: a client X-Request-Id is
// honored and echoed (header + body), a missing one is server-minted, and
// the ack names the batch sequence the trace is queryable under.
func TestMutationAckTraceID(t *testing.T) {
	h := newTestHost(t, HostOptions{RootDir: t.TempDir()})
	if _, err := h.Create("prod", testGraph(t), nil); err != nil {
		t.Fatal(err)
	}
	hs := startHostHTTP(t, h)
	url := hs.URL + "/v2/graphs/prod/mutations"

	post := func(traceID string) (*http.Response, MutationsResponse) {
		t.Helper()
		raw, _ := json.Marshal(MutationsRequest{Mutations: []Mutation{{Op: OpAddAttr, U: 0, Value: "x"}}})
		req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if traceID != "" {
			req.Header.Set("X-Request-Id", traceID)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var ack MutationsResponse
		if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
			t.Fatal(err)
		}
		return resp, ack
	}

	resp, ack := post("trace-alpha-1")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d, want 202", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Request-Id"); got != "trace-alpha-1" {
		t.Fatalf("echoed X-Request-Id = %q, want the client's", got)
	}
	if ack.TraceID != "trace-alpha-1" || ack.Batch != 1 {
		t.Fatalf("ack = %+v, want trace_id trace-alpha-1 batch 1", ack)
	}

	resp, ack = post("")
	if ack.TraceID == "" || ack.TraceID != resp.Header.Get("X-Request-Id") {
		t.Fatalf("server-minted trace: body %q, header %q", ack.TraceID, resp.Header.Get("X-Request-Id"))
	}
	if ack.Batch != 2 {
		t.Fatalf("second batch seq = %d, want 2", ack.Batch)
	}

	// The trace is immediately queryable under the acked sequence.
	code, body := getRaw(t, hs.URL+"/v2/graphs/prod/debug/trace/1")
	if code != http.StatusOK {
		t.Fatalf("GET debug/trace/1 = %d: %s", code, body)
	}
	var tr TraceResponse
	if err := json.Unmarshal(body, &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Seq != 1 || tr.TraceID != "trace-alpha-1" || tr.Mutations != 1 {
		t.Fatalf("trace = %+v", tr)
	}
	if len(tr.Events) < 2 || tr.Events[0].Stage != obs.StageSubmitted || tr.Events[1].Stage != obs.StageWALAppended {
		t.Fatalf("trace events = %+v, want submitted then wal_appended", tr.Events)
	}

	// Unknown sequences answer the envelope 404 with the dedicated code.
	code, body = getRaw(t, hs.URL+"/v2/graphs/prod/debug/trace/999")
	var env ErrorJSON
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if code != http.StatusNotFound || env.Code != CodeTraceNotFound {
		t.Fatalf("missing trace = %d %q, want 404 %s", code, env.Code, CodeTraceNotFound)
	}
}

// --- Prometheus exposition --------------------------------------------------

// promFixture builds a fully deterministic fleet snapshot: every field
// non-zero so the golden pins each family's rendering.
func promFixture() ([]PromTenant, BudgetStats) {
	lat := func(count uint64, sum float64) map[string]LatencyJSON {
		return map[string]LatencyJSON{
			"patterns": {
				Count:       count,
				SumSeconds:  sum,
				UpperBounds: []float64{0.001, 0.01},
				Buckets:     []uint64{count - 3, 2, 1},
			},
		}
	}
	alpha := MetricsSnapshot{
		RequestsPatterns: 6, BadRequests: 1, VerticesScored: 40,
		MutationsAccepted: 9, MutationsRejected: 2, PendingMutations: 3,
		Remines: 4, RemineFailures: 1, RemineSecondsTotal: 1.5, RemineSecondsLast: 0.25,
		SnapshotGeneration: 5, SnapshotAgeSeconds: 12.5,
		WALAppends: 9, WALAppendErrors: 1, PersistErrors: 2,
		RecoveredBatches: 3, QuarantinedBlobs: 1, ChecksumMismatches: 1,
		Checkpoints: 4, Latency: lat(6, 0.75),
		ReplicationSyncs: 0, ReplicationVerifyFailures: 0,
		ReplicationBytesShipped: 2048, ReplicationLag: 0, ReplicationWALPosition: 9,
		Role: RoleLeader,
	}
	beta := MetricsSnapshot{
		RequestsPatterns: 4, BadRequests: 2, VerticesScored: 10,
		MutationsAccepted: 1, MutationsRejected: 1, PendingMutations: 1,
		Remines: 2, RemineFailures: 2, RemineSecondsTotal: 0.5, RemineSecondsLast: 0.125,
		SnapshotGeneration: 4, SnapshotAgeSeconds: 2.25,
		WALAppends: 5, WALAppendErrors: 2, PersistErrors: 1,
		RecoveredBatches: 1, QuarantinedBlobs: 2, ChecksumMismatches: 3,
		Checkpoints: 2, Latency: lat(4, 0.5),
		ReplicationSyncs: 7, ReplicationVerifyFailures: 1,
		ReplicationBytesShipped: 0, ReplicationLag: 1, ReplicationWALPosition: 9,
		Role: RoleFollower,
	}
	// Deliberately unsorted: WritePrometheus must order by namespace.
	tenants := []PromTenant{{Namespace: "beta", Metrics: beta}, {Namespace: "alpha", Metrics: alpha}}
	return tenants, BudgetStats{Slots: 4, InUse: 2, Waiters: 1, Acquisitions: 37}
}

// TestPromExpositionGolden pins the host /metrics text format byte-for-byte:
// family order, label order, escaping, histogram expansion, float rendering.
// Regenerate after an intentional change with
// UPDATE_WIRE_GOLDEN=1 go test ./internal/serve -run PromExposition.
func TestPromExpositionGolden(t *testing.T) {
	const path = "testdata/metrics_prom.golden"
	tenants, budget := promFixture()
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, tenants, budget); err != nil {
		t.Fatal(err)
	}
	if os.Getenv("UPDATE_WIRE_GOLDEN") != "" {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d bytes to %s", buf.Len(), path)
	}
	committed, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read fixture: %v (regenerate with UPDATE_WIRE_GOLDEN=1)", err)
	}
	if !bytes.Equal(committed, buf.Bytes()) {
		t.Errorf("Prometheus exposition diverged from the committed format:\n got:\n%s\nwant:\n%s", buf.Bytes(), committed)
	}
}

// promLine matches one well-formed exposition sample line.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? (-?[0-9.e+-]+|\+Inf|NaN)$`)

// TestHostPromMetricsEndpoint scrapes a live host: right Content-Type, every
// line parses, and the scrape covers tenants, budget and histograms.
func TestHostPromMetricsEndpoint(t *testing.T) {
	h := newTestHost(t, HostOptions{MineBudget: 2})
	if _, err := h.Create("prod", testGraph(t), nil); err != nil {
		t.Fatal(err)
	}
	hs := startHostHTTP(t, h)
	// Exercise an endpoint so the histogram families have samples.
	readBytes(t, hs.URL+"/v2/graphs/prod/patterns")

	resp, err := http.Get(hs.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != obs.PromContentType {
		t.Fatalf("Content-Type = %q, want %q", ct, obs.PromContentType)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		if !promLine.MatchString(line) {
			t.Fatalf("malformed exposition line: %q", line)
		}
	}
	for _, want := range []string{
		"cspm_namespaces 1\n",
		`cspm_requests_total{namespace="prod",role="standalone",endpoint="patterns"} 1` + "\n",
		`cspm_request_duration_seconds_bucket{namespace="prod",role="standalone",endpoint="patterns",le="+Inf"} 1` + "\n",
		"cspm_mine_budget_slots 2\n",
		"cspm_mine_budget_acquisitions_total 1\n", // the initial mine took a slot
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("scrape missing %q:\n%s", want, text)
		}
	}
}

// --- Leader-side follower tracking (PR 10 satellite) ------------------------

func TestLeaderTracksFollowerStatus(t *testing.T) {
	leader := newTestHost(t, HostOptions{RootDir: t.TempDir()})
	if _, err := leader.Create("prod", testGraph(t), nil); err != nil {
		t.Fatal(err)
	}
	lhs := startHostHTTP(t, leader)

	// Before any follower attaches, the leader reports none.
	var st ReplicationStatusResponse
	if err := json.Unmarshal(readBytes(t, lhs.URL+"/v2/graphs/prod/replication/status"), &st); err != nil {
		t.Fatal(err)
	}
	if st.Role != RoleLeader || len(st.Followers) != 0 {
		t.Fatalf("pre-attach status = %+v, want leader with no followers", st)
	}

	replica := newReplicaHost(t, lhs.URL, HostOptions{})
	rs, ok := replica.Tenant("prod")
	if !ok {
		t.Fatal("replica did not mirror prod")
	}
	if err := rs.AwaitGeneration(ctxShort(t), 1); err != nil {
		t.Fatal(err)
	}
	within(t, 15*time.Second, "leader sees the follower", func() bool {
		if err := json.Unmarshal(readBytes(t, lhs.URL+"/v2/graphs/prod/replication/status"), &st); err != nil {
			t.Fatal(err)
		}
		return len(st.Followers) == 1 && st.Followers[0].ShippedGeneration >= 1
	})
	f := st.Followers[0]
	if f.ID == "" {
		t.Fatal("follower status has no ID")
	}
	if f.ManifestFetchAgeSeconds < 0 {
		t.Fatalf("manifest fetch age = %v, want >= 0 (has fetched)", f.ManifestFetchAgeSeconds)
	}
	// WAL fetches only happen once there is a tail to ship; -1 (never) and a
	// recent age are both legal here — the field just must be well-formed.
	if f.WALFetchAgeSeconds < -1 {
		t.Fatalf("wal fetch age = %v", f.WALFetchAgeSeconds)
	}
}

// --- Fleet-joined lifecycle trace (PR 10 acceptance) ------------------------

// stageIndex returns the position of stage in evs, or -1.
func stageIndex(evs []TraceEventJSON, stage string) int {
	for i, ev := range evs {
		if ev.Stage == stage {
			return i
		}
	}
	return -1
}

// TestFleetTraceEndToEnd is the PR 10 acceptance scenario: one mutation
// batch submitted with an X-Request-Id flows submit → wal_append → fold →
// re-mine → checkpoint on the leader and ship → verify → swap on the
// follower, and the two /debug/trace/{seq} views join on the leader's
// sequence number and carry the same trace ID.
func TestFleetTraceEndToEnd(t *testing.T) {
	// The leader's debounce holds the fold open long enough for the
	// follower's fast poll to mirror the WAL record BEFORE the checkpoint
	// prunes the shippable tail; without that ordering the wal_mirrored and
	// replicated_to_follower stages can legitimately be missed.
	tmpl := fastFollower()
	tmpl.Debounce = 750 * time.Millisecond
	leader := newTestHost(t, HostOptions{RootDir: t.TempDir(), Tenant: tmpl})
	if _, err := leader.Create("prod", testGraph(t), nil); err != nil {
		t.Fatal(err)
	}
	lhs := startHostHTTP(t, leader)
	replica := newReplicaHost(t, lhs.URL, HostOptions{})
	rhs := startHostHTTP(t, replica)
	rs, ok := replica.Tenant("prod")
	if !ok {
		t.Fatal("replica did not mirror prod")
	}
	if err := rs.AwaitGeneration(ctxShort(t), 1); err != nil {
		t.Fatal(err)
	}

	const traceID = "fleet-trace-e2e"
	raw, _ := json.Marshal(MutationsRequest{Mutations: []Mutation{
		{Op: OpAddAttr, U: 0, Value: "observed"},
		{Op: OpAddEdge, U: 0, V: 3},
	}})
	req, err := http.NewRequest(http.MethodPost, lhs.URL+"/v2/graphs/prod/mutations", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-Id", traceID)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var ack MutationsResponse
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || ack.Batch == 0 {
		t.Fatalf("submit = %d, ack %+v", resp.StatusCode, ack)
	}

	// Wait for the whole pipeline: leader folds and checkpoints generation 2,
	// follower verifies and swaps it in.
	if err := rs.AwaitGeneration(ctxShort(t), 2); err != nil {
		t.Fatal(err)
	}

	traceURL := func(base string) string {
		return base + "/v2/graphs/prod/debug/trace/" + jsonNumber(ack.Batch)
	}
	var lt TraceResponse
	within(t, 15*time.Second, "leader trace completes", func() bool {
		if err := json.Unmarshal(readBytes(t, traceURL(lhs.URL)), &lt); err != nil {
			t.Fatal(err)
		}
		return stageIndex(lt.Events, obs.StageCheckpointed) >= 0
	})
	if lt.Seq != ack.Batch || lt.TraceID != traceID || lt.Role != RoleLeader || lt.Mutations != 2 {
		t.Fatalf("leader trace header = %+v", lt)
	}
	// The leader half, in pipeline order.
	order := []string{
		obs.StageSubmitted, obs.StageWALAppended, obs.StageRemineStart,
		obs.StageFolded, obs.StagePublished, obs.StageCheckpointed,
	}
	last := -1
	for _, stage := range order {
		i := stageIndex(lt.Events, stage)
		if i < 0 {
			t.Fatalf("leader trace missing stage %q: %+v", stage, lt.Events)
		}
		if i <= last {
			t.Fatalf("leader stage %q out of order: %+v", stage, lt.Events)
		}
		last = i
	}
	ship := stageIndex(lt.Events, obs.StageReplicated)
	if ship < 0 {
		t.Fatalf("leader trace missing %q: %+v", obs.StageReplicated, lt.Events)
	}
	if lt.Events[ship].Note == "" {
		t.Fatal("replicated_to_follower event does not name the follower")
	}
	for _, stage := range []string{obs.StageFolded, obs.StagePublished, obs.StageCheckpointed} {
		if ev := lt.Events[stageIndex(lt.Events, stage)]; ev.Generation != 2 {
			t.Fatalf("leader %s generation = %d, want 2", stage, ev.Generation)
		}
	}

	// The follower half, joined by the SAME leader sequence number, carrying
	// the SAME trace ID (shipped inside the replication WAL records).
	var ft TraceResponse
	within(t, 15*time.Second, "follower trace completes", func() bool {
		if err := json.Unmarshal(readBytes(t, traceURL(rhs.URL)), &ft); err != nil {
			t.Fatal(err)
		}
		return stageIndex(ft.Events, obs.StageSwapped) >= 0
	})
	if ft.Seq != ack.Batch || ft.TraceID != traceID || ft.Role != RoleFollower {
		t.Fatalf("follower trace header = %+v (want seq %d, trace %q)", ft, ack.Batch, traceID)
	}
	last = -1
	for _, stage := range []string{obs.StageWALMirrored, obs.StageVerified, obs.StageSwapped} {
		i := stageIndex(ft.Events, stage)
		if i < 0 {
			t.Fatalf("follower trace missing stage %q: %+v", stage, ft.Events)
		}
		if i <= last {
			t.Fatalf("follower stage %q out of order: %+v", stage, ft.Events)
		}
		last = i
	}
	for _, stage := range []string{obs.StageVerified, obs.StageSwapped} {
		if ev := ft.Events[stageIndex(ft.Events, stage)]; ev.Generation != 2 {
			t.Fatalf("follower %s generation = %d, want 2", stage, ev.Generation)
		}
	}

	// The re-mine that folded the batch left a stage profile behind.
	prof := awaitRemineProfile(t, lhs.URL+"/v2/graphs/prod/debug/remines")
	if prof.Generation != 2 || prof.Batches != 1 || prof.Error != "" {
		t.Fatalf("newest re-mine profile = %+v, want generation 2 covering 1 batch", prof)
	}
	for _, span := range []string{obs.SpanRebuild, obs.SpanPublish, obs.SpanCheckpoint} {
		found := false
		for _, sp := range prof.Spans {
			if sp.Stage == span {
				found = true
			}
		}
		if !found {
			t.Fatalf("re-mine profile missing span %q: %+v", span, prof.Spans)
		}
	}
}

// TestRemineProfileSpansLocalAndDistributed pins that a re-mine reports the
// component pipeline's own phases whether the dirty groups mine in-process
// or as shard jobs over a transport, and one record per component group:
// the edit touches only the first island, so its group is mined and the
// other replays from the cache. A mined group's mine lies inside the
// shard_mine span, which is what it means for the record to be stamped
// after the group finished; a hit reports no time and no gain evaluations.
func TestRemineProfileSpansLocalAndDistributed(t *testing.T) {
	lb := shardrpc.NewLoopback(icspm.ExecuteShardJob, 2)
	defer lb.Close()
	for _, tc := range []struct {
		name      string
		transport shardrpc.Transport
	}{{"local", nil}, {"loopback", lb}} {
		t.Run(tc.name, func(t *testing.T) {
			h := newTestHost(t, HostOptions{})
			s, err := h.Create("prod", testGraph(t), &Options{Transport: tc.transport})
			if err != nil {
				t.Fatal(err)
			}
			hs := startHostHTTP(t, h)
			if err := s.SubmitMutations([]Mutation{{Op: OpAddEdge, U: 1, V: 3}}); err != nil {
				t.Fatal(err)
			}
			if err := s.Flush(ctxShort(t)); err != nil {
				t.Fatal(err)
			}
			prof := awaitRemineProfile(t, hs.URL+"/v2/graphs/prod/debug/remines")
			if prof.Error != "" {
				t.Fatalf("re-mine failed: %s", prof.Error)
			}
			for _, span := range []string{obs.SpanFingerprint, obs.SpanDiff, obs.SpanShardMine, obs.SpanMerge} {
				found := false
				for _, sp := range prof.Spans {
					found = found || sp.Stage == span
				}
				if !found {
					t.Fatalf("re-mine profile missing span %q: %+v", span, prof.Spans)
				}
			}
			var shardMine float64
			for _, sp := range prof.Spans {
				if sp.Stage == obs.SpanShardMine {
					shardMine = sp.Seconds
				}
			}
			if len(prof.Groups) != 2 {
				t.Fatalf("re-mine profile lists %d groups, want 2: %+v", len(prof.Groups), prof.Groups)
			}
			mined, hit := prof.Groups[0], prof.Groups[1]
			if mined.Group != 0 || mined.Outcome != obs.GroupMined || mined.GainEvals <= 0 ||
				mined.MineSeconds <= 0 || mined.StartSeconds < 0 || mined.StartSeconds+mined.MineSeconds > shardMine {
				t.Fatalf("edited island's group = %+v, want mined within the %vs shard_mine span", mined, shardMine)
			}
			if hit != (RemineGroupJSON{Group: 1, Outcome: obs.GroupHit}) {
				t.Fatalf("untouched island's group = %+v, want a hit with no time or gain evaluations", hit)
			}
		})
	}
}

// awaitRemineProfile polls a /debug/remines URL until it lists a profile and
// returns the newest. A durable re-mine adds its profile only after the
// checkpoint it times, which can land after Flush has already returned.
func awaitRemineProfile(t *testing.T, url string) RemineProfileJSON {
	t.Helper()
	var rms ReminesResponse
	within(t, 5*time.Second, "a re-mine profile at "+url, func() bool {
		if err := json.Unmarshal(readBytes(t, url), &rms); err != nil {
			t.Fatal(err)
		}
		return len(rms.Remines) > 0
	})
	return rms.Remines[0]
}

// jsonNumber renders a uint64 for a URL path.
func jsonNumber(v uint64) string {
	b, _ := json.Marshal(v)
	return string(b)
}
