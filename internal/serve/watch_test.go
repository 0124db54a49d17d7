package serve

// GET /watch tests, driven through the /v1 alias: immediate resolution,
// publish resolution, clean timeout, drain/Close release, parameter
// validation, and — the load-bearing one — no torn generation/model pairing
// under a few dozen concurrent snapshot swaps.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"testing"
	"time"

	icspm "cspm/internal/cspm"
)

// watchGet issues one GET /v1/watch and decodes the response.
func watchGet(t *testing.T, base, query string) (WatchResponse, int) {
	t.Helper()
	resp, err := http.Get(base + "/v1/watch" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out WatchResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return out, resp.StatusCode
}

func TestWatchResolvesImmediatelyAtOrBelowHead(t *testing.T) {
	s, hs := serveDefault(t, testGraph(t))
	snap := s.Snapshot()
	for _, query := range []string{"", "?generation=0", "?generation=1"} {
		got, code := watchGet(t, hs.URL, query)
		if code != http.StatusOK {
			t.Fatalf("watch %q: status %d", query, code)
		}
		if got.TimedOut {
			t.Fatalf("watch %q timed out with the generation already published", query)
		}
		if got.Generation != snap.Generation || got.ModelSHA256 != snap.ModelSHA256 {
			t.Fatalf("watch %q = {%d %s}, want {%d %s}",
				query, got.Generation, got.ModelSHA256, snap.Generation, snap.ModelSHA256)
		}
	}
}

func TestWatchResolvesOnPublish(t *testing.T) {
	s, hs := serveDefault(t, testGraph(t))
	ctx := ctxShort(t)

	type result struct {
		resp WatchResponse
		code int
	}
	done := make(chan result, 1)
	go func() {
		got, code := watchGet(t, hs.URL, "?generation=2")
		done <- result{got, code}
	}()
	// Only publishes resolve a poll ahead of head, so wait until the watcher
	// is actually registered before mutating.
	for s.Metrics().RequestsWatch == 0 {
		runtime.Gosched()
	}
	if err := s.SubmitMutations([]Mutation{{Op: OpAddEdge, U: 0, V: 3}}); err != nil {
		t.Fatal(err)
	}
	if err := s.AwaitGeneration(ctx, 2); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-done:
		if r.code != http.StatusOK {
			t.Fatalf("watch status %d", r.code)
		}
		if r.resp.TimedOut {
			t.Fatal("watch reported timed_out after its generation published")
		}
		want := s.Snapshot()
		if r.resp.Generation < 2 {
			t.Fatalf("watch resolved at generation %d, want >= 2", r.resp.Generation)
		}
		if r.resp.Generation == want.Generation && r.resp.ModelSHA256 != want.ModelSHA256 {
			t.Fatalf("watch generation %d carries digest %s, snapshot says %s",
				r.resp.Generation, r.resp.ModelSHA256, want.ModelSHA256)
		}
	case <-ctx.Done():
		t.Fatal("watch did not resolve after its generation published")
	}
}

func TestWatchTimesOutCleanly(t *testing.T) {
	s, hs := serveDefault(t, testGraph(t))
	start := time.Now()
	got, code := watchGet(t, hs.URL, "?generation=99&timeout_ms=50")
	if code != http.StatusOK {
		t.Fatalf("status %d, want 200 (a timeout is not an error)", code)
	}
	if !got.TimedOut {
		t.Fatal("timed_out = false on a poll for an unpublished generation")
	}
	snap := s.Snapshot()
	if got.Generation != snap.Generation || got.ModelSHA256 != snap.ModelSHA256 {
		t.Fatalf("timeout response = {%d %s}, want current state {%d %s}",
			got.Generation, got.ModelSHA256, snap.Generation, snap.ModelSHA256)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("a 50ms poll took %v; the bound is not being honoured", elapsed)
	}
}

// TestWatchHugeTimeoutClampsInsteadOfOverflowing: a timeout_ms past the
// Duration range (here MaxInt64) must clamp to the poll cap, not overflow
// the millisecond multiply negative and time out at once.
func TestWatchHugeTimeoutClampsInsteadOfOverflowing(t *testing.T) {
	s, hs := serveDefault(t, testGraph(t))
	done := make(chan WatchResponse, 1)
	go func() {
		got, code := watchGet(t, hs.URL, "?generation=99&timeout_ms=9223372036854775807")
		if code != http.StatusOK {
			t.Errorf("huge-timeout watch: status %d, want 200", code)
		}
		done <- got
	}()
	for s.Metrics().RequestsWatch < 1 {
		runtime.Gosched()
	}
	select {
	case got := <-done:
		t.Fatalf("watch with timeout_ms=MaxInt64 returned at once: %+v", got)
	case <-time.After(200 * time.Millisecond):
	}
	s.Drain()
	select {
	case got := <-done:
		if !got.TimedOut {
			t.Error("drained watch did not report timed_out")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Drain did not release the huge-timeout watch")
	}
}

func TestWatchRejectsBadParameters(t *testing.T) {
	_, hs := serveDefault(t, testGraph(t))
	for _, query := range []string{
		"?generation=-1", "?generation=x", "?timeout_ms=-5", "?timeout_ms=soon",
	} {
		if _, code := watchGet(t, hs.URL, query); code != http.StatusBadRequest {
			t.Errorf("watch %q: status %d, want 400", query, code)
		}
	}
}

// TestWatchDrainReleasesPolls pins the shutdown contract: Drain (and Close,
// which drains first) must release a blocked long-poll immediately with the
// current state instead of holding the connection until its timeout.
func TestWatchDrainReleasesPolls(t *testing.T) {
	s, hs := serveDefault(t, testGraph(t))

	const watchers = 3
	done := make(chan WatchResponse, watchers)
	for i := 0; i < watchers; i++ {
		go func() {
			got, code := watchGet(t, hs.URL, "?generation=99")
			if code != http.StatusOK {
				t.Errorf("drained watch: status %d", code)
			}
			done <- got
		}()
	}
	for s.Metrics().RequestsWatch < watchers {
		runtime.Gosched()
	}
	s.Drain()
	snap := s.Snapshot()
	deadline := time.After(10 * time.Second)
	for i := 0; i < watchers; i++ {
		select {
		case got := <-done:
			if !got.TimedOut {
				t.Error("drained watch did not report timed_out")
			}
			if got.Generation != snap.Generation || got.ModelSHA256 != snap.ModelSHA256 {
				t.Errorf("drained watch = {%d %s}, want {%d %s}",
					got.Generation, got.ModelSHA256, snap.Generation, snap.ModelSHA256)
			}
		case <-deadline:
			t.Fatal("Drain did not release the watchers (default poll bound is 30s)")
		}
	}

	// Drain is idempotent, and polls arriving AFTER a drain resolve at once.
	s.Drain()
	if got, code := watchGet(t, hs.URL, "?generation=99"); code != http.StatusOK || !got.TimedOut {
		t.Fatalf("post-drain watch = status %d timed_out %v, want 200/true", code, got.TimedOut)
	}
}

// TestWatchNoTornGenerationUnderSwaps hammers /v1/watch while ~48 snapshot
// swaps publish. Every response must pair a generation with EXACTLY the
// model digest published at that generation — a torn read (generation from
// one snapshot, digest from another) fails the lookup.
func TestWatchNoTornGenerationUnderSwaps(t *testing.T) {
	g := testGraph(t)
	s, hs := serveDefault(t, g)
	ctx := ctxShort(t)

	// The same self-undoing cycle the completion race test uses: 8 rounds of
	// 6 stages = 48 swaps over both islands.
	cycle := [][]Mutation{
		{{Op: OpAddEdge, U: 0, V: 3}},
		{{Op: OpAddAttr, U: 3, Value: "cancer"}},
		{{Op: OpDelEdge, U: 0, V: 3}},
		{{Op: OpDelAttr, U: 3, Value: "cancer"}},
		{{Op: OpAddEdge, U: 4, V: 7}},
		{{Op: OpDelEdge, U: 4, V: 7}},
	}
	var batches [][]Mutation
	for round := 0; round < 8; round++ {
		batches = append(batches, cycle...)
	}

	// Expected digest per generation, derived independently of the server.
	expect := map[uint64]string{1: modelChecksum(icspm.Mine(g))}
	staged := g
	for i, batch := range batches {
		staged = Rebuild(staged, batch)
		expect[uint64(i+2)] = modelChecksum(icspm.Mine(staged))
	}

	const hammers = 4
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []string
		n    int
		stop = make(chan struct{})
	)
	for w := 0; w < hammers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			next := uint64(0)
			for {
				select {
				case <-stop:
					return
				default:
				}
				query := fmt.Sprintf("?generation=%d&timeout_ms=100", next)
				resp, err := http.Get(hs.URL + "/v1/watch" + query)
				if err != nil {
					return // server shutting down under t.Cleanup
				}
				var got WatchResponse
				decErr := json.NewDecoder(resp.Body).Decode(&got)
				resp.Body.Close()
				mu.Lock()
				if resp.StatusCode != http.StatusOK || decErr != nil {
					errs = append(errs, fmt.Sprintf("watch failed: status %d err %v", resp.StatusCode, decErr))
				} else if want, ok := expect[got.Generation]; !ok {
					errs = append(errs, fmt.Sprintf("unknown generation %d", got.Generation))
				} else if got.ModelSHA256 != want {
					errs = append(errs, fmt.Sprintf("TORN: generation %d paired with digest %s, want %s",
						got.Generation, got.ModelSHA256, want))
				}
				n++
				mu.Unlock()
				next = got.Generation + 1
			}
		}()
	}

	responses := func() int {
		mu.Lock()
		defer mu.Unlock()
		return n
	}
	for i, batch := range batches {
		before := responses()
		if err := s.SubmitMutations(batch); err != nil {
			t.Fatal(err)
		}
		if err := s.AwaitGeneration(ctx, uint64(i+2)); err != nil {
			t.Fatal(err)
		}
		for responses() == before {
			select {
			case <-ctx.Done():
				t.Fatal("timed out waiting for a watch response between swaps")
			default:
				runtime.Gosched()
			}
		}
	}
	close(stop)
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	for _, e := range errs {
		t.Error(e)
	}
	if n == 0 {
		t.Fatal("no watch responses observed")
	}
	t.Logf("%d watch responses across %d swaps, all generation/digest pairs intact", n, len(batches))
}

// TestMetricsLatencyHistograms pins the /v1/metrics histogram shape: fixed
// log-spaced bounds, one overflow bucket, bucket counts that sum to the
// request count, and per-endpoint attribution through the timed middleware.
func TestMetricsLatencyHistograms(t *testing.T) {
	_, hs := serveDefault(t, testGraph(t))
	const polls = 5
	for i := 0; i < polls; i++ {
		if _, code := watchGet(t, hs.URL, ""); code != http.StatusOK {
			t.Fatalf("watch %d: status %d", i, code)
		}
	}
	var m MetricsSnapshot
	getJSON(t, hs.URL+"/v1/metrics", &m)

	for _, ep := range endpointNames {
		h, ok := m.Latency[ep]
		if !ok {
			t.Fatalf("latency map is missing endpoint %q", ep)
		}
		if len(h.UpperBounds) != latencyBuckets || len(h.Buckets) != latencyBuckets+1 {
			t.Fatalf("%s: %d bounds / %d buckets, want %d/%d",
				ep, len(h.UpperBounds), len(h.Buckets), latencyBuckets, latencyBuckets+1)
		}
		if h.UpperBounds[0] != 100e-6 {
			t.Fatalf("%s: first bound %v, want 100µs (fixed bounds are the merge contract)", ep, h.UpperBounds[0])
		}
		for i := 1; i < len(h.UpperBounds); i++ {
			if h.UpperBounds[i] != h.UpperBounds[i-1]*4 {
				t.Fatalf("%s: bounds not log-spaced at %d: %v", ep, i, h.UpperBounds)
			}
		}
		var sum uint64
		for _, b := range h.Buckets {
			sum += b
		}
		if sum != h.Count {
			t.Fatalf("%s: buckets sum to %d, count says %d", ep, sum, h.Count)
		}
	}
	w := m.Latency["watch"]
	if w.Count != polls || m.RequestsWatch != polls {
		t.Fatalf("watch count = %d (histogram) / %d (counter), want %d", w.Count, m.RequestsWatch, polls)
	}
	if w.SumSeconds <= 0 {
		t.Fatal("watch latency sum is zero after real requests")
	}
	// The metrics handler timed ITSELF: its histogram was snapshotted before
	// observe ran, so it may trail by the in-flight request but never lead.
	if mm := m.Latency["metrics"]; mm.Count > m.RequestsMetrics {
		t.Fatalf("metrics histogram count %d exceeds request counter %d", mm.Count, m.RequestsMetrics)
	}
}
