package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
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
	"cspm/internal/shardrpc"
	"cspm/internal/wal"
	"cspm/internal/wal/crashfs"
)

// testGraphB is a second reference graph, disjoint in vocabulary from
// testGraph, so cross-tenant contamination of any kind (vocab interning,
// cache keys, WAL replay) would show up as a model diff.
func testGraphB(t testing.TB) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(6)
	addAttr := func(v graph.VertexID, vals ...string) {
		for _, val := range vals {
			if err := b.AddAttr(v, val); err != nil {
				t.Fatal(err)
			}
		}
	}
	addEdge := func(u, v graph.VertexID) {
		if err := b.AddEdge(u, v); err != nil {
			t.Fatal(err)
		}
	}
	addAttr(0, "gpu")
	addAttr(1, "gpu", "cuda")
	addAttr(2, "cuda")
	addAttr(3, "gpu")
	addAttr(4, "cuda", "rocm")
	addAttr(5, "rocm")
	addEdge(0, 1)
	addEdge(1, 2)
	addEdge(2, 3)
	addEdge(3, 4)
	addEdge(4, 5)
	addEdge(0, 3)
	return b.Build()
}

func newTestHost(t *testing.T, opts HostOptions) *Host {
	t.Helper()
	h, err := NewHost(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Close() })
	return h
}

func startHostHTTP(t *testing.T, h *Host) *httptest.Server {
	t.Helper()
	hs := httptest.NewServer(h)
	t.Cleanup(hs.Close)
	return hs
}

func TestHostRegistryLifecycle(t *testing.T) {
	h := newTestHost(t, HostOptions{MaxNamespaces: 2})

	if _, err := h.Create("alpha", testGraph(t), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Create("alpha", testGraphB(t), nil); !errors.Is(err, ErrNamespaceExists) {
		t.Fatalf("duplicate create = %v, want ErrNamespaceExists", err)
	}
	if _, err := h.Create("Bad Name", nil, nil); err == nil {
		t.Fatal("create accepted an invalid namespace name")
	}
	// Even a rootless host derives every tenant's durable state: an override
	// bringing its own dir, standby flag or (with no dir to put a log in) a
	// WAL filesystem is refused.
	for _, o := range []Options{{Dir: t.TempDir()}, {Standby: true}, {WALFS: crashfs.New(crashfs.Config{})}} {
		if _, err := h.Create("omega", testGraph(t), &o); err == nil {
			t.Fatalf("rootless host accepted tenant override %+v", o)
		}
	}
	if _, err := h.Create("beta", testGraphB(t), nil); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Create("gamma", nil, nil); !errors.Is(err, ErrNamespaceLimit) {
		t.Fatalf("create past the cap = %v, want ErrNamespaceLimit", err)
	}

	infos := h.Namespaces()
	if len(infos) != 2 || infos[0].Name != "alpha" || infos[1].Name != "beta" {
		t.Fatalf("Namespaces() = %+v, want sorted [alpha beta]", infos)
	}
	if infos[0].Generation != 1 || infos[0].Vertices != 8 {
		t.Fatalf("alpha info = %+v, want generation 1, 8 vertices", infos[0])
	}

	if _, err := h.Delete("gamma"); !errors.Is(err, ErrNamespaceNotFound) {
		t.Fatalf("delete unknown = %v, want ErrNamespaceNotFound", err)
	}
	if _, err := h.Delete("beta"); err != nil {
		t.Fatal(err)
	}
	if _, ok := h.Tenant("beta"); ok {
		t.Fatal("deleted namespace still resolves")
	}
	// The cap counts live tenants: deleting freed a slot.
	if _, err := h.Create("gamma", nil, nil); err != nil {
		t.Fatalf("create after delete = %v, want slot freed", err)
	}

	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Create("delta", nil, nil); !errors.Is(err, ErrHostClosed) {
		t.Fatalf("create after Close = %v, want ErrHostClosed", err)
	}
}

// TestHostTwoTenantIsolation is the acceptance invariant: two namespaces
// mutated concurrently through the HTTP surface publish models
// bit-identical to mining each tenant's mutated reference graph offline —
// tenancy adds routing, never model drift — with fully disjoint on-disk
// trees.
func TestHostTwoTenantIsolation(t *testing.T) {
	root := t.TempDir()
	h := newTestHost(t, HostOptions{RootDir: root})
	gA, gB := testGraph(t), testGraphB(t)
	if _, err := h.Create("alpha", gA, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Create("beta", gB, nil); err != nil {
		t.Fatal(err)
	}
	hs := startHostHTTP(t, h)

	mutsA := []Mutation{
		{Op: OpAddEdge, U: 0, V: 3},
		{Op: OpAddAttr, U: 2, Value: "smoker"},
		{Op: OpDelEdge, U: 4, V: 6},
	}
	mutsB := []Mutation{
		{Op: OpAddAttr, U: 5, Value: "cuda"},
		{Op: OpDelAttr, U: 1, Value: "gpu"},
		{Op: OpAddEdge, U: 1, V: 5},
	}
	done := make(chan error, 2)
	submit := func(ns string, muts []Mutation) {
		var ack MutationsResponse
		resp := postJSON(t, hs.URL+"/v2/graphs/"+ns+"/mutations", MutationsRequest{Mutations: muts}, &ack)
		if resp.StatusCode != http.StatusAccepted {
			done <- fmt.Errorf("%s mutations status %d", ns, resp.StatusCode)
			return
		}
		done <- nil
	}
	go submit("alpha", mutsA)
	go submit("beta", mutsB)
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}

	ctx := ctxShort(t)
	sA, _ := h.Tenant("alpha")
	sB, _ := h.Tenant("beta")
	if err := sA.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if err := sB.Flush(ctx); err != nil {
		t.Fatal(err)
	}

	// Bit-identical to each tenant's single-tenant baseline.
	requireModelEqual(t, sA.Snapshot().Model, icspm.Mine(Rebuild(gA, mutsA)))
	requireModelEqual(t, sB.Snapshot().Model, icspm.Mine(Rebuild(gB, mutsB)))

	// Disjoint durable trees, one per namespace.
	for _, ns := range []string{"alpha", "beta"} {
		ckpt, log := wal.TenantDirs(wal.Layout{Root: root}.NamespaceDir(ns))
		for _, dir := range []string{log, ckpt} {
			if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
				t.Errorf("namespace %s missing durable dir %s: %v", ns, dir, err)
			}
		}
	}

	// The directory entries report what each tenant is actually serving.
	var list NamespacesResponse
	getJSON(t, hs.URL+"/v2/graphs", &list)
	if len(list.Namespaces) != 2 {
		t.Fatalf("list = %+v, want 2 namespaces", list.Namespaces)
	}
	for _, info := range list.Namespaces {
		s, _ := h.Tenant(info.Name)
		snap := s.Snapshot()
		if info.ModelSHA256 != snap.ModelSHA256 || info.Generation != snap.Generation {
			t.Errorf("%s directory entry %+v diverges from served snapshot gen %d %s",
				info.Name, info, snap.Generation, snap.ModelSHA256)
		}
	}
}

// TestHostWedgedWALIsolatesTenant: a tenant whose WAL cannot make batches
// durable 503s ITS mutations only — its queries and every other tenant's
// full surface stay healthy.
func TestHostWedgedWALIsolatesTenant(t *testing.T) {
	h := newTestHost(t, HostOptions{RootDir: t.TempDir()})
	if _, err := h.Create("good", testGraph(t), nil); err != nil {
		t.Fatal(err)
	}
	// Every fsync fails from the first one: the WAL wedges on the first
	// append and the tenant refuses all mutations from then on.
	if _, err := h.Create("bad", testGraphB(t), &Options{WALFS: crashfs.New(crashfs.Config{FailSyncAt: 1})}); err != nil {
		t.Fatal(err)
	}
	hs := startHostHTTP(t, h)

	body, err := json.Marshal(MutationsRequest{Mutations: []Mutation{{Op: OpAddAttr, U: 0, Value: "x"}}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(hs.URL+"/v2/graphs/bad/mutations", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var env ErrorJSON
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || env.Code != CodeUnavailable {
		t.Fatalf("wedged tenant mutation = %d %+v, want 503 %s", resp.StatusCode, env, CodeUnavailable)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 unavailable envelope without a Retry-After header")
	}

	// The wedged tenant still answers queries from its last good snapshot.
	var pats PatternsResponse
	if resp := getJSON(t, hs.URL+"/v2/graphs/bad/patterns", &pats); resp.StatusCode != http.StatusOK {
		t.Fatalf("wedged tenant query status %d, want 200", resp.StatusCode)
	}
	if pats.Generation != 1 {
		t.Fatalf("wedged tenant serves generation %d, want 1", pats.Generation)
	}

	// The healthy tenant accepts and folds mutations as if nothing happened.
	var ack MutationsResponse
	if resp := postJSON(t, hs.URL+"/v2/graphs/good/mutations",
		MutationsRequest{Mutations: []Mutation{{Op: OpAddEdge, U: 0, V: 3}}}, &ack); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("healthy tenant mutation status %d, want 202", resp.StatusCode)
	}
	sGood, _ := h.Tenant("good")
	if err := sGood.Flush(ctxShort(t)); err != nil {
		t.Fatal(err)
	}
	if gen := sGood.Snapshot().Generation; gen < 2 {
		t.Fatalf("healthy tenant stuck at generation %d", gen)
	}
}

// gatedTransport blocks every Submit while a gate channel is installed —
// from the serving side this is a re-mine that takes arbitrarily long, which
// is exactly what the shared budget must contain.
type gatedTransport struct {
	inner shardrpc.Transport
	gate  atomic.Pointer[chan struct{}]
}

func (g *gatedTransport) Submit(job shardrpc.Job) error {
	if ch := g.gate.Load(); ch != nil {
		<-*ch
	}
	return g.inner.Submit(job)
}
func (g *gatedTransport) Results() <-chan shardrpc.Result { return g.inner.Results() }
func (g *gatedTransport) Close() error                    { return g.inner.Close() }

// TestHostSharedBudgetScheduling pins the scheduling contract with budget 1:
// a long re-mine in tenant A delays tenant B's re-mine (B keeps serving its
// old snapshot) but never blocks B's queries, and B's re-mine runs to
// completion once A's finishes.
func TestHostSharedBudgetScheduling(t *testing.T) {
	gt := &gatedTransport{inner: shardrpc.NewLoopback(icspm.ExecuteShardJob, 2)}
	defer gt.Close()
	h := newTestHost(t, HostOptions{MineBudget: 1})
	gA, gB := testGraph(t), testGraphB(t)
	// Gate open during creates: the initial mines draw from the budget too.
	sA, err := h.Create("alpha", gA, &Options{Transport: gt})
	if err != nil {
		t.Fatal(err)
	}
	sB, err := h.Create("beta", gB, nil)
	if err != nil {
		t.Fatal(err)
	}
	hs := startHostHTTP(t, h)

	// Close the gate and wedge tenant A mid-re-mine, holding the only slot.
	gate := make(chan struct{})
	gt.gate.Store(&gate)
	mutsA := []Mutation{{Op: OpAddEdge, U: 0, V: 3}}
	if err := sA.SubmitMutations(mutsA); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for h.Budget().InUse() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("tenant A never took the budget slot")
		}
		time.Sleep(time.Millisecond)
	}

	// Queries to B are never gated.
	var pats PatternsResponse
	if resp := getJSON(t, hs.URL+"/v2/graphs/beta/patterns", &pats); resp.StatusCode != http.StatusOK {
		t.Fatalf("query while budget exhausted: status %d", resp.StatusCode)
	}

	// B's re-mine queues behind the budget: the mutation is acknowledged but
	// the fold cannot start while A holds the slot.
	mutsB := []Mutation{{Op: OpAddAttr, U: 5, Value: "cuda"}}
	if err := sB.SubmitMutations(mutsB); err != nil {
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond)
	if gen := sB.Snapshot().Generation; gen != 1 {
		t.Fatalf("tenant B folded at generation %d while A held the only budget slot", gen)
	}
	if got := h.Budget().InUse(); got != 1 {
		t.Fatalf("budget in use = %d, want 1 (A mid-re-mine)", got)
	}

	// Release A: both re-mines complete, in budget order, to the exact
	// single-tenant models.
	close(gate)
	gt.gate.Store(nil)
	ctx := ctxShort(t)
	if err := sA.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if err := sB.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	requireModelEqual(t, sA.Snapshot().Model, icspm.Mine(Rebuild(gA, mutsA)))
	requireModelEqual(t, sB.Snapshot().Model, icspm.Mine(Rebuild(gB, mutsB)))
}

// TestHostRecoveryScan: a restarted host restores EVERY namespace from the
// root dir — same generation, same model commitment — promotes them
// standby-style (no cold re-mine of clean state), and quarantines a tree
// with no durable state instead of serving garbage or dying.
func TestHostRecoveryScan(t *testing.T) {
	root := t.TempDir()
	gA, gB := testGraph(t), testGraphB(t)
	mutsA := []Mutation{{Op: OpAddEdge, U: 0, V: 3}, {Op: OpAddAttr, U: 2, Value: "smoker"}}

	h1 := newTestHost(t, HostOptions{RootDir: root})
	sA, err := h1.Create("alpha", gA, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h1.Create("beta", gB, nil); err != nil {
		t.Fatal(err)
	}
	if err := sA.SubmitMutations(mutsA); err != nil {
		t.Fatal(err)
	}
	if err := sA.Flush(ctxShort(t)); err != nil {
		t.Fatal(err)
	}
	wantA := sA.Snapshot()
	sB, _ := h1.Tenant("beta")
	wantB := sB.Snapshot()
	if err := h1.Close(); err != nil {
		t.Fatal(err)
	}

	// A namespace directory with nothing durable in it — a create that died
	// before its first checkpoint — must be quarantined, not promoted.
	if err := os.MkdirAll(filepath.Join(root, "stillborn"), 0o755); err != nil {
		t.Fatal(err)
	}

	h2 := newTestHost(t, HostOptions{RootDir: root, Standby: true})
	infos := h2.Namespaces()
	if len(infos) != 2 {
		t.Fatalf("recovered %d namespaces (%+v), want 2", len(infos), infos)
	}
	rA, ok := h2.Tenant("alpha")
	if !ok {
		t.Fatal("alpha not recovered")
	}
	if got := rA.Snapshot(); got.Generation != wantA.Generation || got.ModelSHA256 != wantA.ModelSHA256 {
		t.Fatalf("alpha recovered gen %d sha %s, want gen %d sha %s",
			got.Generation, got.ModelSHA256, wantA.Generation, wantA.ModelSHA256)
	}
	requireModelEqual(t, rA.Snapshot().Model, icspm.Mine(Rebuild(gA, mutsA)))
	rB, ok := h2.Tenant("beta")
	if !ok {
		t.Fatal("beta not recovered")
	}
	if got := rB.Snapshot(); got.ModelSHA256 != wantB.ModelSHA256 {
		t.Fatalf("beta recovered sha %s, want %s", got.ModelSHA256, wantB.ModelSHA256)
	}
	if _, ok := h2.Tenant("stillborn"); ok {
		t.Fatal("a namespace with no durable state was promoted")
	}
	if _, err := os.Stat(filepath.Join(root, wal.QuarantineDir, "stillborn.1")); err != nil {
		t.Fatalf("stillborn tree was not quarantined: %v", err)
	}
	if err := h2.Close(); err != nil {
		t.Fatal(err)
	}

	// Standby over an empty root refuses to come up.
	if _, err := NewHost(HostOptions{RootDir: t.TempDir(), Standby: true}); !errors.Is(err, ErrNoDurableState) {
		t.Fatalf("standby over empty root = %v, want ErrNoDurableState", err)
	}
}

// TestHostDeleteQuarantines: deleting a namespace renames its subtree under
// .quarantine (acked WAL data is never unlinked) and frees the name for a
// fresh create that starts from the new graph, not the old state.
func TestHostDeleteQuarantines(t *testing.T) {
	root := t.TempDir()
	h := newTestHost(t, HostOptions{RootDir: root})
	sA, err := h.Create("alpha", testGraph(t), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := sA.SubmitMutations([]Mutation{{Op: OpAddEdge, U: 0, V: 3}}); err != nil {
		t.Fatal(err)
	}
	if err := sA.Flush(ctxShort(t)); err != nil {
		t.Fatal(err)
	}
	dst, err := h.Delete("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if want := filepath.Join(root, wal.QuarantineDir, "alpha.1"); dst != want {
		t.Fatalf("quarantined to %s, want %s", dst, want)
	}
	if fi, err := os.Stat(dst); err != nil || !fi.IsDir() {
		t.Fatalf("quarantine dir missing: %v", err)
	}
	if _, err := os.Stat(filepath.Join(root, "alpha")); !os.IsNotExist(err) {
		t.Fatalf("namespace dir still present after delete: %v", err)
	}

	// Recreating the name starts fresh: generation 1, the new graph's model.
	gB := testGraphB(t)
	s2, err := h.Create("alpha", gB, nil)
	if err != nil {
		t.Fatal(err)
	}
	snap := s2.Snapshot()
	if snap.Generation != 1 {
		t.Fatalf("recreated namespace at generation %d, want 1", snap.Generation)
	}
	requireModelEqual(t, snap.Model, icspm.Mine(gB))
}

// TestHostRoutesGolden pins the full route inventory: any added, renamed or
// re-methoded route diffs against the committed file and must be a
// deliberate commit. Regenerate with
// UPDATE_WIRE_GOLDEN=1 go test ./internal/serve -run HostRoutesGolden.
func TestHostRoutesGolden(t *testing.T) {
	h := newTestHost(t, HostOptions{})
	got := strings.Join(h.Routes(), "\n") + "\n"
	const path = "testdata/routes_v2.golden"
	if os.Getenv("UPDATE_WIRE_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
	}
	committed, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read fixture: %v (regenerate with UPDATE_WIRE_GOLDEN=1)", err)
	}
	if got != string(committed) {
		t.Errorf("route inventory diverged from %s:\n got:\n%s\nwant:\n%s", path, got, committed)
	}
}

// TestV1AliasServesDefaultByteForByte: the deprecated flat /v1 surface on a
// host answers byte-identically to /v2/graphs/default on an independent
// twin host over the same graph — plus the Deprecation/Sunset/Link headers
// steering clients to v2 — so a v1 client observes zero change beyond the
// headers.
func TestV1AliasServesDefaultByteForByte(t *testing.T) {
	g := testGraph(t)
	_, twin := serveDefault(t, g)

	h := newTestHost(t, HostOptions{})
	if _, err := h.Create(DefaultNamespace, g, nil); err != nil {
		t.Fatal(err)
	}
	hs := startHostHTTP(t, h)

	fetch := func(base, path string) ([]byte, http.Header) {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return body, resp.Header
	}
	paths := []string{
		"/v1/patterns?limit=1000",
		"/v1/patterns?limit=2&offset=1",
		"/v1/model",
		"/v1/watch", // generation 0 resolves immediately with current state
	}
	for _, p := range paths {
		v2Path := "/v2/graphs/default" + strings.TrimPrefix(p, "/v1")
		wantBody, _ := fetch(twin.URL, v2Path)
		gotBody, hdr := fetch(hs.URL, p)
		if !bytes.Equal(gotBody, wantBody) {
			t.Errorf("GET %s over the alias diverged:\n got: %s\nwant: %s", p, gotBody, wantBody)
		}
		if hdr.Get("Deprecation") != "true" {
			t.Errorf("GET %s over the alias: no Deprecation header", p)
		}
		// RFC 8594: the Sunset date must parse as an HTTP date and agree with
		// the pinned retirement instant.
		if sunset := hdr.Get("Sunset"); sunset != v1AliasSunset {
			t.Errorf("GET %s over the alias: Sunset = %q, want %q", p, sunset, v1AliasSunset)
		} else if _, err := http.ParseTime(sunset); err != nil {
			t.Errorf("GET %s over the alias: Sunset %q is not an HTTP date: %v", p, sunset, err)
		}
		if link := hdr.Get("Link"); !strings.Contains(link, "/v2/graphs/default") ||
			!strings.Contains(link, `rel="successor-version"`) {
			t.Errorf("GET %s over the alias: Link = %q, want a /v2/graphs/default successor-version", p, link)
		}
		// The same route under /v2 serves the same bytes (no headers).
		v2Body, v2hdr := fetch(hs.URL, v2Path)
		if !bytes.Equal(v2Body, wantBody) {
			t.Errorf("GET %s under /v2 diverged from the twin host's bytes", p)
		}
		if v2hdr.Get("Deprecation") != "" {
			t.Errorf("/v2 route carries a Deprecation header")
		}
		if v2hdr.Get("Sunset") != "" {
			t.Errorf("/v2 route carries a Sunset header")
		}
	}
}

// TestV1AliasGoldenFixtures pins the alias against the committed v1 wire
// fixtures: the alias's responses must decode into the SAME wire structs
// the fixtures pin and re-encode through the handlers' encoder to the same
// shape, so the alias cannot drift from what v1 clients were built against.
func TestV1AliasGoldenFixtures(t *testing.T) {
	h := newTestHost(t, HostOptions{})
	if _, err := h.Create(DefaultNamespace, testGraph(t), nil); err != nil {
		t.Fatal(err)
	}
	hs := startHostHTTP(t, h)

	// patterns_v1.json: the fixture's field set and order is what the alias
	// must emit. Decode the live response losslessly (DisallowUnknownFields
	// both ways catches added or dropped fields).
	var live PatternsResponse
	resp, err := http.Get(hs.URL + "/v1/patterns")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&live); err != nil {
		t.Fatalf("alias /v1/patterns carries fields outside the v1 contract: %v", err)
	}
	var reenc bytes.Buffer
	if err := json.NewEncoder(&reenc).Encode(live); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(reenc.Bytes(), raw) {
		t.Errorf("alias /v1/patterns is not a canonical PatternsResponse encoding:\n got: %s\nre-encoded: %s", raw, reenc.Bytes())
	}

	// And the committed fixture still decodes under the same struct the
	// alias serves — the live surface and the fixture share one contract.
	fixture, err := os.ReadFile("testdata/patterns_v1.json")
	if err != nil {
		t.Fatal(err)
	}
	var fromFixture PatternsResponse
	fdec := json.NewDecoder(bytes.NewReader(fixture))
	fdec.DisallowUnknownFields()
	if err := fdec.Decode(&fromFixture); err != nil {
		t.Fatalf("committed v1 patterns fixture no longer matches the alias's wire struct: %v", err)
	}

	var watch WatchResponse
	if resp := getJSON(t, hs.URL+"/v1/watch", &watch); resp.StatusCode != http.StatusOK {
		t.Fatalf("alias watch status %d", resp.StatusCode)
	}
	wfix, err := os.ReadFile("testdata/watch_v1.json")
	if err != nil {
		t.Fatal(err)
	}
	var fromWatchFixture WatchResponse
	wdec := json.NewDecoder(bytes.NewReader(wfix))
	wdec.DisallowUnknownFields()
	if err := wdec.Decode(&fromWatchFixture); err != nil {
		t.Fatalf("committed v1 watch fixture no longer matches the alias's wire struct: %v", err)
	}
	if watch.Generation != 1 || watch.ModelSHA256 == "" {
		t.Fatalf("alias watch = %+v, want generation 1 with a model commitment", watch)
	}
}

// TestHostErrorEnvelopes table-tests every 4xx/5xx the host surface can
// produce: each must carry the unified envelope with its stable code.
func TestHostErrorEnvelopes(t *testing.T) {
	h := newTestHost(t, HostOptions{MaxNamespaces: 2})
	if _, err := h.Create("alpha", testGraph(t), nil); err != nil {
		t.Fatal(err)
	}
	hs := startHostHTTP(t, h)

	req := func(method, path, body string) *http.Response {
		t.Helper()
		var rd io.Reader
		if body != "" {
			rd = strings.NewReader(body)
		}
		r, err := http.NewRequest(method, hs.URL+path, rd)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(r)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
		wantCode   string
		wantAllow  bool
	}{
		{"unknown path", "GET", "/v2/nope", "", http.StatusNotFound, CodeNotFound, false},
		{"unknown namespace query", "GET", "/v2/graphs/ghost/patterns", "", http.StatusNotFound, CodeNamespaceNotFound, false},
		{"unknown namespace info", "GET", "/v2/graphs/ghost", "", http.StatusNotFound, CodeNamespaceNotFound, false},
		{"unknown namespace delete", "DELETE", "/v2/graphs/ghost", "", http.StatusNotFound, CodeNamespaceNotFound, false},
		{"invalid namespace name", "POST", "/v2/graphs/UPPER", "", http.StatusBadRequest, CodeBadRequest, false},
		{"unparseable graph upload", "POST", "/v2/graphs/fresh", "not a graph", http.StatusBadRequest, CodeBadRequest, false},
		// 13 bytes that would otherwise size a 2^32-vertex graph.
		{"graph upload past its id space", "POST", "/v2/graphs/fresh", "v 4294967295", http.StatusBadRequest, CodeBadRequest, false},
		{"duplicate namespace", "POST", "/v2/graphs/alpha", "", http.StatusConflict, CodeNamespaceExists, false},
		{"method miss on admin", "PUT", "/v2/graphs/alpha", "", http.StatusMethodNotAllowed, CodeMethodNotAllowed, true},
		{"method miss on tenant route", "POST", "/v2/graphs/alpha/patterns", "", http.StatusMethodNotAllowed, CodeMethodNotAllowed, true},
		{"method miss on v1 alias", "POST", "/v1/patterns", "", http.StatusMethodNotAllowed, CodeMethodNotAllowed, true},
		{"bad query param", "GET", "/v2/graphs/alpha/patterns?offset=-1", "", http.StatusBadRequest, CodeBadRequest, false},
		{"bad limit", "GET", "/v2/graphs/alpha/patterns?limit=9999", "", http.StatusBadRequest, CodeBadRequest, false},
		{"bad mutation body", "POST", "/v2/graphs/alpha/mutations", "{", http.StatusBadRequest, CodeBadRequest, false},
		{"invalid mutation", "POST", "/v2/graphs/alpha/mutations",
			`{"mutations":[{"op":"add_edge","u":0,"v":999}]}`, http.StatusBadRequest, CodeBadRequest, false},
		{"bad complete body", "POST", "/v2/graphs/alpha/complete", `{"vertices":[]}`, http.StatusBadRequest, CodeBadRequest, false},
		{"bad watch generation", "GET", "/v2/graphs/alpha/watch?timeout_ms=-5", "", http.StatusBadRequest, CodeBadRequest, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := req(tc.method, tc.path, tc.body)
			defer resp.Body.Close()
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.wantStatus)
			}
			var env ErrorJSON
			if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
				t.Fatalf("response is not the unified envelope: %v", err)
			}
			if env.Code != tc.wantCode {
				t.Errorf("code %q, want %q", env.Code, tc.wantCode)
			}
			if env.Error == "" {
				t.Error("envelope has an empty error message")
			}
			if tc.wantAllow && resp.Header.Get("Allow") == "" {
				t.Error("405 without an Allow header")
			}
		})
	}

	// Namespace cap → 429 with its own code.
	if _, err := h.Create("beta", nil, nil); err != nil {
		t.Fatal(err)
	}
	resp := req("POST", "/v2/graphs/gamma", "")
	defer resp.Body.Close()
	var env ErrorJSON
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests || env.Code != CodeNamespaceLimit {
		t.Fatalf("create past cap = %d %+v, want 429 %s", resp.StatusCode, env, CodeNamespaceLimit)
	}

	// The v1 alias with no default tenant: namespace_not_found, because the
	// alias resolves to the default namespace.
	h2 := newTestHost(t, HostOptions{})
	hs2 := startHostHTTP(t, h2)
	resp2, err := http.Get(hs2.URL + "/v1/patterns")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var env2 ErrorJSON
	if err := json.NewDecoder(resp2.Body).Decode(&env2); err != nil {
		t.Fatal(err)
	}
	if resp2.StatusCode != http.StatusNotFound || env2.Code != CodeNamespaceNotFound {
		t.Fatalf("alias without default = %d %+v, want 404 %s", resp2.StatusCode, env2, CodeNamespaceNotFound)
	}

	// Create against a closed host: 503 unavailable, and — like every 503
	// envelope — with a Retry-After hint.
	if err := h2.Close(); err != nil {
		t.Fatal(err)
	}
	resp3 := func() *http.Response {
		r, err := http.Post(hs2.URL+"/v2/graphs/late", "text/plain", nil)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}()
	defer resp3.Body.Close()
	var env3 ErrorJSON
	if err := json.NewDecoder(resp3.Body).Decode(&env3); err != nil {
		t.Fatal(err)
	}
	if resp3.StatusCode != http.StatusServiceUnavailable || env3.Code != CodeUnavailable {
		t.Fatalf("create on a closed host = %d %+v, want 503 %s", resp3.StatusCode, env3, CodeUnavailable)
	}
	if resp3.Header.Get("Retry-After") == "" {
		t.Fatal("503 unavailable envelope without a Retry-After header")
	}
}

// TestHostCreateViaHTTP exercises the admin surface end to end: upload a
// graph in the text format, get a 201 directory entry naming generation 1,
// query it, delete it.
func TestHostCreateViaHTTP(t *testing.T) {
	h := newTestHost(t, HostOptions{RootDir: t.TempDir()})
	hs := startHostHTTP(t, h)

	var buf bytes.Buffer
	if err := graph.Write(&buf, testGraph(t)); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(hs.URL+"/v2/graphs/uploaded", "text/plain", bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var info NamespaceInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d, want 201", resp.StatusCode)
	}
	if info.Name != "uploaded" || info.Generation != 1 || info.Vertices != 8 {
		t.Fatalf("created info = %+v, want uploaded/gen 1/8 vertices", info)
	}
	s, _ := h.Tenant("uploaded")
	requireModelEqual(t, s.Snapshot().Model, icspm.Mine(testGraph(t)))

	// Empty body → empty graph, still a live, queryable namespace.
	resp2, err := http.Post(hs.URL+"/v2/graphs/empty", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusCreated {
		t.Fatalf("empty create status %d, want 201", resp2.StatusCode)
	}
	var m ModelResponse
	if r := getJSON(t, hs.URL+"/v2/graphs/empty/model", &m); r.StatusCode != http.StatusOK {
		t.Fatalf("empty namespace model status %d", r.StatusCode)
	}
	if m.Vertices != 0 {
		t.Fatalf("empty namespace has %d vertices", m.Vertices)
	}

	var del DeleteNamespaceResponse
	reqDel, _ := http.NewRequest(http.MethodDelete, hs.URL+"/v2/graphs/uploaded", nil)
	respDel, err := http.DefaultClient.Do(reqDel)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(respDel.Body).Decode(&del); err != nil {
		t.Fatal(err)
	}
	respDel.Body.Close()
	if respDel.StatusCode != http.StatusOK || del.Name != "uploaded" || del.QuarantinedTo == "" {
		t.Fatalf("delete = %d %+v, want 200 with a quarantine path", respDel.StatusCode, del)
	}

	// The deleted namespace leaves the directory and no longer resolves.
	var list NamespacesResponse
	getJSON(t, hs.URL+"/v2/graphs", &list)
	if len(list.Namespaces) != 1 || list.Namespaces[0].Name != "empty" {
		t.Fatalf("list after delete = %+v, want [empty]", list.Namespaces)
	}
	var env ErrorJSON
	if r := getJSON(t, hs.URL+"/v2/graphs/uploaded", &env); r.StatusCode != http.StatusNotFound || env.Code != CodeNamespaceNotFound {
		t.Fatalf("info after delete = %d %+v, want 404 %s", r.StatusCode, env, CodeNamespaceNotFound)
	}

	// A memory-only tenant has no on-disk state to quarantine.
	mem := newTestHost(t, HostOptions{})
	if _, err := mem.Create("beta", nil, nil); err != nil {
		t.Fatal(err)
	}
	memHS := startHostHTTP(t, mem)
	reqDel, _ = http.NewRequest(http.MethodDelete, memHS.URL+"/v2/graphs/beta", nil)
	respDel, err = http.DefaultClient.Do(reqDel)
	if err != nil {
		t.Fatal(err)
	}
	del = DeleteNamespaceResponse{}
	if err := json.NewDecoder(respDel.Body).Decode(&del); err != nil {
		t.Fatal(err)
	}
	respDel.Body.Close()
	if respDel.StatusCode != http.StatusOK || del.Name != "beta" || del.QuarantinedTo != "" {
		t.Fatalf("delete of a memory-only tenant = %d %+v, want 200 with no quarantine path", respDel.StatusCode, del)
	}
}

// TestQuarantineDeleteRestartRecreateDelete: the quarantine destination is
// probed on DISK, not derived from in-memory state — so a namespace deleted,
// re-created after a host restart (which forgets the first quarantine), and
// deleted again lands in a fresh <ns>.<n> slot instead of colliding with the
// first tree's rename target.
func TestQuarantineDeleteRestartRecreateDelete(t *testing.T) {
	root := t.TempDir()
	h := newTestHost(t, HostOptions{RootDir: root})
	if _, err := h.Create("cycle", testGraph(t), nil); err != nil {
		t.Fatal(err)
	}
	dst1, err := h.Delete("cycle")
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: the fresh host has no memory of dst1; only the disk does.
	h2 := newTestHost(t, HostOptions{RootDir: root})
	if _, err := h2.Create("cycle", testGraphB(t), nil); err != nil {
		t.Fatalf("re-create after restart: %v", err)
	}
	dst2, err := h2.Delete("cycle")
	if err != nil {
		t.Fatalf("second delete collided with the restart-forgotten quarantine: %v", err)
	}
	if dst2 == dst1 {
		t.Fatalf("both deletes quarantined to %s — the second clobbered the first", dst1)
	}
	// A third cycle on the same (unrestarted) host also finds a free slot.
	if _, err := h2.Create("cycle", nil, nil); err != nil {
		t.Fatal(err)
	}
	dst3, err := h2.Delete("cycle")
	if err != nil {
		t.Fatal(err)
	}
	// All three trees are intact: quarantine never unlinks, never overwrites.
	for _, dst := range []string{dst1, dst2, dst3} {
		fi, err := os.Stat(dst)
		if err != nil || !fi.IsDir() {
			t.Fatalf("quarantined tree %s missing after later cycles: %v", dst, err)
		}
	}
	// The first two cycles had durable WALs; their quarantined trees must
	// still hold them (the whole point of quarantine over unlink).
	for _, dst := range []string{dst1, dst2} {
		if _, err := os.Stat(filepath.Join(dst, "wal")); err != nil {
			t.Fatalf("quarantined tree %s lost its WAL subtree: %v", dst, err)
		}
	}
}
