package cli

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

const fig1Text = `# paper Fig. 1
v 0 a
v 1 a c
v 2 c
v 3 b
v 4 a b
e 0 1
e 0 2
e 0 3
e 2 4
e 3 4
`

func TestMineDefault(t *testing.T) {
	var out bytes.Buffer
	if err := Mine(strings.NewReader(fig1Text), &out, MineConfig{}); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	if !strings.Contains(s, "({a}, {b c})") {
		t.Fatalf("expected merged pattern in output:\n%s", s)
	}
}

func TestMineStatsHeader(t *testing.T) {
	var out bytes.Buffer
	if err := Mine(strings.NewReader(fig1Text), &out, MineConfig{Stats: true}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "# baseline DL") {
		t.Fatal("stats header missing")
	}
}

func TestMineTopAndMultiOnly(t *testing.T) {
	var out bytes.Buffer
	if err := Mine(strings.NewReader(fig1Text), &out, MineConfig{Top: 1, MultiOnly: true}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(strings.TrimSpace(out.String()), "\n") + 1
	if lines != 1 {
		t.Fatalf("Top=1 printed %d lines:\n%s", lines, out.String())
	}
	if !strings.Contains(out.String(), "{") {
		t.Fatal("no pattern printed")
	}
}

func TestMineVariants(t *testing.T) {
	for _, v := range []string{"partial", "basic"} {
		var out bytes.Buffer
		if err := Mine(strings.NewReader(fig1Text), &out, MineConfig{Variant: v}); err != nil {
			t.Fatalf("%s: %v", v, err)
		}
	}
	if err := Mine(strings.NewReader(fig1Text), &bytes.Buffer{}, MineConfig{Variant: "bogus"}); err == nil {
		t.Fatal("bogus variant accepted")
	}
}

// twoIslandText is fig1 plus a disconnected second component with its own
// alphabet, so component mining has something to split.
const twoIslandText = fig1Text + `v 5 x
v 6 x y
v 7 y
e 5 6
e 6 7
e 5 7
`

// TestMineSharded pins the component path of cspm: -cache mines one shard
// per attribute-closed group, and its output is the whole-graph run's plus
// the shard and cache header lines.
func TestMineSharded(t *testing.T) {
	var unsharded, sharded bytes.Buffer
	if err := Mine(strings.NewReader(twoIslandText), &unsharded, MineConfig{Stats: true}); err != nil {
		t.Fatal(err)
	}
	if err := Mine(strings.NewReader(twoIslandText), &sharded, MineConfig{Stats: true, Cache: true}); err != nil {
		t.Fatal(err)
	}
	const headers = "# shards: 2\n# cache: 0 hits, 2 misses, 0 evictions\n"
	if !strings.Contains(sharded.String(), headers) {
		t.Fatalf("shard and cache headers missing:\n%s", sharded.String())
	}
	// Same patterns, same DLs: sharded mining is exact, so only the extra
	// header lines may differ.
	trim := func(s string) string { return strings.ReplaceAll(s, headers, "") }
	if trim(sharded.String()) != unsharded.String() {
		t.Fatalf("sharded output diverged:\n%s\nvs\n%s", sharded.String(), unsharded.String())
	}
	for _, cfg := range []MineConfig{
		{Cache: true, MultiCore: true},  // unsupported combination
		{Cache: true, Variant: "bogus"}, // variant validated on the sharded path
	} {
		if err := Mine(strings.NewReader(twoIslandText), &bytes.Buffer{}, cfg); err == nil {
			t.Fatalf("invalid config %+v accepted", cfg)
		}
	}
}

func TestMineCached(t *testing.T) {
	var uncached, cached bytes.Buffer
	if err := Mine(strings.NewReader(twoIslandText), &uncached, MineConfig{Stats: true}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := Mine(strings.NewReader(twoIslandText), &cached, MineConfig{Stats: true, CacheDir: dir}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(cached.String(), "misses") {
		t.Fatalf("cache stats line missing:\n%s", cached.String())
	}
	// Second run over the same directory must be fully warm and otherwise
	// print exactly the uncached output (cached mining is bit-exact).
	var warm bytes.Buffer
	if err := Mine(strings.NewReader(twoIslandText), &warm, MineConfig{Stats: true, CacheDir: dir}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(warm.String(), "# cache: 2 hits, 0 misses") {
		t.Fatalf("warm run not served from cache:\n%s", warm.String())
	}
	strip := func(s string) string {
		var keep []string
		for _, ln := range strings.Split(s, "\n") {
			// The iterations line also goes: its gain-evaluation count
			// legitimately varies with shard interleaving (see the sharded
			// exactness probe in the verify notes).
			if strings.HasPrefix(ln, "# shards:") || strings.HasPrefix(ln, "# cache:") ||
				strings.HasPrefix(ln, "# iterations:") {
				continue
			}
			keep = append(keep, ln)
		}
		return strings.Join(keep, "\n")
	}
	if strip(warm.String()) != strip(uncached.String()) {
		t.Fatalf("cached output diverged:\n%s\nvs\n%s", warm.String(), uncached.String())
	}
	// -cache without a directory also works (single-run in-memory cache).
	if err := Mine(strings.NewReader(twoIslandText), &bytes.Buffer{}, MineConfig{Cache: true}); err != nil {
		t.Fatal(err)
	}
}

// failingReader asserts option validation happens BEFORE the graph is read:
// any Read is the failure the small-fix satellite guards against.
type failingReader struct{ t *testing.T }

func (r failingReader) Read([]byte) (int, error) {
	r.t.Error("graph input was read before option validation finished")
	return 0, nil
}

func TestMineValidatesBeforeLoad(t *testing.T) {
	for _, cfg := range []MineConfig{
		{Variant: "bogus"},
		{Top: -1},
		{Cache: true, MultiCore: true},
		{CacheDir: "/dev/null/not-a-dir", MultiCore: true}, // combination rejected before dir open
		{CacheDir: "/dev/null/not-a-dir"},                  // unusable cache dir rejected pre-load
		{Remote: "not-an-address"},                         // no port
		{Remote: "host:1,"},                                // trailing empty worker
		{Remote: "host:1, ,host:2"},                        // blank worker in the middle
		{Remote: "host:1", MultiCore: true},
		{Remote: "host:1", RemoteRetries: -1},
		{Remote: "host:1", RemoteTimeout: -time.Second},
		{RemoteRetries: 2},                   // remote knobs require -remote
		{RemoteTimeout: time.Second},         //
		{RemoteNoFallback: true},             //
		{Remote: "host:1", Variant: "bogus"}, // variant still validated on the remote path
		{Remote: "127.0.0.1:1"},              // unreachable fleet rejected pre-load
	} {
		if err := Mine(failingReader{t}, &bytes.Buffer{}, cfg); err == nil {
			t.Fatalf("invalid config %+v accepted", cfg)
		}
	}
}

func TestMineRemote(t *testing.T) {
	addr, stop, err := StartWorker(WorkerConfig{Listen: "127.0.0.1:0", Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	var local, remote bytes.Buffer
	if err := Mine(strings.NewReader(twoIslandText), &local, MineConfig{Stats: true}); err != nil {
		t.Fatal(err)
	}
	if err := Mine(strings.NewReader(twoIslandText), &remote, MineConfig{Stats: true, Remote: addr}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(remote.String(), "# remote: 2 jobs, 0 retries, 0 fallbacks") {
		t.Fatalf("remote stats line missing:\n%s", remote.String())
	}
	// Bit-exact merge: only the scheduling-dependent header lines may
	// differ (same contract the cached CLI test pins).
	strip := func(s string) string {
		var keep []string
		for _, ln := range strings.Split(s, "\n") {
			if strings.HasPrefix(ln, "# shards:") || strings.HasPrefix(ln, "# remote:") ||
				strings.HasPrefix(ln, "# iterations:") {
				continue
			}
			keep = append(keep, ln)
		}
		return strings.Join(keep, "\n")
	}
	if strip(remote.String()) != strip(local.String()) {
		t.Fatalf("remote output diverged:\n%s\nvs\n%s", remote.String(), local.String())
	}
	// Remote composes with the persistent cache: a warm second run mines
	// nothing remotely.
	dir := t.TempDir()
	var cold, warm bytes.Buffer
	if err := Mine(strings.NewReader(twoIslandText), &cold, MineConfig{Stats: true, Remote: addr, CacheDir: dir}); err != nil {
		t.Fatal(err)
	}
	if err := Mine(strings.NewReader(twoIslandText), &warm, MineConfig{Stats: true, Remote: addr, CacheDir: dir}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(warm.String(), "# cache: 2 hits, 0 misses") || strings.Contains(warm.String(), "# remote:") {
		t.Fatalf("warm remote run not served from cache:\n%s", warm.String())
	}
}

func TestStartWorkerValidates(t *testing.T) {
	for _, cfg := range []WorkerConfig{
		{Listen: ""},
		{Listen: "no-port"},
		{Listen: "127.0.0.1:0", Workers: -1},
	} {
		if _, _, err := StartWorker(cfg); err == nil {
			t.Fatalf("invalid worker config %+v accepted", cfg)
		}
	}
}

func TestMineMultiCore(t *testing.T) {
	var out bytes.Buffer
	if err := Mine(strings.NewReader(fig1Text), &out, MineConfig{MultiCore: true}); err != nil {
		t.Fatal(err)
	}
	if out.Len() == 0 {
		t.Fatal("no output")
	}
}

func TestMineBadInput(t *testing.T) {
	if err := Mine(strings.NewReader("x nonsense\n"), &bytes.Buffer{}, MineConfig{}); err == nil {
		t.Fatal("malformed input accepted")
	}
}

func TestGenerateAll(t *testing.T) {
	for _, name := range []string{"dblp", "dblptrend", "usflight", "planted"} {
		g, err := Generate(name, 1, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if g.NumVertices() == 0 {
			t.Fatalf("%s: empty graph", name)
		}
	}
	if _, err := Generate("pokec", 1, 500); err != nil {
		t.Fatal(err)
	}
	if _, err := Generate("nope", 1, 0); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestGeneratePokecNodesOverride(t *testing.T) {
	g, err := Generate("pokec", 1, 321)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 321 {
		t.Fatalf("nodes override ignored: %d", g.NumVertices())
	}
}

func TestWriteGraphRoundTrip(t *testing.T) {
	g, err := Generate("usflight", 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteGraph(&buf, g, "dataset=usflight"); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(buf.String(), "# dataset=usflight") {
		t.Fatal("header missing")
	}
	// The emitted text must mine cleanly end to end.
	var out bytes.Buffer
	if err := Mine(strings.NewReader(buf.String()), &out, MineConfig{Top: 5}); err != nil {
		t.Fatal(err)
	}
	if out.Len() == 0 {
		t.Fatal("no patterns from generated dataset")
	}
}

// --- cspm-serve -----------------------------------------------------------

func TestStartServeValidatesBeforeLoad(t *testing.T) {
	for _, cfg := range []ServeConfig{
		{},                  // missing listen
		{Listen: "no-port"}, // not host:port
		{Listen: "127.0.0.1:0", Debounce: -time.Second},
		{Listen: "127.0.0.1:0", RemoteRetries: 1},           // remote knob without -remote
		{Listen: "127.0.0.1:0", RemoteTimeout: time.Second}, // remote knob without -remote
		{Listen: "127.0.0.1:0", RemoteNoFallback: true},     // remote knob without -remote
		{Listen: "127.0.0.1:0", Remote: "not-an-address"},
		{Listen: "127.0.0.1:0", Standby: true},         // standby needs a root to restore from
		{Listen: "127.0.0.1:0", Remote: "127.0.0.1:1"}, // unreachable fleet rejected pre-load
	} {
		addr, shutdown, err := StartServe(failingReader{t}, cfg)
		if err == nil {
			shutdown(context.Background())
			t.Fatalf("invalid config %+v accepted (bound %s)", cfg, addr)
		}
	}
	// An occupied port must also fail before the graph read: the listener
	// binds pre-load precisely so a doomed serve never mines.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if addr, shutdown, err := StartServe(failingReader{t}, ServeConfig{Listen: l.Addr().String()}); err == nil {
		shutdown(context.Background())
		t.Fatalf("occupied port accepted (bound %s)", addr)
	}
}

// serveGet fetches a JSON document from a running serve instance.
func serveGet(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// TestServeEndToEnd drives the full cspm-serve lifecycle: serve a graph,
// mutate it over HTTP, watch the generation advance, then shut down
// gracefully with an in-flight request held open across the drain — the
// response must complete and the default namespace's shard cache must be
// persisted under <root>/default/checkpoint.
func TestServeEndToEnd(t *testing.T) {
	root := t.TempDir()
	addr, shutdown, err := StartServe(strings.NewReader(twoIslandText), ServeConfig{
		Listen:  "127.0.0.1:0",
		RootDir: root,
	})
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr

	var health struct {
		Generation uint64 `json:"generation"`
	}
	if code := serveGet(t, base+"/v1/healthz", &health); code != http.StatusOK || health.Generation != 1 {
		t.Fatalf("healthz: code=%d gen=%d", code, health.Generation)
	}

	// Mutate over HTTP and wait for the snapshot swap.
	mutBody := `{"mutations":[{"op":"add_edge","u":0,"v":4},{"op":"add_attr","u":3,"value":"c"}]}`
	resp, err := http.Post(base+"/v1/mutations", "application/json", strings.NewReader(mutBody))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("mutations: status %d", resp.StatusCode)
	}
	deadline := time.Now().Add(30 * time.Second)
	for health.Generation < 2 {
		if time.Now().After(deadline) {
			t.Fatal("generation never reached 2")
		}
		serveGet(t, base+"/v1/healthz", &health)
	}

	// Hold a /v1/complete request open (headers sent, body pending), then
	// shut down: the drain must finish the response, not drop it.
	pr, pw := io.Pipe()
	type result struct {
		code int
		err  error
	}
	inflight := make(chan result, 1)
	go func() {
		req, err := http.NewRequest(http.MethodPost, base+"/v1/complete", pr)
		if err != nil {
			inflight <- result{err: err}
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			inflight <- result{err: err}
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		inflight <- result{code: resp.StatusCode}
	}()
	// Wait until the handler has the request (its counter ticks) before
	// starting the drain.
	var met struct {
		Complete uint64 `json:"requests_complete"`
	}
	for met.Complete == 0 {
		if time.Now().After(deadline) {
			t.Fatal("in-flight request never reached the handler")
		}
		serveGet(t, base+"/v1/metrics", &met)
	}
	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdownDone <- shutdown(ctx)
	}()
	// The listener is down once new connections start failing; our held
	// request must still be alive inside the drain window.
	for {
		if _, err := http.Get(base + "/v1/healthz"); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("shutdown never closed the listener")
		}
	}
	if _, err := pw.Write([]byte(`{"vertices":[0]}`)); err != nil {
		t.Fatalf("writing body mid-drain: %v", err)
	}
	pw.Close()
	got := <-inflight
	if got.err != nil || got.code != http.StatusOK {
		t.Fatalf("in-flight request dropped by shutdown: code=%d err=%v", got.code, got.err)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// The shard cache must have been persisted for the next warm start.
	blobs, err := filepath.Glob(filepath.Join(root, "default", "checkpoint", "*.gob"))
	if err != nil {
		t.Fatal(err)
	}
	if len(blobs) == 0 {
		t.Fatal("shutdown left no shard blobs in <root>/default/checkpoint")
	}
}

// TestServeMultiTenantRootDir drives the fleet mode end to end: seed the
// default namespace from a graph under -root-dir, create a second tenant
// over the /v2 admin surface, mutate it, then restart in standby and
// require both namespaces back at their exact generations.
func TestServeMultiTenantRootDir(t *testing.T) {
	// An unusable root fails before the graph read, and a graph argument
	// must not fight a recovered default namespace (checked at the end).
	cfg := ServeConfig{Listen: "127.0.0.1:0", RootDir: "/dev/null/not-a-dir"}
	if addr, shutdown, err := StartServe(failingReader{t}, cfg); err == nil {
		shutdown(context.Background())
		t.Fatalf("invalid config %+v accepted (bound %s)", cfg, addr)
	}

	root := t.TempDir()
	addr, shutdown, err := StartServe(strings.NewReader(twoIslandText), ServeConfig{
		Listen:  "127.0.0.1:0",
		RootDir: root,
	})
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr

	// The graph argument seeded "default"; /v1 aliases it with the
	// deprecation marker while /v2 serves it under its name.
	resp, err := http.Get(base + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Deprecation") == "" {
		t.Fatalf("/v1/healthz: code=%d deprecation=%q", resp.StatusCode, resp.Header.Get("Deprecation"))
	}

	// Create a second tenant over the admin surface and mutate only it.
	resp, err = http.Post(base+"/v2/graphs/beta", "text/plain", strings.NewReader(fig1Text))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create beta: status %d", resp.StatusCode)
	}
	resp, err = http.Post(base+"/v2/graphs/beta/mutations", "application/json",
		strings.NewReader(`{"mutations":[{"op":"add_edge","u":1,"v":3}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("mutate beta: status %d", resp.StatusCode)
	}
	var watch struct {
		Generation uint64 `json:"generation"`
		SHA        string `json:"model_sha256"`
	}
	if code := serveGet(t, base+"/v2/graphs/beta/watch?generation=2&timeout=30s", &watch); code != http.StatusOK || watch.Generation < 2 {
		t.Fatalf("beta watch: code=%d gen=%d", code, watch.Generation)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	err = shutdown(ctx)
	cancel()
	if err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// Standby restart from the root subtree alone: no graph argument, both
	// tenants restored at their published generations.
	addr, shutdown, err = StartServe(nil, ServeConfig{
		Listen:  "127.0.0.1:0",
		RootDir: root,
		Standby: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		shutdown(ctx)
	}()
	base = "http://" + addr
	var list struct {
		Namespaces []struct {
			Name       string `json:"name"`
			Generation uint64 `json:"generation"`
			SHA        string `json:"model_sha256"`
		} `json:"namespaces"`
	}
	if code := serveGet(t, base+"/v2/graphs", &list); code != http.StatusOK || len(list.Namespaces) != 2 {
		t.Fatalf("recovered list: code=%d namespaces=%+v", code, list.Namespaces)
	}
	for _, ns := range list.Namespaces {
		switch ns.Name {
		case "beta":
			if ns.Generation != watch.Generation || ns.SHA != watch.SHA {
				t.Fatalf("beta restored at gen %d sha %s, want gen %d sha %s",
					ns.Generation, ns.SHA, watch.Generation, watch.SHA)
			}
		case "default":
			if ns.Generation != 1 {
				t.Fatalf("default restored at gen %d, want 1", ns.Generation)
			}
		default:
			t.Fatalf("unexpected namespace %q restored", ns.Name)
		}
	}
	// A graph argument alongside a recovered default must be refused: the
	// acknowledged durable state wins over a cold file.
	if addr2, shutdown2, err := StartServe(strings.NewReader(fig1Text), ServeConfig{
		Listen:  "127.0.0.1:0",
		RootDir: root,
	}); err == nil {
		shutdown2(context.Background())
		t.Fatalf("graph argument over a recovered default accepted (bound %s)", addr2)
	}
}
