// Package cli implements the logic behind the cspm and gengraph commands so
// it can be tested without spawning processes. The main packages stay thin
// flag-parsing shells.
package cli

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"strings"
	"time"

	"cspm/internal/alarm"
	"cspm/internal/cspm"
	"cspm/internal/dataset"
	"cspm/internal/graph"
	"cspm/internal/obs"
	"cspm/internal/serve"
	"cspm/internal/shardcache"
	"cspm/internal/shardrpc"
)

// LogConfig mirrors the -log-level and -log-format flags every command
// shares. The zero value means "info" level in "text" format.
type LogConfig struct {
	Level  string // debug, info, warn or error ("" = info)
	Format string // text or json ("" = text)
}

// Register installs the shared logging flags on fs.
func (c *LogConfig) Register(fs *flag.FlagSet) {
	fs.StringVar(&c.Level, "log-level", "", "minimum log level: debug, info, warn or error (default info)")
	fs.StringVar(&c.Format, "log-format", "", "log output format: text or json (default text)")
}

// Logger validates the config and builds its logger writing to w.
func (c LogConfig) Logger(w io.Writer) (*slog.Logger, error) {
	return obs.NewLogger(w, c.Level, c.Format)
}

// MineConfig mirrors cmd/cspm's flags.
type MineConfig struct {
	Variant   string // "partial" or "basic"
	MultiCore bool
	Top       int
	Stats     bool
	MultiOnly bool
	// Cache mines by attribute-closed component group through
	// cspm.MineShardedCached with a shard-result cache (in-memory unless
	// CacheDir names a directory to persist shard blobs under, written once
	// mining has finished; CacheDir implies Cache). A single cspm invocation
	// only benefits with CacheDir, where warm entries survive across runs.
	// Incompatible with MultiCore.
	Cache    bool
	CacheDir string
	// Remote mines through cspm.MineDistributed over the comma-separated
	// cspm-worker addresses ("" = local mining). Like the cache it is
	// component-grained, so it is incompatible with MultiCore; it composes
	// with Cache/CacheDir (hits skip the
	// workers). RemoteTimeout bounds each job attempt, RemoteRetries the
	// re-submissions before local fallback, and RemoteNoFallback turns
	// exhausted jobs into errors instead of mining them locally.
	Remote           string
	RemoteTimeout    time.Duration
	RemoteRetries    int
	RemoteNoFallback bool
	// Log configures the run's structured diagnostics on stderr.
	Log LogConfig
}

// parseRemoteAddrs validates the -remote flag: a comma-separated list of
// host:port worker addresses.
func parseRemoteAddrs(s string) ([]string, error) {
	var addrs []string
	for _, a := range strings.Split(s, ",") {
		a = strings.TrimSpace(a)
		if a == "" {
			return nil, fmt.Errorf("empty worker address in -remote %q", s)
		}
		if _, _, err := net.SplitHostPort(a); err != nil {
			return nil, fmt.Errorf("bad worker address %q (want host:port): %v", a, err)
		}
		addrs = append(addrs, a)
	}
	return addrs, nil
}

// Mine reads a graph from r, mines it per cfg, and writes the ranked
// patterns to w.
func Mine(r io.Reader, w io.Writer, cfg MineConfig) error {
	// Validate EVERY option — flag spellings, ranges, combinations, and the
	// cache directory — before touching the (possibly huge) input, so typos
	// surface as instant usage errors, never as silent behaviour changes,
	// panics, or errors minutes into a graph load.
	logger, err := cfg.Log.Logger(os.Stderr)
	if err != nil {
		return err
	}
	variant := cspm.Partial
	switch cfg.Variant {
	case "", "partial":
	case "basic":
		variant = cspm.Basic
	default:
		return fmt.Errorf("unknown variant %q (want partial or basic)", cfg.Variant)
	}
	if cfg.Top < 0 {
		return fmt.Errorf("-top must be >= 0, got %d", cfg.Top)
	}
	cached := cfg.Cache || cfg.CacheDir != ""
	if cached && cfg.MultiCore {
		return fmt.Errorf("-multicore cannot be combined with the shard cache (multi-value coresets are mined globally)")
	}
	remote := cfg.Remote != ""
	var workerAddrs []string
	if remote {
		if workerAddrs, err = parseRemoteAddrs(cfg.Remote); err != nil {
			return err
		}
		if cfg.MultiCore {
			return fmt.Errorf("-multicore cannot be combined with -remote (multi-value coresets are mined globally)")
		}
	} else if cfg.RemoteTimeout != 0 || cfg.RemoteRetries != 0 || cfg.RemoteNoFallback {
		return fmt.Errorf("-remote-timeout, -remote-retries and -remote-no-fallback require -remote")
	}
	distOpts := cspm.DistributedOptions{
		Options: cspm.Options{Variant: variant, CollectStats: true},
		Retries: cfg.RemoteRetries, Timeout: cfg.RemoteTimeout, NoFallback: cfg.RemoteNoFallback,
	}
	if err := distOpts.Validate(); err != nil {
		return err
	}
	if cached {
		if cfg.CacheDir != "" {
			distOpts.Cache, err = shardcache.Open(cfg.CacheDir)
			if err != nil {
				return err
			}
		} else {
			distOpts.Cache = shardcache.New()
		}
	}
	// Dial the workers before the (possibly huge) graph load, so an
	// unreachable fleet fails as fast as a typo'd flag.
	if remote {
		if distOpts.Transport, err = shardrpc.Dial(workerAddrs); err != nil {
			return err
		}
		defer distOpts.Transport.Close()
	}
	g, err := graph.Load(r)
	if err != nil {
		return err
	}
	logger.Debug("graph loaded", "vertices", g.NumVertices(), "edges", g.NumEdges())
	mineStart := time.Now()
	var model *cspm.Model
	switch {
	case remote || cached:
		// A nil Transport mines the groups in-process.
		if model, err = cspm.MineDistributed(g, distOpts, nil); err != nil {
			return err
		}
		if cfg.CacheDir != "" {
			// Mining stores entries in memory only; this writes their
			// blobs. A failed write loses only the next run's warmth.
			if _, err := distOpts.Cache.Persist(); err != nil {
				logger.Warn("shard cache not fully persisted", "dir", cfg.CacheDir, "err", err)
			}
		}
	case cfg.MultiCore:
		if model, err = cspm.MineMultiCore(g); err != nil {
			return err
		}
	case variant == cspm.Basic:
		model = cspm.MineWithOptions(g, cspm.Options{Variant: cspm.Basic, CollectStats: true})
	default:
		model = cspm.Mine(g)
	}
	logger.Debug("mining finished", "patterns", len(model.Patterns),
		"seconds", time.Since(mineStart).Seconds(), "iterations", model.Iterations)
	if cfg.Stats {
		fmt.Fprintf(w, "# graph: %s\n", g.ComputeStats())
		fmt.Fprintf(w, "# baseline DL: %.1f bits, final DL: %.1f bits (ratio %.3f)\n",
			model.BaselineDL, model.FinalDL, model.CompressionRatio())
		fmt.Fprintf(w, "# iterations: %d, gain evaluations: %d\n", model.Iterations, model.GainEvals)
		if model.ShardCount > 0 {
			fmt.Fprintf(w, "# shards: %d\n", model.ShardCount)
		}
		if model.CacheHits+model.CacheMisses > 0 {
			fmt.Fprintf(w, "# cache: %d hits, %d misses, %d evictions\n",
				model.CacheHits, model.CacheMisses, model.CacheEvictions)
		}
		if model.RemoteJobs > 0 {
			fmt.Fprintf(w, "# remote: %d jobs, %d retries, %d fallbacks\n",
				model.RemoteJobs, model.RemoteRetries, model.LocalFallbacks)
		}
	}
	patterns := model.Patterns
	if cfg.MultiOnly {
		patterns = model.MultiLeaf()
	}
	if cfg.Top > 0 && cfg.Top < len(patterns) {
		patterns = patterns[:cfg.Top]
	}
	for _, p := range patterns {
		fmt.Fprintf(w, "%-60s fL=%-6d fc=%-6d conf=%.3f len=%.3f\n",
			p.Format(g.Vocab()), p.FL, p.FC, p.Confidence(), p.CodeLen)
	}
	return nil
}

// MineFile opens path ("-" means stdin) and mines it.
func MineFile(path string, w io.Writer, cfg MineConfig) error {
	var in io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	return Mine(in, w, cfg)
}

// Generate builds one of the named synthetic datasets.
func Generate(name string, seed int64, nodes int) (*graph.Graph, error) {
	switch name {
	case "dblp":
		return dataset.DBLP(seed), nil
	case "dblptrend":
		return dataset.DBLPTrend(seed), nil
	case "usflight":
		return dataset.USFlight(seed), nil
	case "pokec":
		cfg := dataset.DefaultPokec()
		cfg.Seed = seed
		if nodes > 0 {
			cfg.Nodes = nodes
		}
		return dataset.Pokec(cfg), nil
	case "planted":
		cfg := dataset.DefaultPlanted()
		cfg.Seed = seed
		g, _ := dataset.Planted(cfg)
		return g, nil
	case "islands":
		cfg := dataset.DefaultIslands()
		cfg.Seed = seed
		if nodes > 0 {
			// Interpret the override as the island count.
			cfg.Islands = nodes
		}
		return dataset.Islands(cfg), nil
	case "alarms":
		cfg := alarm.DefaultSim()
		cfg.Seed = seed
		log, _, err := alarm.Simulate(cfg)
		if err != nil {
			return nil, err
		}
		return log.WindowGraph(cfg.WindowSec), nil
	default:
		return nil, fmt.Errorf("unknown dataset %q", name)
	}
}

// WorkerConfig mirrors cmd/cspm-worker's flags.
type WorkerConfig struct {
	// Listen is the host:port to serve shard jobs on (":0" picks a free
	// port; the bound address is returned by StartWorker).
	Listen string
	// Workers caps concurrently mining jobs (0 = all cores).
	Workers int
	// Log configures the worker's structured diagnostics on stderr.
	Log LogConfig
}

// StartWorker validates cfg, binds the listener, and serves shard jobs in a
// background goroutine. It returns the bound address (resolving a ":0"
// port) and a stop function that shuts the worker down. All validation
// happens before the bind, mirroring Mine's validate-before-load contract.
func StartWorker(cfg WorkerConfig) (addr string, stop func(), err error) {
	logger, err := cfg.Log.Logger(os.Stderr)
	if err != nil {
		return "", nil, err
	}
	if cfg.Listen == "" {
		return "", nil, fmt.Errorf("-listen must name a host:port to serve on")
	}
	if _, _, err := net.SplitHostPort(cfg.Listen); err != nil {
		return "", nil, fmt.Errorf("bad -listen address %q (want host:port): %v", cfg.Listen, err)
	}
	if cfg.Workers < 0 {
		return "", nil, fmt.Errorf("-workers must be >= 0, got %d", cfg.Workers)
	}
	l, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return "", nil, err
	}
	srv := shardrpc.NewServer(cspm.ExecuteShardJob, cfg.Workers)
	go srv.Serve(l)
	logger.Info("worker serving", "role", "worker", "addr", l.Addr().String(), "workers", cfg.Workers)
	return l.Addr().String(), func() { srv.Close() }, nil
}

// ServeConfig mirrors cmd/cspm-serve's flags.
type ServeConfig struct {
	// Listen is the host:port to serve the HTTP API on (":0" picks a
	// free port; the bound address is returned by StartServe).
	Listen string
	// Debounce is the re-mine coalescing window (0 = re-mine immediately).
	Debounce time.Duration
	// Remote and its knobs mirror cspm -remote*: fan dirty groups out to
	// cspm-worker fleets instead of mining in-process. The transport is
	// shared by every namespace.
	Remote           string
	RemoteTimeout    time.Duration
	RemoteRetries    int
	RemoteNoFallback bool
	// Standby refuses to cold-start: the host must restore at least one
	// namespace from RootDir (which it requires), so the initial graph may
	// be omitted.
	Standby bool
	// RootDir is the persistence root: every namespace owns a WAL +
	// checkpoint subtree under <root>/<ns>/{wal,checkpoint}, its mutation
	// acks are durable, and startup restores every namespace found under
	// the root. "" serves memory-only namespaces.
	RootDir string
	// MaxNamespaces caps live namespaces (0 = unlimited).
	MaxNamespaces int
	// MineBudget bounds how many namespaces may run a mining pass
	// concurrently (0 = unbounded), so one tenant's mutation storm queues
	// behind the budget instead of starving the rest.
	MineBudget int
	// Follow makes the process a read REPLICA of the leader host at this
	// base URL (e.g. "http://leader:8080"): every leader namespace is
	// mirrored as a follower tenant, verified against the leader's manifest
	// commitments, and served locally; mutations answer 409 not_leader (or
	// forward, with ProxyWrites). Requires RootDir; the graph argument must
	// be omitted. Mutually exclusive with Standby.
	Follow string
	// FollowPoll paces the replica's pull loops (0 = the serve default).
	FollowPoll time.Duration
	// ProxyWrites forwards mutations hitting this replica to the leader
	// instead of rejecting them.
	ProxyWrites bool
	// DebugAddr, when non-empty, serves net/http/pprof on a SEPARATE
	// listener (e.g. "localhost:6060"), so profiling never shares a port —
	// or an exposure surface — with the public API.
	DebugAddr string
	// Log configures the host's structured log on stderr.
	Log LogConfig
}

// StartServe validates cfg, reads the initial graph from r (nil skips the
// read: the host serves what it restores under RootDir or replicates from
// its leader), builds the multi-tenant host, binds the listener and serves
// the API in a background goroutine. The graph (when given) seeds the
// "default" namespace — the one the flat /v1 surface aliases; with RootDir
// set, startup also restores every namespace found under the root, and the
// /v2/graphs admin surface can add and remove namespaces at runtime. It
// returns the bound address and a shutdown function that drains in-flight
// requests (bounded by ctx, force-closing leftovers when it expires), stops
// every tenant's re-mine loop, checkpoints, and closes any worker transport.
// All flag validation happens before the (possibly huge) graph read,
// mirroring Mine's validate-before-load contract.
func StartServe(r io.Reader, cfg ServeConfig) (addr string, shutdown func(context.Context) error, err error) {
	logger, err := cfg.Log.Logger(os.Stderr)
	if err != nil {
		return "", nil, err
	}
	if cfg.Listen == "" {
		return "", nil, fmt.Errorf("-listen must name a host:port to serve on")
	}
	if _, _, err := net.SplitHostPort(cfg.Listen); err != nil {
		return "", nil, fmt.Errorf("bad -listen address %q (want host:port): %v", cfg.Listen, err)
	}
	if cfg.DebugAddr != "" {
		if _, _, err := net.SplitHostPort(cfg.DebugAddr); err != nil {
			return "", nil, fmt.Errorf("bad -debug-addr %q (want host:port): %v", cfg.DebugAddr, err)
		}
	}
	if cfg.Debounce < 0 {
		return "", nil, fmt.Errorf("-debounce must be >= 0, got %v", cfg.Debounce)
	}
	if cfg.Follow != "" {
		if cfg.RootDir == "" {
			return "", nil, fmt.Errorf("-follow requires -root-dir (the replica mirrors checkpoints and WALs there)")
		}
		if cfg.Standby {
			return "", nil, fmt.Errorf("-follow and -standby are mutually exclusive (a replica IS a continuously-warmed standby)")
		}
		if r != nil {
			return "", nil, fmt.Errorf("-follow replicates every graph from the leader; omit the graph argument")
		}
	} else if cfg.FollowPoll != 0 || cfg.ProxyWrites {
		return "", nil, fmt.Errorf("-follow-poll and -proxy-writes require -follow")
	}
	if cfg.RootDir != "" {
		// Probe the root before the graph read: an unusable persistence
		// root must fail as fast as a typo'd flag.
		if err := os.MkdirAll(cfg.RootDir, 0o755); err != nil {
			return "", nil, fmt.Errorf("-root-dir: %v", err)
		}
	}
	var workerAddrs []string
	if cfg.Remote != "" {
		if workerAddrs, err = parseRemoteAddrs(cfg.Remote); err != nil {
			return "", nil, err
		}
	} else if cfg.RemoteTimeout != 0 || cfg.RemoteRetries != 0 || cfg.RemoteNoFallback {
		return "", nil, fmt.Errorf("-remote-timeout, -remote-retries and -remote-no-fallback require -remote")
	}
	// The tenant template carries everything shared across namespaces;
	// per-tenant state (cache, WAL and checkpoint dirs) is derived by the
	// host under RootDir.
	hostOpts := serve.HostOptions{
		RootDir:       cfg.RootDir,
		MaxNamespaces: cfg.MaxNamespaces,
		MineBudget:    cfg.MineBudget,
		Tenant: serve.Options{
			Mining:        cspm.Options{CollectStats: true},
			Debounce:      cfg.Debounce,
			RemoteTimeout: cfg.RemoteTimeout, RemoteRetries: cfg.RemoteRetries,
			RemoteNoFallback: cfg.RemoteNoFallback,
		},
		Standby:     cfg.Standby,
		Follow:      cfg.Follow,
		FollowPoll:  cfg.FollowPoll,
		ProxyWrites: cfg.ProxyWrites,
		Logger:      logger,
	}
	if err := hostOpts.Validate(); err != nil {
		return "", nil, err
	}
	var transport shardrpc.Transport
	if cfg.Remote != "" {
		// Dial before the graph load so an unreachable fleet fails as fast
		// as a typo'd flag.
		if transport, err = shardrpc.Dial(workerAddrs); err != nil {
			return "", nil, err
		}
		hostOpts.Tenant.Transport = transport
	}
	closeTransport := func() {
		if transport != nil {
			transport.Close()
		}
	}
	// Bind before the graph load: an occupied or privileged port must fail
	// as fast as a typo'd flag, not after minutes of loading and mining.
	// Nothing is served off the listener until hs.Serve below.
	l, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		closeTransport()
		return "", nil, err
	}
	// The pprof side server binds its own listener so profiling is never
	// reachable through the public API port.
	var dsrv *http.Server
	if cfg.DebugAddr != "" {
		dl, derr := net.Listen("tcp", cfg.DebugAddr)
		if derr != nil {
			l.Close()
			closeTransport()
			return "", nil, fmt.Errorf("-debug-addr: %v", derr)
		}
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dsrv = &http.Server{Handler: dmux}
		go dsrv.Serve(dl)
		logger.Info("pprof debug server listening", "addr", dl.Addr().String())
	}
	closeDebug := func() {
		if dsrv != nil {
			dsrv.Close()
		}
	}
	var g *graph.Graph
	if r != nil {
		if g, err = graph.Load(r); err != nil {
			l.Close()
			closeDebug()
			closeTransport()
			return "", nil, err
		}
	}
	host, err := serve.NewHost(hostOpts)
	if err != nil {
		l.Close()
		closeDebug()
		closeTransport()
		return "", nil, err
	}
	// Seed the default namespace from the given graph. Without one the host
	// serves what it restored under the root (possibly nothing) and
	// namespaces arrive via the /v2 admin API.
	if g != nil {
		if _, recovered := host.Tenant(serve.DefaultNamespace); recovered {
			err = fmt.Errorf("the %q namespace was restored from -root-dir; omit the graph argument (its acknowledged state wins) or create a new namespace over /v2", serve.DefaultNamespace)
		} else {
			_, err = host.Create(serve.DefaultNamespace, g, nil)
		}
		if err != nil {
			host.Close()
			l.Close()
			closeDebug()
			closeTransport()
			return "", nil, err
		}
	}
	hs := &http.Server{Handler: host}
	// Release watch long-polls the moment a graceful drain starts: Shutdown
	// waits for in-flight responses, and a watcher mid-poll would otherwise
	// hold the drain open until its timeout lapsed.
	hs.RegisterOnShutdown(host.Drain)
	go hs.Serve(l)
	shutdown = func(ctx context.Context) error {
		// Drain first (Shutdown waits for in-flight responses to complete),
		// then stop mining and flush every tenant's cache, then drop the
		// workers. The drain deadline is hard: when ctx expires before the
		// drain ends, remaining connections are force-closed so shutdown
		// always completes — a stuck client must not be able to hold the
		// checkpoints (and the process) hostage.
		drainErr := hs.Shutdown(ctx)
		if drainErr != nil {
			hs.Close()
		}
		closeErr := host.Close()
		closeDebug()
		closeTransport()
		if drainErr != nil {
			return drainErr
		}
		return closeErr
	}
	return l.Addr().String(), shutdown, nil
}

// AwaitShutdown is cspm-serve's signal protocol, factored out so it can be
// tested without spawning a process: block until the first signal, then
// drain gracefully within the drain timeout — and exit immediately (status
// 130, the conventional SIGINT code) on a second signal, so an operator's
// double Ctrl-C always works even when the drain or checkpoint hangs.
func AwaitShutdown(sig <-chan os.Signal, drain time.Duration, shutdown func(context.Context) error, exit func(int), logw io.Writer) error {
	<-sig
	fmt.Fprintln(logw, "cspm-serve: draining...")
	go func() {
		<-sig
		fmt.Fprintln(logw, "cspm-serve: second signal, exiting immediately")
		exit(130)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	return shutdown(ctx)
}

// WriteGraph emits g with a stats header in the Load format.
func WriteGraph(w io.Writer, g *graph.Graph, header string) error {
	bw := bufio.NewWriter(w)
	if header != "" {
		if _, err := fmt.Fprintf(bw, "# %s %s\n", header, g.ComputeStats()); err != nil {
			return err
		}
	}
	if err := graph.Write(bw, g); err != nil {
		return err
	}
	return bw.Flush()
}
