// Command cspm-serve hosts mined CSPM models behind a long-running
// multi-tenant HTTP/JSON API: reads are answered lock-free from atomically
// swapped immutable snapshots, writes arrive as batched mutations, and per-
// namespace background loops incrementally re-mine mutated graphs (only
// dirty component groups, optionally fanned out to cspm-worker fleets,
// bounded by a shared -mine-budget) and publish the next snapshot — so
// query latency never blocks on mining and a failed re-mine degrades to
// staleness, never to unavailability.
//
// Per-namespace endpoints (under /v2/graphs/{ns}): GET patterns,
// POST complete, GET model, GET healthz, GET metrics, POST mutations, and
// GET watch — a long-poll that resolves with {generation, model_sha256}
// once a generation >= the client's is published (bounded wait; drains
// instantly on shutdown). Mutation batches may grow and shrink the vertex
// set (add_vertex/del_vertex) as well as edit attributes and edges.
// Admin endpoints: GET /v2/graphs lists namespaces, POST /v2/graphs/{ns}
// creates one from an uploaded graph (empty body = empty graph),
// DELETE /v2/graphs/{ns} quarantines it (acknowledged WAL data is renamed
// aside, never unlinked). The flat /v1/* surface still serves the "default"
// namespace unchanged, marked with Deprecation and Sunset headers.
//
// Usage:
//
//	cspm-serve [-listen :7480] [-root-dir DIR]
//	           [-max-namespaces N] [-mine-budget N]
//	           [-standby] [-follow URL] [-follow-poll D] [-proxy-writes]
//	           [-debounce D] [-remote host:port,...]
//	           [-remote-timeout D] [-remote-retries N] [-remote-no-fallback]
//	           [-log-level L] [-log-format text|json] [-debug-addr host:port]
//	           [graph.txt]
//
// Re-mines run on every core (GOMAXPROCS), one shard per dirty
// attribute-closed component group, or on the -remote workers.
//
// The graph file seeds the "default" namespace; with "-" it is read from
// stdin, and it may be omitted with -root-dir (start empty or from
// recovered namespaces and populate over /v2). -root-dir makes every
// namespace durable under <root>/<ns>/checkpoint (verified model
// checkpoint + shard-result cache) and <root>/<ns>/wal (mutation batches
// are fsync'd to a write-ahead log before the 202), and startup restores
// every namespace found there, replaying unfolded batches over the
// checkpoint instead of cold re-mining. -standby additionally refuses to
// start unless at least one namespace was restored. Without -root-dir
// every namespace is memory-only. On SIGINT/SIGTERM the server drains
// in-flight requests (force-closing them at -drain-timeout), checkpoints
// every tenant and exits; a second SIGINT exits immediately.
//
// Migrating from the retired -cache-dir/-wal-dir flags: the old
// directories ARE the default namespace's subtree under a root R.
//
//	mkdir -p R/default
//	mv OLD_CACHE_DIR R/default/checkpoint
//	mv OLD_WAL_DIR R/default/wal
//	cspm-serve -root-dir R        # no graph argument: the state wins
//
// Startup restores a namespace from its committed checkpoint plus the
// unfolded WAL batches after it; a namespace tree with no checkpoint is set
// aside under R/.quarantine instead. A deployment that ran with -wal-dir
// alone has no checkpoint, so first restart it once on the old binary with
// -cache-dir added: that restart folds the log into a checkpoint, and its
// two directories then migrate as above.
//
// -follow http://leader:port turns the process into a read REPLICA of a
// leader fleet member (requires -root-dir, omit the graph argument): every
// leader namespace is mirrored as a follower tenant that pulls each
// published generation over /replication/*, verifies every shipped artifact
// against the leader's MANIFEST SHA-256 commitments before swapping it in,
// and mirrors the leader's WAL tail so POST
// /v2/graphs/{ns}/replication/promote can turn it into a leader without
// losing an acknowledged batch. Replicas answer reads locally and reject
// mutations with 409 not_leader, or forward them with -proxy-writes.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cspm/internal/cli"
)

func main() {
	cfg := cli.ServeConfig{}
	flag.StringVar(&cfg.Listen, "listen", ":7480", "host:port to serve the v2 API (plus the deprecated /v1 alias) on")
	flag.DurationVar(&cfg.Debounce, "debounce", 100*time.Millisecond, "coalescing window before a re-mine (0 = immediate)")
	flag.StringVar(&cfg.Remote, "remote", "", "re-mine over these comma-separated cspm-worker addresses")
	flag.DurationVar(&cfg.RemoteTimeout, "remote-timeout", 0, "per-attempt wait for a remote shard result (0 = default)")
	flag.IntVar(&cfg.RemoteRetries, "remote-retries", 0, "re-submissions per shard job before local fallback")
	flag.BoolVar(&cfg.RemoteNoFallback, "remote-no-fallback", false, "fail a re-mine instead of mining failed shard jobs locally")
	flag.StringVar(&cfg.RootDir, "root-dir", "", "persistence root: one WAL+checkpoint subtree per namespace, restored at startup")
	flag.IntVar(&cfg.MaxNamespaces, "max-namespaces", 0, "cap on concurrently hosted namespaces (0 = unlimited)")
	flag.IntVar(&cfg.MineBudget, "mine-budget", 0, "max namespaces mining or re-mining at once across the host (0 = unlimited)")
	flag.BoolVar(&cfg.Standby, "standby", false, "refuse to cold-start: restore at least one namespace from -root-dir or fail")
	flag.StringVar(&cfg.Follow, "follow", "", "replicate every namespace from this leader host URL (requires -root-dir; omit the graph argument)")
	flag.DurationVar(&cfg.FollowPoll, "follow-poll", 0, "replica pull pacing (0 = default)")
	flag.BoolVar(&cfg.ProxyWrites, "proxy-writes", false, "forward mutations hitting this replica to the -follow leader instead of rejecting them")
	flag.StringVar(&cfg.DebugAddr, "debug-addr", "", "serve net/http/pprof on this separate host:port (off when empty)")
	cfg.Log.Register(flag.CommandLine)
	drain := flag.Duration("drain-timeout", 15*time.Second, "max wait for in-flight requests on shutdown before force-closing them")
	flag.Parse()
	var in io.Reader
	switch {
	case flag.NArg() == 1:
		if path := flag.Arg(0); path == "-" {
			in = os.Stdin
		} else {
			f, err := os.Open(path)
			if err != nil {
				fmt.Fprintln(os.Stderr, "cspm-serve:", err)
				os.Exit(1)
			}
			defer f.Close()
			in = f
		}
	case flag.NArg() == 0 && cfg.RootDir != "":
		// Restore from the root (standby, replica or plain restart), or start
		// an empty host populated over the /v2 admin surface.
	default:
		fmt.Fprintln(os.Stderr, "usage: cspm-serve [flags] graph.txt (or - for stdin; omit with -root-dir)")
		flag.PrintDefaults()
		os.Exit(2)
	}
	addr, shutdown, err := cli.StartServe(in, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cspm-serve:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "cspm-serve: serving /v2/graphs (and the /v1 alias) on %s\n", addr)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	if err := cli.AwaitShutdown(sig, *drain, shutdown, os.Exit, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "cspm-serve:", err)
		os.Exit(1)
	}
}
