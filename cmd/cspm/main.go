// Command cspm mines attribute-stars from an attributed graph file and
// prints them ranked by code length (most informative first).
//
// Usage:
//
//	cspm [-variant partial|basic] [-multicore]
//	     [-cache] [-cache-dir DIR] [-remote host:port,...] [-remote-timeout D] [-remote-retries N]
//	     [-remote-no-fallback] [-top N] [-stats] [-multileaf] graph.txt
//
// The input format is line oriented: "v <id> <value>..." declares vertex
// attributes, "e <u> <v>" an undirected edge, "#" starts a comment. With
// "-" as the file name, the graph is read from stdin. A file of r records
// may use vertex ids below 2r only; a file that skips ids must name each
// vertex it uses, for example with a bare "v <id>" line.
//
// By default the whole graph is mined as one search. -cache, -cache-dir
// and -remote instead mine each attribute-closed component group as its own
// shard, on every core or on the listed workers, and merge the shards into
// the same model.
package main

import (
	"flag"
	"fmt"
	"os"

	"cspm/internal/cli"
)

func main() {
	cfg := cli.MineConfig{}
	flag.StringVar(&cfg.Variant, "variant", "partial", "search variant: partial or basic")
	flag.BoolVar(&cfg.MultiCore, "multicore", false, "mine multi-value coresets via SLIM first (§IV-F)")
	flag.IntVar(&cfg.Top, "top", 50, "print at most this many patterns (0 = all)")
	flag.BoolVar(&cfg.Stats, "stats", false, "print per-run statistics")
	flag.BoolVar(&cfg.MultiOnly, "multileaf", false, "print only patterns with ≥2 leaf values")
	flag.BoolVar(&cfg.Cache, "cache", false, "mine incrementally through a shard-result cache")
	flag.StringVar(&cfg.CacheDir, "cache-dir", "", "persist shard results under this directory once mining finishes (implies -cache)")
	flag.StringVar(&cfg.Remote, "remote", "", "mine over these comma-separated cspm-worker addresses")
	flag.DurationVar(&cfg.RemoteTimeout, "remote-timeout", 0, "per-attempt wait for a remote shard result (0 = default)")
	flag.IntVar(&cfg.RemoteRetries, "remote-retries", 0, "re-submissions per shard job before local fallback")
	flag.BoolVar(&cfg.RemoteNoFallback, "remote-no-fallback", false, "fail instead of mining failed shard jobs locally")
	cfg.Log.Register(flag.CommandLine)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: cspm [flags] graph.txt (or - for stdin)")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if err := cli.MineFile(flag.Arg(0), os.Stdout, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "cspm:", err)
		os.Exit(1)
	}
}
