// Command benchmark is the repository's end-to-end serving benchmark. Each
// workload stands up a durable multi-tenant host with the cspm-serve
// defaults behind a loopback HTTP server, drives it through serveclient with
// one request goroutine at a time over at most two connections, checks every
// output, and prints its metrics by name and unit. End-to-end times are
// scaled to a reference machine speed by a calibration unit timed in the same
// run (calib.go). The last line of standard output is one JSON object with
// the keys correct, attempted, failed and metrics; the metrics are the
// end-to-end set, or with --trace 1 the per-layer set.
//
// Run it from the repository root through the launcher, which builds it from
// the checkout's sources first:
//
//	bash benchmark/run.sh --workload query_score --seed 1 --seconds 30 --trace 0
//
// Without --workload it runs all three workloads; with --trace 1 it then runs
// each one untraced as well and prints the tracing overhead. --repeat N runs
// seeds seed..seed+N-1 of each workload and prints every metric's median,
// quartiles and quartile spread. benchmark/README.md defines the workloads
// and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the flags, runs the selected workloads and returns the exit
// code: 0 when every run passed its output checks, 1 when one did not or
// could not run, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames()+" (empty runs all)")
	seed := fs.Int64("seed", 1, "seed of the generated requests and edits")
	seconds := fs.Float64("seconds", 30, "measured seconds per run")
	trace := fs.Int("trace", 0, "1 = traced run, reporting the per-layer metrics")
	repeat := fs.Int("repeat", 1, "runs per workload, seeds seed..seed+N-1; above 1 prints medians and quartile spreads")
	work := fs.String("work", ".bench_build", "directory for the hosts' state and the trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *seconds <= 0 || *trace < 0 || *trace > 1 || *repeat < 1 {
		fmt.Fprintln(stderr, "benchmark: want --seconds > 0, --trace 0|1, --repeat >= 1 and no arguments")
		return 2
	}
	ws := workloads
	if *name != "" {
		w, ok := lookupWorkload(*name)
		if !ok {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q (want %s)\n", *name, workloadNames())
			return 2
		}
		ws = []workload{w}
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	cfg := config{seconds: *seconds, work: *work, traced: *trace == 1}
	ok := true
	for _, w := range ws {
		if *repeat > 1 {
			runs, err := repeatRuns(w, *seed, *repeat, cfg, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
				return 1
			}
			printSpread(stdout, w.name, runs)
			for _, o := range runs {
				ok = ok && o.correct()
			}
			continue
		}
		var base *outcome
		if cfg.traced && *name == "" {
			untraced := cfg
			untraced.traced = false
			o, err := measure(w, *seed, untraced)
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
				return 1
			}
			o.print(stdout, stderr)
			ok = ok && o.correct()
			base = o
		}
		o, err := measure(w, *seed, cfg)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
			return 1
		}
		o.print(stdout, stderr)
		if base != nil {
			printOverhead(stdout, base, o)
		}
		ok = ok && o.correct()
	}
	if !ok {
		return 1
	}
	return 0
}

// value is one named measurement.
type value struct {
	name, unit string
	v          float64
}

// outcome is everything one run of one workload reports.
type outcome struct {
	workload  string
	seed      int64
	traced    bool
	e2e       []value // end-to-end metrics, in BENCHMARK.json order
	unscaled  []value // the end-to-end times before calibration scaling
	scales    []value // each phase's calibration scale factor
	layers    []value // per-layer metrics (traced runs)
	self      []value // mean self time per span name (traced runs)
	attempted int
	failed    int
	problems  []string // failed output checks and degenerate-run guards
}

func (o *outcome) correct() bool { return len(o.problems) == 0 }

// reported is the metric set the result line carries.
func (o *outcome) reported() []value {
	if o.traced {
		return o.layers
	}
	return o.e2e
}

// metricJSON is one metric in the result line.
type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultJSON is the result line.
type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

// print writes the human-readable block, then the result line, to stdout;
// failed checks also go to stderr.
func (o *outcome) print(stdout, stderr io.Writer) {
	fmt.Fprintf(stdout, "# %s seed=%d traced=%v attempted=%d failed=%d\n", o.workload, o.seed, o.traced, o.attempted, o.failed)
	for _, v := range o.e2e {
		fmt.Fprintf(stdout, "%-28s %14.4f %s\n", v.name, v.v, v.unit)
	}
	for _, v := range o.unscaled {
		fmt.Fprintf(stdout, "  unscaled %-17s %14.4f %s\n", v.name, v.v, v.unit)
	}
	for _, v := range o.scales {
		fmt.Fprintf(stdout, "  scale %-20s %14.4f %s\n", v.name, v.v, v.unit)
	}
	for _, v := range o.layers {
		fmt.Fprintf(stdout, "  %-26s %14.4f %s\n", v.name, v.v, v.unit)
	}
	for _, v := range o.self {
		fmt.Fprintf(stdout, "  self %-21s %14.4f %s\n", v.name, v.v, v.unit)
	}
	for _, p := range o.problems {
		fmt.Fprintf(stdout, "# CHECK FAILED: %s\n", p)
		fmt.Fprintf(stderr, "benchmark: %s: check failed: %s\n", o.workload, p)
	}
	res := resultJSON{Correct: o.correct(), Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricJSON{}}
	for _, v := range o.reported() {
		res.Metrics[v.name] = metricJSON{Value: v.v, Unit: v.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		// Only a non-finite value can fail to encode; finish() rules those out.
		panic(err)
	}
	fmt.Fprintln(stdout, string(line))
}

// printOverhead writes traced minus untraced for every end-to-end metric.
func printOverhead(w io.Writer, untraced, traced *outcome) {
	fmt.Fprintf(w, "# %s tracing overhead (traced - untraced)\n", traced.workload)
	for i, v := range traced.e2e {
		base := untraced.e2e[i].v
		fmt.Fprintf(w, "  overhead %-19s %+14.4f %s (%+.1f%%)\n", v.name, v.v-base, v.unit, 100*(v.v-base)/base)
	}
}

// repeatRuns runs n seeds of one workload.
func repeatRuns(w workload, seed int64, n int, cfg config, stderr io.Writer) ([]*outcome, error) {
	var runs []*outcome
	for i := 0; i < n; i++ {
		o, err := measure(w, seed+int64(i), cfg)
		if err != nil {
			return nil, err
		}
		for _, p := range o.problems {
			fmt.Fprintf(stderr, "benchmark: %s seed %d: check failed: %s\n", w.name, o.seed, p)
		}
		runs = append(runs, o)
	}
	return runs, nil
}

// printSpread writes each reported metric's median, quartiles and quartile
// spread over the runs, computed as Python's statistics.median and
// statistics.quantiles(n=4) do.
func printSpread(w io.Writer, name string, runs []*outcome) {
	fmt.Fprintf(w, "# %s over %d seeds: median  q1  q3  (q3-q1)/median\n", name, len(runs))
	for i, v := range runs[0].reported() {
		xs := make([]float64, len(runs))
		for j, o := range runs {
			xs[j] = o.reported()[i].v
		}
		q1, med, q3 := quartiles(xs)
		spread := (q3 - q1) / math.Abs(med)
		fmt.Fprintf(w, "%-28s %12.4f %12.4f %12.4f  %6.3f %s\n", v.name, med, q1, q3, spread, v.unit)
	}
	var bad []string
	for _, o := range runs {
		if !o.correct() {
			bad = append(bad, fmt.Sprint(o.seed))
		}
	}
	if len(bad) > 0 {
		fmt.Fprintf(w, "# CHECK FAILED on seeds %s\n", strings.Join(bad, ", "))
	}
}
