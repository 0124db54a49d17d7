package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"

	icspm "cspm/internal/cspm"
	"cspm/internal/dataset"
	"cspm/internal/graph"
	"cspm/internal/serve"
	"cspm/internal/serveclient"
	"cspm/internal/shardcache"
)

// workload is one traffic mix. Every workload writes and then reads, so
// every end-to-end metric exists on each. Reads run on the idle host: while
// the miner runs, a request's latency flips between a free CPU and a busy
// one (the miner uses both), and percentiles taken across that flip do not
// repeat from run to run. Reads come from one closed-loop client: with two
// clients on two CPUs, the host's handlers and the clients contend for the
// CPUs, and the read rate swung by a fifth within a run. Writes come from one
// closed-loop client too: an open-loop writer's re-mines coalesce a backlog
// whose size follows the machine's speed, and its freshness swung by a third
// between runs.
type workload struct {
	name   string
	mid    bool // serve the mid archipelago; otherwise the small graph
	light  bool // light read mix: 1-vertex completions and pattern pages
	global bool // attribute edits that shift the global code table; otherwise island-local edge edits
}

var workloads = []workload{
	{name: "query_score", mid: true},
	{name: "query_light", light: true},
	{name: "write_global", mid: true, light: true, global: true},
}

func lookupWorkload(name string) (workload, bool) {
	i := slices.IndexFunc(workloads, func(w workload) bool { return w.name == name })
	if i < 0 {
		return workload{}, false
	}
	return workloads[i], true
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// graph builds the workload's served graph. It is fixed; the seed only
// drives the requests and edits.
func (w workload) graph() *graph.Graph {
	if w.mid {
		// Twelve islands of 250-500 vertices: 4,210 vertices, 11,664 edges,
		// 360 values, 22,007 patterns.
		cfg := dataset.BenchIslands()
		cfg.MinNodes, cfg.MaxNodes = 250, 500
		return dataset.IslandsWithEdgeSeeds(cfg, nil)
	}
	// Six islands: 444 vertices, 1,084 patterns.
	cfg := dataset.DefaultIslands()
	cfg.Seed = 7
	return dataset.Islands(cfg)
}

// config holds the settings shared by every run.
type config struct {
	seconds float64
	work    string
	traced  bool
}

// tenantOptions are cspm-serve's defaults: the parameter-free search with
// stats, all cores, a 100 ms debounce.
func tenantOptions() serve.Options {
	return serve.Options{Mining: icspm.Options{CollectStats: true}, Debounce: 100 * time.Millisecond}
}

// env is a durable host serving one namespace behind a loopback HTTP server,
// and the client that drives it.
type env struct {
	host  *serve.Host
	srv   *serve.Server
	hs    *http.Server
	serve chan error
	hc    *http.Client
	nc    *serveclient.NamespaceClient
}

// createHost makes a durable host under dir and times the cold Create of the
// default namespace serving g: the initial mine and the startup checkpoint.
func createHost(dir string, g *graph.Graph) (*serve.Host, *serve.Server, time.Duration, error) {
	h, err := serve.NewHost(serve.HostOptions{RootDir: dir, Tenant: tenantOptions()})
	if err != nil {
		return nil, nil, 0, err
	}
	t := time.Now()
	s, err := h.Create(serve.DefaultNamespace, g, nil)
	d := time.Since(t)
	if err != nil {
		h.Close()
		return nil, nil, 0, err
	}
	return h, s, d, nil
}

// setupUnits, writeUnits: calibration units taken before each cold create
// and after each write burst.
const setupUnits, writeUnits = 4, 2

// timed is a measured time and the median calibration unit taken next to
// it, in µs.
type timed struct {
	d      time.Duration
	unitUs float64
}

// start sets the host up cold at least three times and until a second of
// creates has passed (at most 30), keeps the last host, and returns every
// create's time with the calibration units taken just before it. The spare
// hosts are closed and their memory returned before the last one is
// created, so one host is live at a time.
func start(root string, g *graph.Graph, cal *calibrator) (*env, []timed, error) {
	var creates []timed
	var spent time.Duration
	for i := 0; ; i++ {
		last := i >= 2 && (spent >= time.Second || i == 29)
		if last {
			runtime.GC()
			debug.FreeOSMemory()
		}
		var units []float64
		for range setupUnits {
			us, err := cal.sample()
			if err != nil {
				return nil, nil, err
			}
			units = append(units, us)
		}
		dir := filepath.Join(root, fmt.Sprintf("host%d", i))
		h, s, d, err := createHost(dir, g)
		if err != nil {
			return nil, nil, err
		}
		creates = append(creates, timed{d, median(units)})
		spent += d
		if last {
			e, err := listen(h, s)
			if err != nil {
				h.Close()
				return nil, nil, err
			}
			return e, creates, nil
		}
		if err := h.Close(); err != nil {
			return nil, nil, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, nil, err
		}
	}
}

// listen serves h on a loopback port and builds a client limited to two
// connections.
func listen(h *serve.Host, s *serve.Server) (*env, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &env{host: h, srv: s, hs: &http.Server{Handler: h}, serve: make(chan error, 1)}
	go func() { e.serve <- e.hs.Serve(ln) }()
	e.hc = &http.Client{
		Timeout:   time.Minute,
		Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2},
	}
	c, err := serveclient.New("http://"+ln.Addr().String(), e.hc)
	if err != nil {
		e.close()
		return nil, err
	}
	e.nc = c.Namespace(serve.DefaultNamespace)
	return e, nil
}

// close stops the HTTP server, waits for it, and closes the host.
func (e *env) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := e.hs.Shutdown(ctx)
	if serr := <-e.serve; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	e.hc.CloseIdleConnections()
	return errors.Join(err, e.host.Close())
}

// counters is the host's instrumentation at one instant.
type counters struct {
	m     serve.MetricsSnapshot
	cache shardcache.Stats
}

func (e *env) counters() counters {
	return counters{e.srv.Metrics(), e.srv.Cache().Stats()}
}

// window is one phase's schedule: load starts at start, samples count from
// measure on, and load stops at end.
type window struct{ start, measure, end time.Time }

func newWindow(warm, measured time.Duration) window {
	s := time.Now()
	return window{s, s.Add(warm), s.Add(warm + measured)}
}

// in reports whether t falls in the measured part of the window.
func (w window) in(t time.Time) bool { return !t.Before(w.measure) && t.Before(w.end) }

// runner holds one run's state.
type runner struct {
	w        workload
	seed     int64
	traced   bool
	root     string
	env      *env
	cal      *calibrator
	wr       *writer
	rd       *reader
	readWin  window
	writeWin window
	readCtr  [2]counters // host counters when read measurement starts and after the reads stop
	writeCtr [2]counters // the same for writes
	phaseCtr [2]counters // before the write phase's warm-up and after its final flush
	scoreUs  []float64   // traced runs: ScoreNode replay times, µs per vertex
	creates  []timed     // cold creates
	readCal  []timed     // read-phase calibration units, at offsets from the phase's start
	peakRSS  float64
	heapMB   float64
	probs    []string
}

func (r *runner) fail(format string, args ...any) {
	r.probs = append(r.probs, fmt.Sprintf(format, args...))
}

// calibrate takes n calibration units and returns their median time in µs,
// or NaN after a failure.
func (r *runner) calibrate(n int) float64 {
	var units []float64
	for range n {
		us, err := r.cal.sample()
		if err != nil {
			r.fail("%v", err)
			return math.NaN()
		}
		units = append(units, us)
	}
	return median(units)
}

// measure runs one workload once and returns what it reports.
func measure(w workload, seed int64, cfg config) (*outcome, error) {
	root, err := os.MkdirTemp(cfg.work, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	cal, err := newCalibrator()
	if err != nil {
		return nil, fmt.Errorf("start calibration: %w", err)
	}
	g := w.graph()
	e, creates, err := start(root, g, cal)
	if err != nil {
		cal.close()
		return nil, fmt.Errorf("set up host: %w", err)
	}
	r := &runner{w: w, seed: seed, traced: cfg.traced, root: root, env: e, cal: cal, creates: creates, heapMB: liveHeapMB()}
	r.wr = newWriter(e, newEditor(w.global, g, seed), cfg.traced)
	r.phases(time.Duration(cfg.seconds * float64(time.Second)))
	if err := e.close(); err != nil {
		r.fail("close host: %v", err)
	}
	if err := cal.close(); err != nil {
		r.fail("close calibration server: %v", err)
	}
	return r.finish(), nil
}

// phases drives the workload's load for d of measured time in all: half
// writes, then half reads on the idle host, which must stay on one
// generation. Each measured phase follows a warm-up of d/16 whose samples
// are dropped.
func (r *runner) phases(d time.Duration) {
	r.phaseCtr[0] = r.env.counters()
	ww := newWindow(d/16, d/2)
	b, a := r.drive(ww, r.writeLoad(ww))
	r.writeWin, r.writeCtr = ww, [2]counters{b, a}
	if err := r.wr.flush(); err != nil {
		r.fail("%v", err)
	}
	r.phaseCtr[1] = r.env.counters()
	r.checkWrites()
	// The checks' cold mine leaves a heap of garbage; collect it here so the
	// reads do not pay for the benchmark's own work.
	runtime.GC()
	gen := r.env.srv.Snapshot().Generation
	probes := r.probeRequests()
	before := r.probe(probes, gen, true)
	rw := newWindow(d/16, d/2)
	b, a = r.drive(rw, r.readLoad(rw, gen))
	if r.traced {
		r.scoreUs = r.replayScores()
	}
	r.readWin, r.readCtr = rw, [2]counters{b, a}
	if now := r.env.srv.Snapshot().Generation; now != gen {
		r.fail("read phase started on generation %d and ended on %d", gen, now)
	}
	after := r.probe(probes, gen, false)
	for i := range before {
		if before[i] != after[i] {
			r.fail("probe %d answered differently after the measured phase:\n  before %s\n  after  %s", i, before[i], after[i])
			break
		}
	}
}

// writeLoad is the workload's closed-loop writer over win. After each burst
// it takes calibration units on the idle host and files them with the
// burst's batches.
func (r *runner) writeLoad(win window) func() {
	return func() {
		closedLoop(win, func() {
			first := len(r.wr.writes)
			r.wr.sendBurst()
			us := r.calibrate(writeUnits)
			for i := first; i < len(r.wr.writes); i++ {
				r.wr.writes[i].unitUs = us
			}
		})
	}
}

// readLoad sets up the workload's closed-loop reader over win, whose answers
// must carry generation gen, and returns its load. Every calibrateEvery the
// reader takes a calibration unit between two requests.
func (r *runner) readLoad(win window, gen uint64) func() {
	r.rd = r.newReader(1, win, gen)
	return func() {
		next := time.Now()
		closedLoop(win, func() {
			if now := time.Now(); !now.Before(next) {
				r.readCal = append(r.readCal, timed{now.Sub(win.start), r.calibrate(1)})
				next = now.Add(calibrateEvery)
			}
			r.rd.send()
		})
	}
}

// drive runs load over win. It snapshots the host's counters when
// measurement starts and after the load stops, and samples the process's
// resident set in between.
func (r *runner) drive(win window, load func()) (before, after counters) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		load()
	}()
	time.Sleep(time.Until(win.measure))
	before = r.env.counters()
	stop := make(chan struct{})
	peak := make(chan float64)
	go func() { peak <- sampleRSS(stop) }()
	<-done
	close(stop)
	r.peakRSS = max(r.peakRSS, <-peak)
	after = r.env.counters()
	return before, after
}

// liveHeapMB is the heap still reachable after a full collection, in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// sampleRSS returns the peak resident set in MB, sampled every 250 ms until
// stop is closed.
func sampleRSS(stop <-chan struct{}) float64 {
	t := time.NewTicker(250 * time.Millisecond)
	defer t.Stop()
	peak := rssMB()
	for {
		select {
		case <-stop:
			return max(peak, rssMB())
		case <-t.C:
			peak = max(peak, rssMB())
		}
	}
}

// rssMB reads the process's VmRSS from /proc (0 where that is unavailable).
func rssMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%g kB", &kb); err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}
