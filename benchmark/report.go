package main

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"time"

	"cspm/internal/obs"
	"cspm/internal/serve"
	"cspm/internal/wal"
)

// replayVertices and replayBatches cap the traced run's layer replays.
const (
	replayVertices = 512
	replayBatches  = 64
)

// finish turns the run's records into its outcome.
func (r *runner) finish() *outcome {
	o := &outcome{workload: r.w.name, seed: r.seed, traced: r.traced}
	reads, readErr := r.measuredReads()
	var writes []write
	for _, w := range r.wr.writes {
		if r.writeWin.in(w.sent) {
			writes = append(writes, w)
		}
	}
	o.attempted = len(reads) + len(writes)
	// Each read is scaled by the calibration units taken on either side of
	// it: the machine's speed flips within a second, and a phase-wide or
	// even a 2.5 s scale left the p90 of query_score spreading 0.15 over ten
	// runs, against 0.07 with the units next to each read. There is no read
	// rate: for one closed-loop client it is the reciprocal of the mean
	// latency, which the machine's multi-millisecond stalls inflate, and it
	// spread twice as wide as the p50 over ten runs of query_light.
	var lat, latX []float64 // unscaled and scaled
	for _, rd := range reads {
		if rd.failed {
			o.failed++
			continue
		}
		l := ms(rd.done - rd.sent)
		lat, latX = append(lat, l), append(latX, l*r.readScale(rd.sent))
	}
	var readUnits []float64
	for _, c := range r.readCal {
		readUnits = append(readUnits, c.unitUs)
	}
	// Each batch's freshness is scaled by the units taken after its burst.
	// The debounce is a timer, not work, so it stays unscaled. Freshness has
	// no tail percentile: a burst writer's batches share their re-mine, so a
	// write phase holds only 10 to 30 independent samples.
	debounce := ms(tenantOptions().Debounce)
	var fresh, freshX, writeUnits []float64
	firstErr := readErr
	for _, w := range writes {
		if w.err != nil {
			o.failed++
			firstErr = cmp.Or(firstErr, w.err)
			continue
		}
		if ev, ok := eventAt(w.trace, obs.StagePublished); ok {
			f := ms(ev.At.Sub(w.sent))
			fresh = append(fresh, f)
			freshX = append(freshX, debounce+(f-debounce)*scaleOf([]float64{w.unitUs}))
			writeUnits = append(writeUnits, w.unitUs)
		}
	}
	if o.failed > 0 {
		r.fail("%d of %d requests failed, first: %v", o.failed, o.attempted, firstErr)
	}
	var setup, setupX, setupUnits []float64
	for _, c := range r.creates {
		setup = append(setup, c.d.Seconds())
		setupX = append(setupX, c.d.Seconds()*scaleOf([]float64{c.unitUs}))
		setupUnits = append(setupUnits, c.unitUs)
	}
	o.e2e = []value{
		{"setup_s", "s", median(setupX)},
		{"query_p50_ms", "ms", percentile(latX, 0.5)},
		{"query_p90_ms", "ms", percentile(latX, 0.9)},
		{"fresh_p50_ms", "ms", percentile(freshX, 0.5)},
		{"heap_mb", "MB", r.heapMB},
	}
	o.unscaled = []value{
		{"setup_s", "s", median(setup)},
		{"query_p50_ms", "ms", percentile(lat, 0.5)},
		{"query_p90_ms", "ms", percentile(lat, 0.9)},
		{"fresh_p50_ms", "ms", percentile(fresh, 0.5)},
	}
	o.scales = []value{{"setup", "x", scaleOf(setupUnits)}, {"write", "x", scaleOf(writeUnits)}, {"read", "x", scaleOf(readUnits)}}
	if r.traced {
		o.layers, o.self = r.layers(reads, writes, median(readUnits))
	}
	for _, vs := range [][]value{o.e2e, o.layers, o.self} {
		for i, v := range vs {
			if math.IsNaN(v.v) || math.IsInf(v.v, 0) {
				r.fail("metric %s has no samples", v.name)
				vs[i].v = 0
			}
		}
	}
	o.problems = r.probs
	return o
}

// measuredReads returns the reads sent in the measured part of the read
// phase, in order, and the first read failure.
func (r *runner) measuredReads() ([]read, error) {
	from, to := r.readWin.measure.Sub(r.readWin.start), r.readWin.end.Sub(r.readWin.start)
	var out []read
	for _, x := range r.rd.reads {
		if x.sent >= from && x.sent < to {
			out = append(out, x)
		}
	}
	return out, r.rd.err
}

// layers computes the per-layer metrics of a traced run, writes its spans
// out, and returns the layer metrics and each span name's mean self time.
// unitUs is the read phase's median calibration unit.
func (r *runner) layers(reads []read, writes []write, unitUs float64) ([]value, []value) {
	rb, ra := r.readCtr[0].m, r.readCtr[1].m
	complete := latencyDelta(rb, ra, "complete")
	patterns := latencyDelta(rb, ra, "patterns")
	readMs := (complete.sum + patterns.sum) / float64(complete.n+patterns.n)
	scored := float64(ra.VerticesScored - rb.VerticesScored)
	scoreMs := mean(r.scoreUs) / 1000 * scored / float64(complete.n) // per /complete request

	var clientMs []float64
	for _, rd := range reads {
		clientMs = append(clientMs, ms(rd.done-rd.sent))
	}
	var ack, queueWait []float64
	for _, w := range writes {
		if w.err == nil {
			ack = append(ack, ms(w.done.Sub(w.sent)))
		}
		appended, ok1 := eventAt(w.trace, obs.StageWALAppended)
		started, ok2 := eventAt(w.trace, obs.StageRemineStart)
		if ok1 && ok2 {
			queueWait = append(queueWait, ms(started.At.Sub(appended.At)))
		}
	}

	profiles := r.measuredProfiles()
	var total, batches []float64
	stage := map[string][]float64{}
	for _, p := range profiles {
		total = append(total, ms(p.Total))
		batches = append(batches, float64(p.Batches))
		for _, s := range p.Spans {
			stage[s.Stage] = append(stage[s.Stage], ms(s.Duration))
		}
	}
	stageMean := func(name string) float64 { return sum(stage[name]) / float64(len(profiles)) }
	var spanMs float64
	for name := range stage {
		spanMs += stageMean(name)
	}
	var gainEvals []float64
	for _, p := range profiles {
		if ge, ok := r.wr.gainEvals[p.Generation]; ok {
			gainEvals = append(gainEvals, float64(ge))
		}
	}
	pb, pa := r.phaseCtr[0].cache, r.phaseCtr[1].cache
	hits, misses := float64(pa.Hits-pb.Hits), float64(pa.Misses-pb.Misses)
	wb, wa := r.writeCtr[0].m, r.writeCtr[1].m

	layers := []value{
		{"completion.score_node_us", "us", percentile(r.scoreUs, 0.5)},
		{"completion.score_share", "ratio", scoreMs / complete.mean()},
		{"serve.complete_ms", "ms", complete.mean()},
		{"serve.read_ms", "ms", readMs},
		{"serve.handler_self_ms", "ms", complete.mean() - scoreMs},
		{"serve.vertices_scored", "count", scored},
		{"serve.mutations_ms", "ms", latencyDelta(wb, wa, "mutations").mean()},
		{"serve.ack_p50_ms", "ms", percentile(ack, 0.5)},
		{"serve.ack_p90_ms", "ms", percentile(ack, 0.9)},
		{"http.overhead_ms", "ms", mean(clientMs) - readMs},
		{"wal.append_ms", "ms", r.replayWAL(writes)},
		{"serve.queue_wait_ms", "ms", percentile(queueWait, 0.5)},
		{"serve.batches_per_remine", "count", mean(batches)},
		{"serve.remines", "count", float64(len(profiles))},
		{"remine.total_ms", "ms", mean(total)},
		{"remine.self_ms", "ms", mean(total) - spanMs},
		{"graph.rebuild_ms", "ms", stageMean(obs.SpanRebuild)},
		{"graph.fingerprint_ms", "ms", stageMean(obs.SpanFingerprint)},
		{"cspm.diff_ms", "ms", stageMean(obs.SpanDiff)},
		{"cspm.shard_mine_ms", "ms", stageMean(obs.SpanShardMine)},
		{"cspm.merge_ms", "ms", stageMean(obs.SpanMerge)},
		{"cspm.gain_evals", "count", mean(gainEvals)},
		{"shardcache.hit_ratio", "ratio", hits / (hits + misses)},
		{"serve.publish_ms", "ms", stageMean(obs.SpanPublish)},
		{"serve.checkpoint_ms", "ms", stageMean(obs.SpanCheckpoint)},
		{"process.peak_rss_mb", "MB", r.peakRSS},
		{"loadgen.sent", "count", float64(len(reads) + len(writes))},
		{"calib.unit_us", "us", unitUs},
	}
	spans := buildSpans(r.readWin.start, reads, writes, profiles)
	if err := r.writeSpans(spans); err != nil {
		r.fail("write trace: %v", err)
	}
	return layers, selfTimes(spans)
}

// hist is the change in one endpoint's latency histogram over a phase.
type hist struct {
	n   uint64
	sum float64 // ms
}

func (h hist) mean() float64 { return h.sum / float64(h.n) }

func latencyDelta(before, after serve.MetricsSnapshot, endpoint string) hist {
	b, a := before.Latency[endpoint], after.Latency[endpoint]
	return hist{n: a.Count - b.Count, sum: (a.SumSeconds - b.SumSeconds) * 1000}
}

// measuredProfiles returns the re-mine passes that started in the measured
// part of the write phase, oldest first.
func (r *runner) measuredProfiles() []obs.Profile {
	var out []obs.Profile
	for _, p := range r.wr.profiles {
		if r.writeWin.in(p.StartedAt) && p.Err == "" {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].StartedAt.Before(out[j].StartedAt) })
	return out
}

// replayScores times ScoreNode on the served snapshot, in µs per vertex, for
// the first vertices the run's reader asked for (at most replayVertices). It
// runs right after the read phase, so the machine is in the state the phase
// measured.
func (r *runner) replayScores() []float64 {
	scorer := r.env.srv.Snapshot().Scorer
	var us []float64
	for _, v := range r.rd.verts {
		t := time.Now()
		scorer.ScoreNode(v)
		us = append(us, float64(time.Since(t).Nanoseconds())/1000)
	}
	return us
}

// replayWAL appends the run's measured batches (at most replayBatches) to a
// fresh write-ahead log in the run directory and returns the p50 append, in
// ms. The host stamps its submitted and wal_appended trace events both after
// the append returns, so the trace cannot price the append itself.
func (r *runner) replayWAL(writes []write) float64 {
	log, _, err := wal.Open(filepath.Join(r.root, "walprobe"), wal.Options{})
	if err != nil {
		r.fail("open probe WAL: %v", err)
		return 0
	}
	defer log.Close()
	var times []float64
	for _, w := range writes[:min(len(writes), replayBatches)] {
		payload, err := json.Marshal([]serve.Mutation{w.batch})
		if err != nil {
			r.fail("encode batch: %v", err)
			return 0
		}
		t := time.Now()
		if _, err := log.Append(payload); err != nil {
			r.fail("append to probe WAL: %v", err)
			return 0
		}
		times = append(times, ms(time.Since(t)))
	}
	return percentile(times, 0.5)
}

// span is one timed interval of the trace. Spans of one batch share its
// sequence number; a batch links to the re-mine span that published it.
type span struct {
	ID     int       `json:"id"`
	Parent int       `json:"parent,omitempty"`
	Link   int       `json:"link,omitempty"`
	Name   string    `json:"name"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
	Gen    uint64    `json:"generation,omitempty"`
	Seq    uint64    `json:"seq,omitempty"`
}

// buildSpans assembles the run's trace: one span per measured request; one
// remine span per pass with its stage children laid end to end from the
// pass's start; one batch span per measured mutation batch, from its send
// time to its publish, with the request and the serve.queue_wait interval
// as children. Read times are offsets from base.
func buildSpans(base time.Time, reads []read, writes []write, profiles []obs.Profile) []span {
	var out []span
	add := func(s span) int {
		s.ID = len(out) + 1
		out = append(out, s)
		return s.ID
	}
	for _, rd := range reads {
		name := "read.complete"
		if rd.patterns {
			name = "read.patterns"
		}
		add(span{Name: name, Start: base.Add(rd.sent), End: base.Add(rd.done)})
	}
	remineByGen := map[uint64]int{}
	for _, p := range profiles {
		id := add(span{Name: "remine", Start: p.StartedAt, End: p.StartedAt.Add(p.Total), Gen: p.Generation})
		remineByGen[p.Generation] = id
		at := p.StartedAt
		for _, s := range p.Spans {
			add(span{Name: s.Stage, Parent: id, Start: at, End: at.Add(s.Duration), Gen: p.Generation})
			at = at.Add(s.Duration)
		}
	}
	for _, w := range writes {
		published, ok := eventAt(w.trace, obs.StagePublished)
		if w.err != nil || !ok {
			continue
		}
		gen := published.Generation
		id := add(span{Name: "batch", Start: w.sent, End: published.At, Seq: w.seq, Link: remineByGen[gen], Gen: gen})
		add(span{Name: "write.mutations", Parent: id, Start: w.sent, End: w.done, Seq: w.seq})
		appended, ok1 := eventAt(w.trace, obs.StageWALAppended)
		started, ok2 := eventAt(w.trace, obs.StageRemineStart)
		if ok1 && ok2 {
			add(span{Name: "serve.queue_wait", Parent: id, Start: appended.At, End: started.At, Seq: w.seq})
		}
	}
	return out
}

// selfTimes returns each span name's mean self time: its duration minus the
// part of it its children cover.
func selfTimes(spans []span) []value {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	total, count := map[string]float64{}, map[string]int{}
	var names []string
	for _, s := range spans {
		if count[s.Name] == 0 {
			names = append(names, s.Name)
		}
		total[s.Name] += ms(s.End.Sub(s.Start) - covered(s, children[s.ID]))
		count[s.Name]++
	}
	out := make([]value, len(names))
	for i, n := range names {
		out[i] = value{n, "ms", total[n] / float64(count[n])}
	}
	return out
}

// covered is how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ a, b time.Time }
	var ivs []iv
	for _, k := range kids {
		a, b := k.Start, k.End
		if a.Before(parent.Start) {
			a = parent.Start
		}
		if b.After(parent.End) {
			b = parent.End
		}
		if a.Before(b) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var d time.Duration
	var end time.Time
	for _, v := range ivs {
		if v.a.Before(end) {
			v.a = end
		}
		if v.a.Before(v.b) {
			d += v.b.Sub(v.a)
			end = v.b
		}
	}
	return d
}

// writeSpans writes the trace to <work>/trace-<workload>-seed<n>.json.
func (r *runner) writeSpans(spans []span) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(filepath.Dir(r.root), fmt.Sprintf("trace-%s-seed%d.json", r.w.name, r.seed)), b, 0o644)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// mean is NaN for no samples, so an empty metric is caught by finish.
func mean(xs []float64) float64 { return sum(xs) / float64(len(xs)) }

// percentile interpolates linearly between order statistics; NaN for no
// samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// median is Python's statistics.median; NaN for no samples.
func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles is Python's statistics.quantiles(xs, n=4) (the exclusive
// method) plus the median; it needs at least two values.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	ld := len(s)
	m := ld + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), ld-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), median(s), q(3)
}
