package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"cspm/internal/graph"
	"cspm/internal/obs"
	"cspm/internal/serve"
	"cspm/internal/serveclient"
)

// pageSize is the /patterns page the light read mix asks for.
const pageSize = 50

// read is one read request's timing, as offsets from its phase's start. It
// is kept small so the records of a fast closed loop cost little memory.
type read struct {
	sent, done time.Duration
	patterns   bool
	failed     bool
}

// write is one mutation batch the writer sent.
type write struct {
	sent, done time.Time
	err        error // transport or API failure
	batch      serve.Mutation
	seq        uint64    // the batch's trace sequence, from the ack
	trace      obs.Trace // the batch's lifecycle events, once published
	unitUs     float64   // median calibration unit taken after the batch's burst
}

// closedLoop calls send back to back until the window ends.
func closedLoop(win window, send func()) {
	for time.Now().Before(win.end) {
		send()
	}
}

// request is one read: a /complete of vertices when vertices is non-empty,
// otherwise a /patterns page at offset.
type request struct {
	vertices []graph.VertexID
	topK     int
	offset   int
}

// response is a read's decoded answer.
type response struct {
	complete serve.CompleteResponse
	patterns serve.PatternsResponse
}

// reader issues one stream of the workload's reads and records each.
type reader struct {
	nc    *serveclient.NamespaceClient
	rng   *rand.Rand
	light bool
	n     int       // vertices in the served graph
	pages int       // pattern pages in the served model
	gen   uint64    // generation every answer must carry; 0 = any
	base  time.Time // start of the phase the read offsets count from
	reads []read
	err   error            // first failure
	verts []graph.VertexID // the first replayVertices vertices asked for
}

// newReader returns read stream id of the run, for the phase in win;
// streams differ by id.
func (r *runner) newReader(id int64, win window, gen uint64) *reader {
	snap := r.env.srv.Snapshot()
	return &reader{
		nc:    r.env.nc,
		rng:   rand.New(rand.NewSource(r.seed*1_000_003 + id)),
		light: r.w.light,
		n:     snap.Graph.NumVertices(),
		pages: (len(snap.Model.Patterns) + pageSize - 1) / pageSize,
		gen:   gen,
		base:  win.start,
	}
}

// next draws a request: four distinct uniform vertices at top_k 10 for the
// scored mix; 70% one vertex at top_k 5 and 30% a random pattern page for the
// light mix.
func (rd *reader) next() request {
	if !rd.light {
		return request{vertices: distinctVertices(rd.rng, rd.n, 4), topK: 10}
	}
	if rd.rng.Float64() < 0.3 {
		return request{offset: pageSize * rd.rng.Intn(rd.pages)}
	}
	return request{vertices: distinctVertices(rd.rng, rd.n, 1), topK: 5}
}

func distinctVertices(rng *rand.Rand, n, k int) []graph.VertexID {
	out := make([]graph.VertexID, 0, k)
	for len(out) < k {
		v := graph.VertexID(rng.Intn(n))
		dup := false
		for _, u := range out {
			dup = dup || u == v
		}
		if !dup {
			out = append(out, v)
		}
	}
	return out
}

func (rd *reader) do(req request) (response, error) {
	var resp response
	var err error
	if len(req.vertices) == 0 {
		resp.patterns, err = rd.nc.Patterns(context.Background(), serveclient.PatternsOptions{Offset: req.offset, Limit: pageSize})
	} else {
		resp.complete, err = rd.nc.Complete(context.Background(), serve.CompleteRequest{Vertices: req.vertices, TopK: req.topK})
	}
	return resp, err
}

// send issues the next read and records it. An answer of the wrong shape or
// generation counts as a failed request.
func (rd *reader) send() {
	req := rd.next()
	sent := time.Now()
	resp, err := rd.do(req)
	done := time.Now()
	if err == nil {
		err = rd.validate(req, resp)
	}
	if rd.err == nil {
		rd.err = err
	}
	rd.reads = append(rd.reads, read{sent: sent.Sub(rd.base), done: done.Sub(rd.base),
		patterns: len(req.vertices) == 0, failed: err != nil})
	if len(rd.verts) < replayVertices {
		rd.verts = append(rd.verts, req.vertices...)
	}
}

// validate checks an answer's shape: the generation, and one result per
// requested vertex in order with at most top_k values, or the page asked for.
func (rd *reader) validate(req request, resp response) error {
	gen := resp.complete.Generation
	if len(req.vertices) == 0 {
		p := resp.patterns
		gen = p.Generation
		if p.Offset != req.offset || p.Limit != pageSize || len(p.Patterns) > pageSize {
			return fmt.Errorf("patterns page offset %d limit %d with %d patterns, asked offset %d", p.Offset, p.Limit, len(p.Patterns), req.offset)
		}
	} else {
		res := resp.complete.Results
		if len(res) != len(req.vertices) {
			return fmt.Errorf("complete returned %d results for %d vertices", len(res), len(req.vertices))
		}
		for i, vr := range res {
			if vr.Vertex != req.vertices[i] || len(vr.Values) > req.topK {
				return fmt.Errorf("complete result %d is vertex %d with %d values, asked vertex %d top_k %d", i, vr.Vertex, len(vr.Values), req.vertices[i], req.topK)
			}
		}
	}
	if rd.gen != 0 && gen != rd.gen {
		return fmt.Errorf("answer from generation %d, want %d", gen, rd.gen)
	}
	return nil
}

// writer sends one mutation batch per call and follows each acked batch to
// its publish through the host's trace ring.
type writer struct {
	srv    *serve.Server
	nc     *serveclient.NamespaceClient
	edits  editor
	traced bool
	writes []write
	next   int // first write whose publish has not been seen

	// Traced runs only: the host's re-mine profiles by start time, and the
	// gain evaluations of each published model by generation.
	profiles  map[time.Time]obs.Profile
	gainEvals map[uint64]int
}

func newWriter(e *env, edits editor, traced bool) *writer {
	return &writer{srv: e.srv, nc: e.nc, edits: edits, traced: traced,
		profiles: map[time.Time]obs.Profile{}, gainEvals: map[uint64]int{}}
}

// send submits the next edit as a one-mutation batch and records it.
func (w *writer) send() {
	m := w.edits.next()
	o := write{sent: time.Now(), batch: m}
	ack, err := w.nc.Mutate(context.Background(), []serve.Mutation{m})
	o.done = time.Now()
	o.err, o.seq = err, ack.Batch
	w.writes = append(w.writes, o)
	w.sweep()
}

// sendBurst is one turn of the closed-loop writer: islandBurst batches back
// to back, then a wait until the host has published and checkpointed them,
// so every burst meets an idle host.
func (w *writer) sendBurst() {
	for range islandBurst {
		w.send()
	}
	last := &w.writes[len(w.writes)-1]
	if last.err != nil {
		return
	}
	if err := w.flush(); err != nil {
		last.err = err
		return
	}
	for deadline := time.Now().Add(time.Minute); ; time.Sleep(time.Millisecond) {
		t, _ := w.srv.Traces().Get(last.seq)
		if _, ok := eventAt(t, obs.StageCheckpointed); ok {
			return
		}
		if time.Now().After(deadline) {
			last.err = fmt.Errorf("batch %d published but not checkpointed within a minute", last.seq)
			return
		}
	}
}

// flush waits until every acked batch is published and collects their
// lifecycles.
func (w *writer) flush() error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	err := w.srv.Flush(ctx)
	w.sweep()
	return err
}

// sweep collects the lifecycle of every batch published since the last
// sweep; the host's rings keep only the newest 256 batches and 32 re-mines,
// so the writer sweeps after every ack. Batches publish in sequence order.
func (w *writer) sweep() {
	for ; w.next < len(w.writes); w.next++ {
		o := &w.writes[w.next]
		if o.err != nil {
			continue
		}
		t, _ := w.srv.Traces().Get(o.seq)
		if _, published := eventAt(t, obs.StagePublished); !published {
			break
		}
		o.trace = t
	}
	if w.traced {
		for _, p := range w.srv.Remines().Recent() {
			w.profiles[p.StartedAt] = p
		}
		snap := w.srv.Snapshot()
		w.gainEvals[snap.Generation] = snap.Model.GainEvals
	}
}

// eventAt returns t's event for stage.
func eventAt(t obs.Trace, stage string) (obs.TraceEvent, bool) {
	for _, ev := range t.Events {
		if ev.Stage == stage {
			return ev, true
		}
	}
	return obs.TraceEvent{}, false
}

// editor generates a stream of edits, each changing the graph to a state it
// was never in, and keeps its own view of the graph to check the served one
// against.
type editor interface {
	next() serve.Mutation
	verify(served *graph.Graph) error
}

func newEditor(global bool, g *graph.Graph, seed int64) editor {
	rng := rand.New(rand.NewSource(seed))
	islands := graph.AttrClosedComponents(g).Members()
	if global {
		return newAttrEdits(rng, g, islands)
	}
	return newEdgeEdits(rng, g, islands)
}

type pair [2]graph.VertexID

func edgeKey(u, v graph.VertexID) pair {
	if u > v {
		u, v = v, u
	}
	return pair{u, v}
}

// islandBurst is how many consecutive edge edits land in one island before
// the next island's turn. Batches that coalesce into one re-mine then mostly
// dirty one island, so a re-mine's cost does not grow with the backlog it
// covers.
const islandBurst = 8

// edgeEdits adds or deletes one random edge inside one island per edit,
// visiting the islands in bursts, round robin in a seeded random order, so
// every run edits each island about equally often. No vertex pair is edited
// twice, so every batch dirties its island's fingerprint and each re-mine
// misses the cache for at least one group while replaying the others.
type edgeEdits struct {
	rng     *rand.Rand
	g0      *graph.Graph
	islands [][]graph.VertexID
	order   []int // island visiting order
	turn    int
	edges   [][]pair // each island's original edges
	touched map[pair]bool
}

func newEdgeEdits(rng *rand.Rand, g *graph.Graph, islands [][]graph.VertexID) *edgeEdits {
	e := &edgeEdits{rng: rng, g0: g, islands: islands, order: rng.Perm(len(islands)),
		edges: make([][]pair, len(islands)), touched: map[pair]bool{}}
	for i, vs := range islands {
		for _, u := range vs {
			for _, v := range g.Neighbors(u) {
				if u < v {
					e.edges[i] = append(e.edges[i], pair{u, v})
				}
			}
		}
	}
	return e
}

func (e *edgeEdits) next() serve.Mutation {
	i := e.order[e.turn/islandBurst%len(e.order)]
	e.turn++
	for {
		if e.rng.Intn(2) == 0 {
			vs := e.islands[i]
			u, v := vs[e.rng.Intn(len(vs))], vs[e.rng.Intn(len(vs))]
			p := edgeKey(u, v)
			if u == v || e.g0.HasEdge(u, v) || e.touched[p] {
				continue
			}
			e.touched[p] = true
			return serve.Mutation{Op: serve.OpAddEdge, U: p[0], V: p[1]}
		}
		p := e.edges[i][e.rng.Intn(len(e.edges[i]))]
		if e.touched[p] {
			continue
		}
		e.touched[p] = true
		return serve.Mutation{Op: serve.OpDelEdge, U: p[0], V: p[1]}
	}
}

// verify checks that served has exactly the original edges with every
// edited pair flipped.
func (e *edgeEdits) verify(served *graph.Graph) error {
	if served.NumVertices() != e.g0.NumVertices() {
		return fmt.Errorf("served graph has %d vertices, want %d", served.NumVertices(), e.g0.NumVertices())
	}
	want := e.g0.NumEdges()
	for p := range e.touched {
		if e.g0.HasEdge(p[0], p[1]) {
			want--
		} else {
			want++
		}
	}
	if served.NumEdges() != want {
		return fmt.Errorf("served graph has %d edges, want %d", served.NumEdges(), want)
	}
	for u := range served.NumVertices() {
		for _, v := range served.Neighbors(graph.VertexID(u)) {
			if e.g0.HasEdge(graph.VertexID(u), v) == e.touched[edgeKey(graph.VertexID(u), v)] {
				return fmt.Errorf("served graph has edge {%d,%d} the edits do not explain", u, v)
			}
		}
	}
	return nil
}

// attrEdits adds or deletes one attribute value on a random vertex per edit,
// drawing added values from the vertex's own island. Any attribute edit
// shifts the graph-wide value counts, so every re-mine misses the cache for
// every group. No value loses its last occurrence and no island gains a
// foreign one, so the partition into groups stays fixed.
type attrEdits struct {
	rng      *rand.Rand
	g0       *graph.Graph
	islandOf []int
	alphabet [][]string        // values present in each island
	attrs    []map[string]bool // current values of each vertex
	count    map[string]int    // current occurrences of each value
	touched  map[vertexValue]bool
}

type vertexValue struct {
	v     graph.VertexID
	value string
}

func newAttrEdits(rng *rand.Rand, g *graph.Graph, islands [][]graph.VertexID) *attrEdits {
	vocab := g.Vocab()
	e := &attrEdits{rng: rng, g0: g, islandOf: make([]int, g.NumVertices()), alphabet: make([][]string, len(islands)),
		attrs: make([]map[string]bool, g.NumVertices()), count: map[string]int{}, touched: map[vertexValue]bool{}}
	for i, vs := range islands {
		seen := map[string]bool{}
		for _, v := range vs {
			e.islandOf[v] = i
			e.attrs[v] = map[string]bool{}
			for _, a := range g.Attrs(v) {
				name := vocab.Name(a)
				e.attrs[v][name] = true
				e.count[name]++
				if !seen[name] {
					seen[name] = true
					e.alphabet[i] = append(e.alphabet[i], name)
				}
			}
		}
	}
	return e
}

func (e *attrEdits) next() serve.Mutation {
	vocab := e.g0.Vocab()
	for {
		v := graph.VertexID(e.rng.Intn(len(e.attrs)))
		if e.rng.Intn(2) == 0 {
			alpha := e.alphabet[e.islandOf[v]]
			val := alpha[e.rng.Intn(len(alpha))]
			if e.attrs[v][val] || e.touched[vertexValue{v, val}] {
				continue
			}
			e.touched[vertexValue{v, val}] = true
			e.attrs[v][val] = true
			e.count[val]++
			return serve.Mutation{Op: serve.OpAddAttr, U: v, Value: val}
		}
		// An original value nobody has touched is still on the vertex.
		orig := e.g0.Attrs(v)
		val := vocab.Name(orig[e.rng.Intn(len(orig))])
		if len(e.attrs[v]) < 2 || e.count[val] < 2 || e.touched[vertexValue{v, val}] {
			continue
		}
		e.touched[vertexValue{v, val}] = true
		delete(e.attrs[v], val)
		e.count[val]--
		return serve.Mutation{Op: serve.OpDelAttr, U: v, Value: val}
	}
}

// verify checks every vertex's values, by name, and the edge set.
func (e *attrEdits) verify(served *graph.Graph) error {
	if served.NumVertices() != len(e.attrs) || served.NumEdges() != e.g0.NumEdges() {
		return fmt.Errorf("served graph has %d vertices and %d edges, want %d and %d",
			served.NumVertices(), served.NumEdges(), len(e.attrs), e.g0.NumEdges())
	}
	vocab := served.Vocab()
	for v, want := range e.attrs {
		got := served.Attrs(graph.VertexID(v))
		if len(got) != len(want) {
			return fmt.Errorf("served vertex %d has %d values, want %d", v, len(got), len(want))
		}
		for _, a := range got {
			if !want[vocab.Name(a)] {
				return fmt.Errorf("served vertex %d has value %q the edits do not explain", v, vocab.Name(a))
			}
		}
	}
	for u := range served.NumVertices() {
		for _, v := range served.Neighbors(graph.VertexID(u)) {
			if !e.g0.HasEdge(graph.VertexID(u), v) {
				return fmt.Errorf("served graph has edge {%d,%d} the edits do not explain", u, v)
			}
		}
	}
	return nil
}
