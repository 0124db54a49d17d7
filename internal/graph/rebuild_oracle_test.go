package graph

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// rebuildFromScratch is the oracle of the copy-on-write Rebuild: it copies
// the whole graph into per-vertex maps, applies the edits there, and builds
// the result from scratch through Builder. Vertex identity is the pointer,
// so a deletion renumbers nothing until the final ids are read off the
// surviving slice.
func rebuildFromScratch(g *Graph, edits []Edit) (*Graph, error) {
	type vtx struct {
		attrs map[AttrID]bool
		adj   map[*vtx]bool
	}
	verts := make([]*vtx, g.NumVertices())
	for v := range verts {
		verts[v] = &vtx{attrs: map[AttrID]bool{}, adj: map[*vtx]bool{}}
	}
	for v, p := range verts {
		for _, a := range g.Attrs(VertexID(v)) {
			p.attrs[a] = true
		}
		for _, u := range g.Neighbors(VertexID(v)) {
			p.adj[verts[u]] = true
		}
	}
	vocab := NewVocab()
	for _, name := range g.Vocab().Names() {
		vocab.ID(name)
	}
	for i, e := range edits {
		switch e.Op {
		case EditAddAttr, EditDelAttr, EditDelVertex:
			if int(e.U) >= len(verts) {
				return nil, rebuildErr(i, e, "vertex %d outside range [0,%d)", e.U, len(verts))
			}
		case EditAddEdge, EditDelEdge:
			if int(e.U) >= len(verts) || int(e.V) >= len(verts) {
				return nil, rebuildErr(i, e, "edge {%d,%d} outside vertex range [0,%d)", e.U, e.V, len(verts))
			}
			if e.U == e.V {
				return nil, rebuildErr(i, e, "self-loop {%d,%d} is not allowed", e.U, e.V)
			}
		}
		switch e.Op {
		case EditAddAttr:
			verts[e.U].attrs[vocab.ID(e.Value)] = true
		case EditDelAttr:
			if id, ok := vocab.Lookup(e.Value); ok {
				delete(verts[e.U].attrs, id)
			}
		case EditAddEdge:
			verts[e.U].adj[verts[e.V]] = true
			verts[e.V].adj[verts[e.U]] = true
		case EditDelEdge:
			delete(verts[e.U].adj, verts[e.V])
			delete(verts[e.V].adj, verts[e.U])
		case EditAddVertex:
			verts = append(verts, &vtx{attrs: map[AttrID]bool{}, adj: map[*vtx]bool{}})
		case EditDelVertex:
			for nb := range verts[e.U].adj {
				delete(nb.adj, verts[e.U])
			}
			verts = slices.Delete(verts, int(e.U), int(e.U)+1)
		default:
			return nil, rebuildErr(i, e, "unknown op")
		}
	}
	b := NewBuilder(len(verts))
	for _, name := range vocab.Names() {
		b.Vocab().ID(name)
	}
	index := make(map[*vtx]VertexID, len(verts))
	for i, p := range verts {
		index[p] = VertexID(i)
	}
	for i, p := range verts {
		for a := range p.attrs {
			_ = b.AddAttrID(VertexID(i), a)
		}
		for nb := range p.adj {
			_ = b.AddEdge(VertexID(i), index[nb])
		}
	}
	return b.Build(), nil
}

// graphSnapshot deep-copies everything a Graph exposes, so a test can
// check that Rebuild left its input alone.
type graphSnapshot struct {
	adj   [][]VertexID
	attrs [][]AttrID
	names []string
	edges int
}

func snapshotOf(g *Graph) graphSnapshot {
	s := graphSnapshot{names: slices.Clone(g.Vocab().Names()), edges: g.NumEdges()}
	for v := range g.NumVertices() {
		s.adj = append(s.adj, slices.Clone(g.Neighbors(VertexID(v))))
		s.attrs = append(s.attrs, slices.Clone(g.Attrs(VertexID(v))))
	}
	return s
}

// sameGraph reports how got and want differ, by id: rows, edge count and
// interning order. Empty rows must be nil on both sides, as Builder
// leaves them.
func sameGraph(got, want *Graph) error {
	if g, w := snapshotOf(got), snapshotOf(want); !reflect.DeepEqual(g, w) {
		return fmt.Errorf("got %+v\nwant %+v", g, w)
	}
	for v := range got.NumVertices() {
		if (got.Neighbors(VertexID(v)) == nil) != (len(got.Neighbors(VertexID(v))) == 0) ||
			(got.Attrs(VertexID(v)) == nil) != (len(got.Attrs(VertexID(v))) == 0) {
			return fmt.Errorf("vertex %d has an empty non-nil row", v)
		}
	}
	return nil
}

// checkRebuild runs Rebuild and the oracle on (g, edits) and fails unless
// they agree: the same error, or equal graphs, with g unchanged either way.
func checkRebuild(t *testing.T, g *Graph, edits []Edit) {
	t.Helper()
	before := snapshotOf(g)
	got, err := Rebuild(g, edits)
	want, werr := rebuildFromScratch(g, edits)
	if !reflect.DeepEqual(snapshotOf(g), before) {
		t.Fatalf("Rebuild modified its input graph (edits %v)", edits)
	}
	if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
		t.Fatalf("error %v, oracle %v (edits %v)", err, werr, edits)
	}
	if err != nil {
		if got != nil {
			t.Fatalf("failed Rebuild returned a graph")
		}
		return
	}
	if derr := sameGraph(got, want); derr != nil {
		t.Fatalf("edits %v: %v", edits, derr)
	}
}

// randomEdits draws n edits over a graph of nv vertices, tracking the
// vertex count so most edits are valid; values come from a small pool with
// names the graph has never seen.
func randomEdits(rng *rand.Rand, nv, n int) []Edit {
	edits := make([]Edit, 0, n)
	for range n {
		// Favour edits on the newest vertices, including ones this batch
		// just added.
		pick := func() VertexID {
			if nv == 0 {
				return 0
			}
			if rng.Intn(3) == 0 {
				return VertexID(max(0, nv-1-rng.Intn(3)))
			}
			return VertexID(rng.Intn(nv))
		}
		e := Edit{Op: EditOp(1 + rng.Intn(6)), U: pick(), V: pick(), Value: fmt.Sprintf("v%d", rng.Intn(12))}
		switch e.Op {
		case EditAddVertex:
			nv++
		case EditDelVertex:
			if nv > 0 {
				nv--
			}
		}
		edits = append(edits, e)
	}
	return edits
}

// TestRebuildMatchesFromScratch compares the copy-on-write Rebuild with the
// from-scratch oracle on randomized batches of all six ops — vertex adds
// and deletes mid-batch, edits on just-added vertices, the occasional
// invalid edit — and chains generations, so rows shared with a parent are
// edited again in the child.
func TestRebuildMatchesFromScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for trial := range 200 {
		g := rebuildTestGraph(t)
		for gen := range 4 {
			edits := randomEdits(rng, g.NumVertices(), 1+rng.Intn(12))
			checkRebuild(t, g, edits)
			if next, err := Rebuild(g, edits); err == nil {
				g = next
			} else if trial%50 == 0 && gen == 0 {
				t.Logf("trial %d: %v", trial, err)
			}
		}
	}
}

// FuzzRebuild decodes a graph and an edit batch from bytes: Rebuild must
// never panic, and must either fail with the oracle's error and no effect
// or produce the oracle's graph.
func FuzzRebuild(f *testing.F) {
	f.Add([]byte{6, 1, 2, 3, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{0, 5, 5, 6, 6, 1, 0, 0})
	f.Add([]byte{3, 6, 1, 0, 6, 0, 1, 5, 2, 1, 3, 2, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		nv := next() % 9
		b := NewBuilder(nv)
		for range next() % 16 {
			if nv > 0 {
				_ = b.AddEdge(VertexID(next()%nv), VertexID(next()%nv))
				_ = b.AddAttr(VertexID(next()%nv), fmt.Sprintf("v%d", next()%5))
			}
		}
		g := b.Build()
		var edits []Edit
		for len(data) > 0 {
			edits = append(edits, Edit{
				Op:    EditOp(next() % 8),
				U:     VertexID(next() % 12),
				V:     VertexID(next() % 12),
				Value: fmt.Sprintf("v%d", next()%7),
			})
		}
		checkRebuild(t, g, edits)
	})
}
