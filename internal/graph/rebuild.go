package graph

import "fmt"

// EditOp enumerates the graph edit operations understood by Rebuild.
type EditOp uint8

const (
	// EditAddAttr attaches Value to vertex U (no-op if already present).
	EditAddAttr EditOp = iota + 1
	// EditDelAttr detaches Value from vertex U (no-op if absent or never
	// interned; a deleted value keeps its interned id, see Rebuild).
	EditDelAttr
	// EditAddEdge inserts the undirected edge {U, V} (no-op if present).
	EditAddEdge
	// EditDelEdge removes the undirected edge {U, V} (no-op if absent).
	EditDelEdge
	// EditAddVertex appends one attributeless vertex with id = current |V|.
	// Later edits in the same batch may reference it.
	EditAddVertex
	// EditDelVertex removes vertex U with its attributes and incident edges;
	// every vertex with a larger id shifts down by one. Later edits in the
	// same batch address the shifted ids.
	EditDelVertex
)

// String names the op for error messages.
func (op EditOp) String() string {
	switch op {
	case EditAddAttr:
		return "add_attr"
	case EditDelAttr:
		return "del_attr"
	case EditAddEdge:
		return "add_edge"
	case EditDelEdge:
		return "del_edge"
	case EditAddVertex:
		return "add_vertex"
	case EditDelVertex:
		return "del_vertex"
	}
	return fmt.Sprintf("EditOp(%d)", uint8(op))
}

// Edit is one edit to an attributed graph: the unit Rebuild applies. U is
// the edited vertex (attribute and vertex ops) or one edge endpoint, V the
// other endpoint (edge ops only), Value the attribute value (attribute ops
// only). Unused fields are ignored.
type Edit struct {
	Op    EditOp
	U, V  VertexID
	Value string
}

// editVtx is Rebuild's working representation of one vertex. Identity is the
// pointer, not the id: deleting a vertex splices it out of the slice without
// renumbering anything, and the final dense ids are simply the surviving
// slice positions.
type editVtx struct {
	attrs map[AttrID]struct{}
	adj   map[*editVtx]struct{}
}

// Rebuild applies edits to g in order — each edit sees the state produced by
// the ones before it, including mid-batch vertex-count changes — and freezes
// the result into a new immutable Graph. It fails on the first inapplicable
// edit (out-of-range vertex, self-loop, unknown op) without partial effect
// on g, which is never modified.
//
// Two invariants make rebuilt graphs cache-friendly across generations
// (DESIGN.md "Dynamic vertices & generation watch"):
//
//   - Interning order is preserved: the new graph re-interns g's full
//     vocabulary first, in g's id order, then values first seen in edits (in
//     edit order). Cached shard results store interned ids, so a cache hit
//     is only sound while equal ids mean equal names; a value whose last
//     occurrence is deleted keeps its id for the same reason.
//
//   - Vertex deletion shifts ids monotonically: the survivors keep their
//     relative order, so a connected component that lost no vertex maps to
//     the same local rows and its cache key stays warm.
func Rebuild(g *Graph, edits []Edit) (*Graph, error) {
	n := g.NumVertices()
	verts := make([]*editVtx, n)
	for v := 0; v < n; v++ {
		verts[v] = &editVtx{}
	}
	for v := 0; v < n; v++ {
		if lst := g.Attrs(VertexID(v)); len(lst) > 0 {
			set := make(map[AttrID]struct{}, len(lst))
			for _, a := range lst {
				set[a] = struct{}{}
			}
			verts[v].attrs = set
		}
		if lst := g.Neighbors(VertexID(v)); len(lst) > 0 {
			adj := make(map[*editVtx]struct{}, len(lst))
			for _, u := range lst {
				adj[verts[u]] = struct{}{}
			}
			verts[v].adj = adj
		}
	}

	// The working vocabulary is seeded exactly like the final one below, so
	// ids assigned while applying edits are already the final ids.
	vocab := NewVocab()
	for _, name := range g.Vocab().Names() {
		vocab.ID(name)
	}

	for i, e := range edits {
		switch e.Op {
		case EditAddAttr:
			if int(e.U) >= len(verts) {
				return nil, rebuildErr(i, e, "vertex %d outside range [0,%d)", e.U, len(verts))
			}
			p := verts[e.U]
			if p.attrs == nil {
				p.attrs = make(map[AttrID]struct{})
			}
			p.attrs[vocab.ID(e.Value)] = struct{}{}
		case EditDelAttr:
			if int(e.U) >= len(verts) {
				return nil, rebuildErr(i, e, "vertex %d outside range [0,%d)", e.U, len(verts))
			}
			// Lookup, not ID: deleting a never-seen value must not intern it.
			if id, ok := vocab.Lookup(e.Value); ok && verts[e.U].attrs != nil {
				delete(verts[e.U].attrs, id)
			}
		case EditAddEdge, EditDelEdge:
			if int(e.U) >= len(verts) || int(e.V) >= len(verts) {
				return nil, rebuildErr(i, e, "edge {%d,%d} outside vertex range [0,%d)", e.U, e.V, len(verts))
			}
			if e.U == e.V {
				return nil, rebuildErr(i, e, "self-loop {%d,%d} is not allowed", e.U, e.V)
			}
			p, q := verts[e.U], verts[e.V]
			if e.Op == EditAddEdge {
				if p.adj == nil {
					p.adj = make(map[*editVtx]struct{})
				}
				if q.adj == nil {
					q.adj = make(map[*editVtx]struct{})
				}
				p.adj[q] = struct{}{}
				q.adj[p] = struct{}{}
			} else {
				delete(p.adj, q)
				delete(q.adj, p)
			}
		case EditAddVertex:
			verts = append(verts, &editVtx{})
		case EditDelVertex:
			if int(e.U) >= len(verts) {
				return nil, rebuildErr(i, e, "vertex %d outside range [0,%d)", e.U, len(verts))
			}
			victim := verts[e.U]
			for nb := range victim.adj {
				delete(nb.adj, victim)
			}
			verts = append(verts[:e.U], verts[e.U+1:]...)
		default:
			return nil, rebuildErr(i, e, "unknown op")
		}
	}

	b := NewBuilder(len(verts))
	bv := b.Vocab()
	for _, name := range vocab.Names() {
		bv.ID(name)
	}
	index := make(map[*editVtx]VertexID, len(verts))
	for i, p := range verts {
		index[p] = VertexID(i)
	}
	for i, p := range verts {
		for a := range p.attrs {
			// Ids and vertices are in range by construction; Builder cannot fail.
			_ = b.AddAttrID(VertexID(i), a)
		}
		for nb := range p.adj {
			if j := index[nb]; VertexID(i) < j {
				_ = b.AddEdge(VertexID(i), j)
			}
		}
	}
	return b.Build(), nil
}

func rebuildErr(i int, e Edit, format string, args ...any) error {
	return fmt.Errorf("graph: edit %d (%s): %s", i, e.Op, fmt.Sprintf(format, args...))
}
