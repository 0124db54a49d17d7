package graph

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

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
//
// The rebuild is copy-on-write (DESIGN.md "Copy-on-write rebuild"): both
// graphs are immutable, so the new graph shares every adjacency and
// attribute row the edits leave alone, and g's vocabulary unless an edit
// interns a value. A rebuild costs O(|V|) for the row tables plus the rows
// it touches; after a vertex deletion, the rows that name a shifted vertex
// are remapped too.
func Rebuild(g *Graph, edits []Edit) (*Graph, error) {
	// Rows are indexed by slot while edits apply: g's vertices are slots
	// 0..n-1 and each added vertex takes the next slot, so neighbour rows
	// hold slots and a deletion renumbers nothing. live lists the live
	// slots in ascending order; a vertex's current id is its slot's index
	// in live.
	n := g.NumVertices()
	adj := slices.Clone(g.adj)
	attrs := slices.Clone(g.attrs)
	live := make([]VertexID, n)
	for v := range live {
		live[v] = VertexID(v)
	}
	var owned []uint8 // per slot: ownAdj | ownAttrs once the row is private
	own := func(s VertexID, bit uint8) {
		if int(s) >= len(owned) {
			owned = append(owned, make([]uint8, len(adj)-len(owned))...)
		}
		if owned[s]&bit != 0 {
			return
		}
		owned[s] |= bit
		if bit == ownAdj {
			adj[s] = append(make([]VertexID, 0, len(adj[s])+1), adj[s]...)
		} else {
			attrs[s] = append(make([]AttrID, 0, len(attrs[s])+1), attrs[s]...)
		}
	}
	edges := g.edges
	vocab := g.Vocab()
	firstDeleted := VertexID(math.MaxUint32) // smallest deleted slot

	for i, e := range edits {
		switch e.Op {
		case EditAddAttr:
			if int(e.U) >= len(live) {
				return nil, rebuildErr(i, e, "vertex %d outside range [0,%d)", e.U, len(live))
			}
			id, ok := vocab.Lookup(e.Value)
			if !ok {
				if vocab == g.Vocab() {
					vocab = vocab.clone()
				}
				id = vocab.ID(e.Value)
			}
			if s := live[e.U]; !hasSorted(attrs[s], id) {
				own(s, ownAttrs)
				attrs[s] = insertSorted(attrs[s], id)
			}
		case EditDelAttr:
			if int(e.U) >= len(live) {
				return nil, rebuildErr(i, e, "vertex %d outside range [0,%d)", e.U, len(live))
			}
			// Lookup, not ID: deleting a never-seen value must not intern it.
			if id, ok := vocab.Lookup(e.Value); ok {
				if s := live[e.U]; hasSorted(attrs[s], id) {
					own(s, ownAttrs)
					attrs[s] = deleteSorted(attrs[s], id)
				}
			}
		case EditAddEdge, EditDelEdge:
			if int(e.U) >= len(live) || int(e.V) >= len(live) {
				return nil, rebuildErr(i, e, "edge {%d,%d} outside vertex range [0,%d)", e.U, e.V, len(live))
			}
			if e.U == e.V {
				return nil, rebuildErr(i, e, "self-loop {%d,%d} is not allowed", e.U, e.V)
			}
			p, q := live[e.U], live[e.V]
			if has := hasSorted(adj[p], q); e.Op == EditAddEdge && !has {
				own(p, ownAdj)
				own(q, ownAdj)
				adj[p], adj[q] = insertSorted(adj[p], q), insertSorted(adj[q], p)
				edges++
			} else if e.Op == EditDelEdge && has {
				own(p, ownAdj)
				own(q, ownAdj)
				adj[p], adj[q] = deleteSorted(adj[p], q), deleteSorted(adj[q], p)
				edges--
			}
		case EditAddVertex:
			live = append(live, VertexID(len(adj)))
			adj = append(adj, nil)
			attrs = append(attrs, nil)
		case EditDelVertex:
			if int(e.U) >= len(live) {
				return nil, rebuildErr(i, e, "vertex %d outside range [0,%d)", e.U, len(live))
			}
			victim := live[e.U]
			for _, nb := range adj[victim] {
				own(nb, ownAdj)
				adj[nb] = deleteSorted(adj[nb], victim)
			}
			edges -= len(adj[victim])
			adj[victim], attrs[victim] = nil, nil
			live = slices.Delete(live, int(e.U), int(e.U)+1)
			firstDeleted = min(firstDeleted, victim)
		default:
			return nil, rebuildErr(i, e, "unknown op")
		}
	}

	out := &Graph{adj: adj, attrs: attrs, vocab: vocab, edges: edges}
	if len(live) == len(adj) {
		return out, nil // no deletion: every slot is its own id
	}
	// Survivors' ids are their indices in live: a monotone renumbering, so
	// a remapped row stays sorted, and a row naming no slot above the first
	// deleted one keeps its ids and is shared as is.
	idOf := make([]VertexID, len(adj))
	for id, s := range live {
		idOf[s] = VertexID(id)
	}
	out.adj = make([][]VertexID, len(live))
	out.attrs = make([][]AttrID, len(live))
	for id, s := range live {
		out.attrs[id] = attrs[s]
		row := adj[s]
		if len(row) > 0 && row[len(row)-1] > firstDeleted {
			remapped := make([]VertexID, len(row))
			for j, nb := range row {
				remapped[j] = idOf[nb]
			}
			row = remapped
		}
		out.adj[id] = row
	}
	return out, nil
}

// Row ownership bits of Rebuild's copy-on-write rows.
const (
	ownAdj uint8 = 1 << iota
	ownAttrs
)

// hasSorted reports whether the ascending row holds x.
func hasSorted[T cmp.Ordered](row []T, x T) bool {
	_, ok := slices.BinarySearch(row, x)
	return ok
}

// insertSorted inserts x, absent, into the ascending row.
func insertSorted[T cmp.Ordered](row []T, x T) []T {
	i, _ := slices.BinarySearch(row, x)
	return slices.Insert(row, i, x)
}

// deleteSorted removes x, present, from the ascending row; an emptied row
// becomes nil, as Builder leaves an empty one.
func deleteSorted[T cmp.Ordered](row []T, x T) []T {
	i, _ := slices.BinarySearch(row, x)
	if row = slices.Delete(row, i, i+1); len(row) == 0 {
		return nil
	}
	return row
}

func rebuildErr(i int, e Edit, format string, args ...any) error {
	return fmt.Errorf("graph: edit %d (%s): %s", i, e.Op, fmt.Sprintf(format, args...))
}
