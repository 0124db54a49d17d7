// Sharded construction and canonical description-length accounting (see
// DESIGN.md "Sharded mining"). A shard database is one attribute-closed
// component group, built from its shard job alone: its values and vertices
// are renumbered densely in the order of their global ids, so its arrays
// are sized by the group, and it prices against the group's standard table,
// whose lengths −log2(f/N) need the graph only for N. Such a group holds
// every occurrence of its values, so its gains are the global ones, bit for
// bit.
//
// Canonical DL functions compute description lengths as pure functions of
// the line multiset, summing in a fixed (coreset id, leafset content) order.
// They exist because the DB's incremental accumulators depend on the float
// operation order of the merge history: two searches that reach the same
// final database through differently interleaved merges (a sharded run vs. a
// monolithic one) agree on every term but not necessarily on the last bits
// of the running sums. Reporting through the canonical order instead makes
// "bit-identical models" a meaningful contract across shard counts.
package invdb

import (
	"cmp"
	"slices"

	"cspm/internal/graph"
	"cspm/internal/intset"
	"cspm/internal/mdl"
)

// singleValueCoresets inverts per-vertex attribute lists into the
// single-value coreset space: one coreset per attribute value in [0, nA),
// firing at the (local) vertices carrying it (ascending li, so the position
// sets are sorted). Shared by FromGraph and FromShardData, the whole-graph
// and the component-group constructors, so there is exactly one copy of it.
func singleValueCoresets(nA, n int, attrsOf func(li int) []graph.AttrID) (content [][]graph.AttrID, positions []intset.Set) {
	posBuf := make([][]uint32, nA)
	for li := 0; li < n; li++ {
		for _, a := range attrsOf(li) {
			posBuf[a] = append(posBuf[a], uint32(li))
		}
	}
	content = make([][]graph.AttrID, nA)
	positions = make([]intset.Set, nA)
	for a := 0; a < nA; a++ {
		content[a] = []graph.AttrID{graph.AttrID(a)}
		positions[a] = intset.FromSorted(posBuf[a])
	}
	return content, positions
}

// shardData adapts a shipped shard — per-local-vertex attribute lists and
// local adjacency rows — to the neighborhood interface build reads.
type shardData struct {
	attrs [][]graph.AttrID
	adj   [][]graph.VertexID
}

func (d shardData) Neighbors(v graph.VertexID) []graph.VertexID { return d.adj[v] }
func (d shardData) Attrs(v graph.VertexID) []graph.AttrID       { return d.attrs[v] }

// FromShardData builds the inverted database of a component group from its
// shard-job rows, without the graph: local vertex li carries attrs[li]
// (sorted value ids in [0, nA)) and neighbours adj[li] (sorted local ids),
// and st prices the values. It is the one group constructor, for a job
// mined in-process and for one shipped to a worker alike. When attrs and
// adj are the rows of a sorted vertex slice remapped to local ids, and no
// edge leaves the slice (as with attribute-closed component groups), the
// group's lines are the global lines of its vertices, renumbered
// monotonically; over the whole graph's rows in global ids the result is
// FromGraph's.
func FromShardData(st *mdl.StandardTable, nA int, attrs [][]graph.AttrID, adj [][]graph.VertexID) *DB {
	content, positions := singleValueCoresets(nA, len(attrs),
		func(li int) []graph.AttrID { return attrs[li] })
	return build(shardData{attrs: attrs, adj: adj}, st, content, positions)
}

// LineStat is the DL-relevant skeleton of one line: its coreset, leafset
// content, and frequency. Stats are exchanged between shards and the merge
// step, so they carry contents (global attribute ids), never shard-local
// leafset ids.
type LineStat struct {
	Core CoresetID
	Leaf []graph.AttrID
	FL   int
}

// AppendLineStats appends one LineStat per live line to dst and returns it.
// Leaf slices alias the leafset table: callers must treat them as read-only.
func (db *DB) AppendLineStats(dst []LineStat) []LineStat {
	for c := range db.byCore {
		ix := &db.byCore[c]
		for i, ln := range ix.lines {
			dst = append(dst, LineStat{Core: CoresetID(c), Leaf: db.leafsets.Values(ix.ids[i]), FL: ln.FL()})
		}
	}
	return dst
}

// NormalizeLineStats returns a copy of stats sorted into the canonical
// (coreset id, leafset content) order with duplicate (core, leaf) entries
// folded by summing their frequencies, so a multiset that lists one line
// under several entries prices like its folded form. The input is left
// untouched, so passing the same slice through several canonical
// computations is safe. The result is a pure function of the input multiset.
func NormalizeLineStats(stats []LineStat) []LineStat {
	stats = append([]LineStat(nil), stats...)
	slices.SortFunc(stats, func(a, b LineStat) int {
		if c := cmp.Compare(a.Core, b.Core); c != 0 {
			return c
		}
		return graph.CompareAttrs(a.Leaf, b.Leaf)
	})
	out := stats[:0]
	for _, s := range stats {
		if n := len(out); n > 0 && out[n-1].Core == s.Core && graph.CompareAttrs(out[n-1].Leaf, s.Leaf) == 0 {
			out[n-1].FL += s.FL
			continue
		}
		out = append(out, s)
	}
	return out
}

// CanonicalDL computes the data and model description lengths of a line
// multiset in the canonical order. coreCode prices a line's coreset pointer
// (L(Code_c), Eq. 5); st prices leafset spell-outs. The integer frequencies
// f_c are derived from the stats themselves, so the result is a pure
// function of (st, coreCode, multiset) — independent of how many shards the
// lines came from or in which order their merges were applied.
func CanonicalDL(st *mdl.StandardTable, coreCode func(CoresetID) float64, stats []LineStat) (data, model float64) {
	return canonicalDL(st, coreCode, NormalizeLineStats(stats))
}

// canonicalDL is CanonicalDL over already-normalized stats.
func canonicalDL(st *mdl.StandardTable, coreCode func(CoresetID) float64, stats []LineStat) (data, model float64) {
	for i := 0; i < len(stats); {
		c := stats[i].Core
		j := i
		fc := 0
		for ; j < len(stats) && stats[j].Core == c; j++ {
			fc += stats[j].FL
		}
		data += mdl.XLogX(float64(fc))
		for k := i; k < j; k++ {
			data -= mdl.XLogX(float64(stats[k].FL))
			model += coreCode(c)
		}
		i = j
	}
	// Spell-out: every distinct leafset once, in ascending content order.
	leafs := make([][]graph.AttrID, 0, len(stats))
	for _, s := range stats {
		leafs = append(leafs, s.Leaf)
	}
	slices.SortFunc(leafs, graph.CompareAttrs)
	for i, lf := range leafs {
		if i > 0 && graph.CompareAttrs(leafs[i-1], lf) == 0 {
			continue
		}
		model += st.SetLen(lf)
	}
	return data, model
}

// canonicalCondEntropy computes H(Y|X) (Eq. 7) over already-normalized
// line stats, in the canonical order.
func canonicalCondEntropy(stats []LineStat) float64 {
	pairs := make([][2]int, 0, len(stats))
	for i := 0; i < len(stats); {
		c := stats[i].Core
		j := i
		fc := 0
		for ; j < len(stats) && stats[j].Core == c; j++ {
			fc += stats[j].FL
		}
		for k := i; k < j; k++ {
			pairs = append(pairs, [2]int{stats[k].FL, fc})
		}
		i = j
	}
	return mdl.CondEntropy(pairs)
}

// CanonicalSummary normalizes a line multiset once and returns its canonical
// data/model description lengths together with its conditional entropy — the
// bundle model extraction reports — and the normalized multiset itself, for
// callers that derive more from it.
func CanonicalSummary(st *mdl.StandardTable, coreCode func(CoresetID) float64, stats []LineStat) (data, model, condEntropy float64, norm []LineStat) {
	norm = NormalizeLineStats(stats)
	data, model = canonicalDL(st, coreCode, norm)
	return data, model, canonicalCondEntropy(norm), norm
}
