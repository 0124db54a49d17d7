// Package slim implements the SLIM algorithm (Smets & Vreeken, paper [25]):
// compression-based itemset mining with on-the-fly candidate generation.
// Instead of a pre-mined candidate set (Krimp), SLIM repeatedly considers
// unions of pairs of code-table entries, ranked by their estimated gain, and
// accepts a union when it genuinely shrinks the total description length.
//
// SLIM is the runtime baseline in Table III: applied to an attributed graph
// by treating the coresets of each adjacency-list tuple — the vertex's own
// attribute values — as a transaction (paper §VI-A), it mines co-occurring
// value sets without the topology or the core/leaf distinction CSPM adds.
package slim

import (
	"math"
	"sort"

	"cspm/internal/fim"
	"cspm/internal/graph"
	"cspm/internal/intset"
	"cspm/internal/krimp"
)

// Options bounds a SLIM run. The zero value is the parameter-free default.
type Options struct {
	MaxMerges     int // cap on accepted unions (0 = unbounded)
	MaxCandidates int // per-round cap on evaluated pair unions (0 = all)
	// RejectCooldown skips a union for this many rounds after it failed to
	// compress (its actual gain rarely flips sign between adjacent rounds).
	// 0 means the default of 10; negative disables the cache.
	RejectCooldown int
}

// Result is the mined code table plus diagnostics.
type Result struct {
	CT         *krimp.CodeTable
	BaselineDL float64
	FinalDL    float64
	Accepted   int
	Evaluated  int
}

// Mine runs SLIM on the transaction database.
func Mine(db *fim.DB, opts Options) *Result {
	cooldown := opts.RejectCooldown
	switch {
	case cooldown == 0:
		cooldown = 10
	case cooldown < 0:
		cooldown = 0
	}
	ct := krimp.NewCodeTable(db)
	res := &Result{CT: ct, BaselineDL: ct.TotalDL()}
	best := res.BaselineDL
	rejected := make(map[string]int) // union key → round it failed
	round := 0
	for opts.MaxMerges == 0 || res.Accepted < opts.MaxMerges {
		round++
		cands := pairCandidates(ct, opts.MaxCandidates)
		accepted := false
		for _, cand := range cands {
			if ct.Has(cand.items) {
				continue // union already in the table; nothing to add
			}
			key := itemsKey(cand.items)
			if r, ok := rejected[key]; ok && round-r <= cooldown {
				continue
			}
			res.Evaluated++
			_, rollback := ct.TryItemset(cand.items)
			if dl := ct.TotalDL(); dl < best-1e-9 {
				best = dl
				res.Accepted++
				accepted = true
				break // greedy: rebuild candidates around the new table
			}
			if rollback != nil {
				rollback()
			}
			rejected[key] = round
		}
		if !accepted {
			break
		}
	}
	res.FinalDL = best
	return res
}

func itemsKey(items []fim.Item) string {
	buf := make([]byte, 0, 4*len(items))
	for _, it := range items {
		buf = append(buf, byte(it), byte(it>>8), byte(it>>16), byte(it>>24))
	}
	return string(buf)
}

type pairCand struct {
	items []fim.Item
	est   float64
}

// pairCandidates ranks unions of in-use entry pairs by estimated gain. The
// estimate follows SLIM's usage heuristic: coding the co-usage with one code
// instead of two saves roughly xy·(L(x)+L(y)−L(xy)) bits, with L from
// current usages. Only co-occurring pairs (shared cover transactions) are
// considered.
func pairCandidates(ct *krimp.CodeTable, limit int) []pairCand {
	entries := ct.Entries()
	total := ct.TotalUsage()
	var out []pairCand
	for i := 0; i < len(entries); i++ {
		for j := i + 1; j < len(entries); j++ {
			a, b := entries[i], entries[j]
			xy := a.Tids.IntersectCount(b.Tids)
			if xy < 2 {
				continue // a one-off co-usage can never pay its table cost
			}
			union := mergeItems(a.Items, b.Items)
			if len(union) == len(a.Items) || len(union) == len(b.Items) {
				continue // one contains the other; the union adds nothing
			}
			if ct.Has(union) {
				continue
			}
			est := float64(xy) * (a.CodeLen(total) + b.CodeLen(total) - estCodeLen(xy, total))
			out = append(out, pairCand{items: union, est: est})
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].est != out[j].est {
			return out[i].est > out[j].est
		}
		return lessItems(out[i].items, out[j].items)
	})
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

func estCodeLen(usage, total int) float64 {
	if usage <= 0 || total <= 0 {
		return math.Inf(1)
	}
	return -math.Log2(float64(usage) / float64(total))
}

func mergeItems(a, b []fim.Item) []fim.Item {
	out := make([]fim.Item, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

func lessItems(a, b []fim.Item) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// MineGraph is the Table III baseline entry point: SLIM over the
// vertex-attribute transactions.
func MineGraph(g *graph.Graph, opts Options) *Result {
	return Mine(VertexTransactions(g), opts)
}

// VertexTransactions builds the §IV-F step-1 database: one transaction per
// vertex holding just that vertex's attribute values. Mining it yields the
// multi-value coresets of CSPM's general mode.
func VertexTransactions(g *graph.Graph) *fim.DB {
	raw := make([][]fim.Item, g.NumVertices())
	for v := 0; v < g.NumVertices(); v++ {
		attrs := g.Attrs(graph.VertexID(v))
		tx := make([]fim.Item, len(attrs))
		for i, a := range attrs {
			tx[i] = fim.Item(a)
		}
		raw[v] = tx
	}
	return fim.NewDB(raw)
}

// ItemsetsAsCoresets converts the in-use entries of a result mined on
// VertexTransactions into the (coresets, positions) form expected by
// invdb.FromGraphWithCoresets — the §IV-F step-1 bridge. Entry tid lists
// are vertex positions because VertexTransactions emits one transaction per
// vertex, and the Krimp cover is disjoint, so every vertex attribute is
// claimed by exactly one coreset.
func ItemsetsAsCoresets(res *Result) (coresets [][]graph.AttrID, positions []intset.Set) {
	return CodeTableAsCoresets(res.CT)
}

// CodeTableAsCoresets converts any code table covering VertexTransactions
// (SLIM's or Krimp's) into the (coresets, positions) form of §IV-F step 1.
func CodeTableAsCoresets(ct *krimp.CodeTable) (coresets [][]graph.AttrID, positions []intset.Set) {
	for _, e := range ct.Entries() {
		items := make([]graph.AttrID, len(e.Items))
		for i, it := range e.Items {
			items[i] = graph.AttrID(it)
		}
		coresets = append(coresets, items)
		positions = append(positions, e.Tids)
	}
	return coresets, positions
}
