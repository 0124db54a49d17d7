// Package krimp implements the Krimp compression framework for transaction
// databases (Vreeken et al., paper [20]): a code table of itemsets, the
// standard cover function, and MDL scoring. CSPM uses it in two roles: as
// the §IV-F step-1 miner of multi-value coresets, and as the foundation the
// SLIM baseline builds on.
package krimp

import (
	"fmt"
	"math"
	"sort"

	"cspm/internal/fim"
	"cspm/internal/graph"
	"cspm/internal/intset"
	"cspm/internal/mdl"
)

// Entry is a code-table row: an itemset with its current cover usage and the
// transactions it covers.
type Entry struct {
	Items   []fim.Item // sorted
	Support int        // occurrence count in the database (cover-independent)
	Usage   int        // times used by the current cover
	Tids    intset.Set // transactions where the entry is used
}

// CodeLen returns the entry's Shannon code length under total cover usage.
func (e *Entry) CodeLen(totalUsage int) float64 {
	if e.Usage == 0 || totalUsage == 0 {
		return math.Inf(1)
	}
	return -math.Log2(float64(e.Usage) / float64(totalUsage))
}

// CodeTable is a Krimp code table over a fixed database. Singletons are
// always present, so every transaction stays coverable (lossless coding).
type CodeTable struct {
	db         *fim.DB
	stLen      []float64 // standard code per item
	entries    []*Entry  // all entries in standard cover order
	totalUsage int

	// Scratch state for CoverTx: mark[i] == markGen means item i is still
	// uncovered in the transaction being covered. Avoids a map allocation
	// per (transaction, recover) pair — Recover runs once per candidate try
	// in SLIM, so this is the miner's hottest loop.
	mark    []uint32
	markGen uint32
}

// NewCodeTable builds the singleton-only code table (Krimp's ST baseline)
// and covers the database with it.
func NewCodeTable(db *fim.DB) *CodeTable {
	freqs := db.ItemFreqs()
	st := mdl.NewStandardTableFromFreqs(freqs)
	ct := &CodeTable{db: db, stLen: make([]float64, db.NumItems), mark: make([]uint32, db.NumItems)}
	for i := range ct.stLen {
		ct.stLen[i] = st.Len(graph.AttrID(i))
	}
	for i := 0; i < db.NumItems; i++ {
		if freqs[i] == 0 {
			continue
		}
		ct.entries = append(ct.entries, &Entry{Items: []fim.Item{fim.Item(i)}, Support: freqs[i]})
	}
	ct.sortEntries()
	ct.Recover()
	return ct
}

// sortEntries restores the standard cover order: longer itemsets first, then
// higher support, then lexicographic items (Krimp's canonical order).
func (ct *CodeTable) sortEntries() {
	sort.SliceStable(ct.entries, func(i, j int) bool {
		a, b := ct.entries[i], ct.entries[j]
		if len(a.Items) != len(b.Items) {
			return len(a.Items) > len(b.Items)
		}
		if a.Support != b.Support {
			return a.Support > b.Support
		}
		return lessItems(a.Items, b.Items)
	})
}

func lessItems(a, b []fim.Item) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// support counts the transactions containing all items of set.
func (ct *CodeTable) support(set []fim.Item) int {
	n := 0
	for _, tx := range ct.db.Txs {
		if fim.Contains(tx, set) {
			n++
		}
	}
	return n
}

// CoverTx covers one transaction with the current table, returning the
// entries used, in cover order. The cover is greedy and disjoint: the first
// entry (in standard cover order) fully contained in the uncovered remainder
// is taken.
func (ct *CodeTable) CoverTx(tx fim.Transaction) []*Entry {
	ct.markGen++
	gen := ct.markGen
	for _, it := range tx {
		ct.mark[it] = gen
	}
	remaining := len(tx)
	var used []*Entry
	for _, e := range ct.entries {
		if remaining == 0 {
			break
		}
		if len(e.Items) > remaining {
			continue
		}
		ok := true
		for _, it := range e.Items {
			if ct.mark[it] != gen {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		used = append(used, e)
		for _, it := range e.Items {
			ct.mark[it] = gen - 1 // covered
		}
		remaining -= len(e.Items)
	}
	if remaining != 0 {
		// Unreachable while singletons stay in the table.
		panic(fmt.Sprintf("krimp: transaction %v not coverable", tx))
	}
	return used
}

// Recover recomputes usages and tid lists by covering the whole database.
func (ct *CodeTable) Recover() {
	for _, e := range ct.entries {
		e.Usage = 0
		e.Tids = nil
	}
	ct.totalUsage = 0
	tidBuf := make(map[*Entry][]uint32)
	for t, tx := range ct.db.Txs {
		for _, e := range ct.CoverTx(tx) {
			e.Usage++
			ct.totalUsage++
			tidBuf[e] = append(tidBuf[e], uint32(t))
		}
	}
	for e, tids := range tidBuf {
		e.Tids = intset.FromSorted(tids)
	}
}

// DataDL returns L(D|CT): the cost of the database coded with the table.
func (ct *CodeTable) DataDL() float64 {
	sum := 0.0
	for _, e := range ct.entries {
		if e.Usage > 0 {
			sum += float64(e.Usage) * e.CodeLen(ct.totalUsage)
		}
	}
	return sum
}

// ModelDL returns L(CT|D): every in-use entry pays its standard spell-out
// plus its own code.
func (ct *CodeTable) ModelDL() float64 {
	sum := 0.0
	for _, e := range ct.entries {
		if e.Usage == 0 {
			continue
		}
		for _, it := range e.Items {
			sum += ct.stLen[it]
		}
		sum += e.CodeLen(ct.totalUsage)
	}
	return sum
}

// TotalDL returns L(CT, D) = L(CT|D) + L(D|CT).
func (ct *CodeTable) TotalDL() float64 { return ct.DataDL() + ct.ModelDL() }

// TryItemset adds the itemset and re-covers, returning the new entry and a
// rollback that restores the previous table and cover without another
// re-cover. The rollback must be called at most once, and only while no
// other mutation has happened in between. Adding an itemset that is already
// present returns (entry, nil).
func (ct *CodeTable) TryItemset(items []fim.Item) (*Entry, func()) {
	sorted := append([]fim.Item(nil), items...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	if e := ct.find(sorted); e != nil {
		return e, nil
	}
	type state struct {
		e     *Entry
		usage int
		tids  intset.Set
	}
	prev := make([]state, len(ct.entries))
	for i, e := range ct.entries {
		prev[i] = state{e, e.Usage, e.Tids}
	}
	prevTotal := ct.totalUsage
	e := &Entry{Items: sorted, Support: ct.support(sorted)}
	ct.entries = append(ct.entries, e)
	ct.sortEntries()
	ct.Recover()
	rollback := func() {
		for i, x := range ct.entries {
			if x == e {
				ct.entries = append(ct.entries[:i], ct.entries[i+1:]...)
				break
			}
		}
		for _, st := range prev {
			st.e.Usage = st.usage
			st.e.Tids = st.tids
		}
		ct.totalUsage = prevTotal
	}
	return e, rollback
}

func (ct *CodeTable) find(items []fim.Item) *Entry {
	for _, e := range ct.entries {
		if len(e.Items) != len(items) {
			continue
		}
		same := true
		for i := range items {
			if e.Items[i] != items[i] {
				same = false
				break
			}
		}
		if same {
			return e
		}
	}
	return nil
}

// Has reports whether the itemset (sorted) is already in the table.
func (ct *CodeTable) Has(items []fim.Item) bool { return ct.find(items) != nil }

// Entries returns the in-use entries in standard cover order.
func (ct *CodeTable) Entries() []*Entry {
	out := make([]*Entry, 0, len(ct.entries))
	for _, e := range ct.entries {
		if e.Usage > 0 {
			out = append(out, e)
		}
	}
	return out
}

// NonSingletons returns the in-use entries with at least two items.
func (ct *CodeTable) NonSingletons() []*Entry {
	out := make([]*Entry, 0)
	for _, e := range ct.entries {
		if e.Usage > 0 && len(e.Items) >= 2 {
			out = append(out, e)
		}
	}
	return out
}

// TotalUsage reports the number of codes emitted by the current cover.
func (ct *CodeTable) TotalUsage() int { return ct.totalUsage }

// Decode verifies losslessness: re-expanding every transaction's cover must
// reproduce the transaction exactly. Returns an error on the first mismatch.
func (ct *CodeTable) Decode() error {
	for t, tx := range ct.db.Txs {
		var items []fim.Item
		for _, e := range ct.CoverTx(tx) {
			items = append(items, e.Items...)
		}
		sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })
		if len(items) != len(tx) {
			return fmt.Errorf("krimp: tx %d decodes to %d items, want %d", t, len(items), len(tx))
		}
		for i := range items {
			if items[i] != tx[i] {
				return fmt.Errorf("krimp: tx %d decodes wrongly at position %d", t, i)
			}
		}
	}
	return nil
}
