package invdb

import "slices"

// SweepMerges evaluates the merges of leafset p with every leafset q ≥ lo
// that shares a coreset with it, appending one MergeEval per partner to dst
// in first-sight order, and returns dst. The refresh after a merge passes
// lo = 0 to price p against all its partners; pricing every co-occurring
// pair once passes lo = p+1 for each p. Every result equals
// EvalMerge(min(p, q), max(p, q)) bit for bit (DESIGN.md
// "Coreset-major refresh sweep"): p's coresets are walked once in ascending
// order, and each coreset's posting list adds its term to the accumulator of
// every partner on it, so each pair still sums its shared coresets in
// ascending order with x = min(p, q). The footprint test and the union
// lookup run once per partner, at first sight; the spell-out terms are
// applied at the end. Partners with disjoint footprints are still reported,
// with the zero evaluation EvalMerge returns for them. The partner skip is
// left out. SweepMerges only reads the DB, so sweeps with distinct scratches
// may run concurrently.
func (db *DB) SweepMerges(dst []MergeEval, p, lo, skip LeafsetID, sc *EvalScratch) []MergeEval {
	ixp := db.leafIndex(p)
	if ixp.size() == 0 {
		return dst
	}
	if n := db.leafsets.Size(); len(sc.acc) < n {
		sc.acc = make([]sweepAcc, n+n/2)
	}
	sc.seenLeaf.Bump()
	order := sc.order[:0]
	for i, e := range ixp.ids {
		lnp := ixp.lines[i]
		bc := &db.byCore[e]
		// Posting lists are sorted ascending, so the partners below lo
		// form a prefix.
		j0 := 0
		if lo > 0 {
			j0, _ = slices.BinarySearch(bc.ids, lo)
		}
		for j := j0; j < len(bc.ids); j++ {
			q := bc.ids[j]
			if q == p || q == skip {
				continue
			}
			a := &sc.acc[q]
			if sc.seenLeaf.Mark(int(q)) {
				ixq := db.byLeaf[q]
				*a = sweepAcc{lines: int32(ixq.size())}
				order = append(order, q)
				// Disjoint footprints mean CoOccurs == 0 (see
				// evalMergeScratch).
				if ixp.fp != nil && !ixp.fp.Intersects(ixq.fp) {
					a.disjoint = true
					continue
				}
				if q < p {
					a.mergeAcc = db.newMergeAcc(q, p, sc)
				} else {
					a.mergeAcc = db.newMergeAcc(p, q, sc)
				}
			} else if a.disjoint {
				continue
			}
			if q < p {
				db.addShared(&a.mergeAcc, e, bc.lines[j], lnp)
			} else {
				db.addShared(&a.mergeAcc, e, lnp, bc.lines[j])
			}
		}
	}
	np := len(ixp.ids)
	for _, q := range order {
		a := &sc.acc[q]
		x, y, nx, ny := p, q, np, int(a.lines)
		if q < p {
			x, y, nx, ny = q, p, int(a.lines), np
		}
		if a.disjoint {
			dst = append(dst, MergeEval{X: x, Y: y})
			continue
		}
		dst = append(dst, db.finishEval(x, y, nx, ny, &a.mergeAcc, sc))
	}
	sc.order = order
	return dst
}

// sweepAcc is one partner's slot in a sweep: its evaluation so far, its line
// count and whether its footprint is disjoint from the swept leafset's.
type sweepAcc struct {
	mergeAcc
	lines    int32
	disjoint bool
}
