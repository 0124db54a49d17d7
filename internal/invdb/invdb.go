// Package invdb implements CSPM's inverted database representation
// (paper §IV-B): a table of lines (leafset SL, coreset Sc, positions), plus
// the mapping table of coreset positions. Mining a-stars reduces to merging
// pairs of leafsets; this package provides exact evaluation of the
// description-length gain of a merge (Eq. 9–15 generalised) and its
// application, maintaining the total DL incrementally.
//
// Gain evaluation is the miner's hot path and is allocation-free in steady
// state: lines are indexed with compact sorted slices (lineIndex), the
// fused intset kernels avoid materialising intersections, and per-call
// buffers live in EvalScratch arenas (see DESIGN.md). Small DBs also give
// every line a bitmap of its positions and price x·log2(x) terms from a
// per-DB table (DESIGN.md "Bitmap position sets and the XLogX table"), and
// skip the exact evaluation of pairs whose leafset footprints are disjoint.
// SweepMerges prices one leafset against all its partners in a single
// coreset-major pass, with the same per-coreset terms as EvalMerge; it is
// the only kernel that prices many pairs at once.
package invdb

import (
	"fmt"
	"math"
	"slices"

	"cspm/internal/graph"
	"cspm/internal/intset"
	"cspm/internal/mdl"
)

// CoresetID identifies a coreset. In single-core-value mode (the paper's
// main setting) CoresetID equals the core AttrID; in multi-value mode
// coresets are itemsets selected by Krimp/SLIM (paper §IV-F).
type CoresetID int32

// Line is one row of the inverted database: the a-star (coreset, leafset)
// together with the set of core-vertex positions it covers. fL = |Pos|.
type Line struct {
	Core CoresetID
	Leaf LeafsetID
	Pos  intset.Set
	bits intset.Bitmap // Pos as a bitmap while the owning DB has one (bmWords > 0)
}

// FL returns the line frequency fL.
func (ln *Line) FL() int { return ln.Pos.Len() }

// DB is the inverted database plus incremental description-length state.
// Mutating methods are not safe for concurrent use; SweepMerges is a pure
// read and may run from many goroutines at once (each with its own
// EvalScratch) as long as no mutation is in flight.
type DB struct {
	st *mdl.StandardTable

	coreContent [][]graph.AttrID // coreset → attribute values
	coreCode    []float64        // Code_c length per coreset (Eq. 5)
	corePos     []intset.Set     // mapping table: vertices where coreset fires
	coreFreq    []int            // f_c: Σ fL over the coreset's lines (Eq. 8 note)

	leafsets *LeafsetTable
	byCore   []lineIndex[LeafsetID]  // coreset → leafset → line
	byLeaf   []*lineIndex[CoresetID] // leafset → coreset → line; nil = no lines (read via leafIndex)
	active   int                     // leafsets that own lines: the non-nil byLeaf slots
	numLines int

	dataDL  float64 // Eq. 8 over current lines
	modelDL float64 // leafset spell-out costs + per-line coreset pointers
	baseDL  float64 // dataDL + modelDL right after construction

	scratch *EvalScratch // serial-eval arena, backs EvalMerge
	// ApplyMerge scratch: snapshot of the merged pair's shared lines, taken
	// before the indexes are mutated, plus the per-coreset intersection
	// buffer (cloned only when the intersection becomes a stored line).
	applyShared []CoresetID
	applyX      []*Line
	applyY      []*Line
	applyInter  intset.Set

	// Dense evaluation state: per-line position bitmaps, per-leafset
	// footprints and the XLogX table. All are owned by the DB and die with
	// it.
	bmWords int             // bitmap width in words; 0 = sorted-slice path
	bmSlab  []uint64        // unused tail of the current bitmap slab
	bmFree  []intset.Bitmap // bitmaps of removed lines and leafsets, reused first
	xlx     []float64       // xlx[n] = mdl.XLogX(float64(n)), n ≤ max f_c at build
}

// maxBitmapUniverse bounds the position universe (largest position id + 1)
// of a DB whose lines carry bitmaps: 1024 ids, 16 words per line. The mid
// archipelago's component shards (at most 500 ids) sit below it; DBLP-sized
// or unsharded graphs sit far above it and keep the sorted-slice kernels.
const maxBitmapUniverse = 1024

// bitmapSlabLines is the minimum number of line bitmaps a slab refill
// carves at once.
const bitmapSlabLines = 64

// StandardTable returns the ST the DB was built with.
func (db *DB) StandardTable() *mdl.StandardTable { return db.st }

// Leafsets returns the interning table for leafsets.
func (db *DB) Leafsets() *LeafsetTable { return db.leafsets }

// NumCoresets reports the number of coresets (including ones without lines).
func (db *DB) NumCoresets() int { return len(db.coreContent) }

// NumActiveLeafsets reports leafsets that still own at least one line.
func (db *DB) NumActiveLeafsets() int { return db.active }

// leafIndex returns leafset ls's line index, or nil if it owns no lines.
// Union interns ids past the end of byLeaf, so every read goes through here.
func (db *DB) leafIndex(ls LeafsetID) *lineIndex[CoresetID] {
	if int(ls) < len(db.byLeaf) {
		return db.byLeaf[ls]
	}
	return nil
}

// CoreValues returns the attribute values of coreset c.
func (db *DB) CoreValues(c CoresetID) []graph.AttrID { return db.coreContent[c] }

// CoreCodeLen returns L(Code_c) for coreset c.
func (db *DB) CoreCodeLen(c CoresetID) float64 { return db.coreCode[c] }

// LeafsetIDsOf returns the leafsets owning lines under coreset c, sorted
// ascending. The slice aliases the index: callers must not modify it and
// must not hold it across a mutation.
func (db *DB) LeafsetIDsOf(c CoresetID) []LeafsetID { return db.byCore[c].ids }

// AppendActiveLeafsets appends the active leafset ids to dst[:0] and
// returns it, reusing dst's capacity. The ids are in ascending order.
func (db *DB) AppendActiveLeafsets(dst []LeafsetID) []LeafsetID {
	dst = dst[:0]
	for ls, ix := range db.byLeaf {
		if ix != nil {
			dst = append(dst, LeafsetID(ls))
		}
	}
	return dst
}

// TotalDL returns L(M) + L(I|M).
func (db *DB) TotalDL() float64 { return db.dataDL + db.modelDL }

// BaselineDL returns the total DL immediately after construction, before any
// merge; compression ratios are measured against it.
func (db *DB) BaselineDL() float64 { return db.baseDL }

// FromGraph builds the single-core-value inverted database of g: one coreset
// per attribute value, one initial line per (core value, leaf value) pair
// with the core-vertex positions where they are adjacent (paper Fig. 2).
func FromGraph(g *graph.Graph) *DB {
	content, positions := singleValueCoresets(g.NumAttrValues(), g.NumVertices(),
		func(v int) []graph.AttrID { return g.Attrs(graph.VertexID(v)) })
	return build(g, g.NumAttrValues(), mdl.NewStandardTable(g), content, positions)
}

// FromGraphWithCoresets builds the multi-value-coreset inverted database:
// coresets[i] fires at positions[i] (typically the Krimp/SLIM cover of the
// vertex-attribute transaction database, paper §IV-F step 1).
func FromGraphWithCoresets(g *graph.Graph, coresets [][]graph.AttrID, positions []intset.Set) (*DB, error) {
	if len(coresets) != len(positions) {
		return nil, fmt.Errorf("invdb: %d coresets but %d position sets", len(coresets), len(positions))
	}
	st := mdl.NewStandardTable(g)
	return build(g, g.NumAttrValues(), st, coresets, positions), nil
}

// neighborhood is the slice of graph state DB construction reads: sorted
// neighbour lists and sorted per-vertex attribute values. *graph.Graph
// satisfies it; FromShardData substitutes a shard job's rows, so a group
// builds its initial lines without the graph.
type neighborhood interface {
	Neighbors(v graph.VertexID) []graph.VertexID
	Attrs(v graph.VertexID) []graph.AttrID
}

// build assembles a DB from coreset contents and their firing positions,
// which are vertex ids of g, whose attribute values lie in [0, nA). For
// every coreset position v and every value l on a neighbour of v, v is a
// position of line (coreset, {l}). Coresets and their positions are taken
// in ascending order, so each value's buffer fills sorted; last[l] (the
// position last appended, +1) drops the repeats of several neighbours
// carrying l. Each coreset then emits its values in ascending order into
// one position slab, interning the leafsets as it goes: leafset ids are
// tie-breakers throughout the miner, so this (coreset, value) order makes
// them a pure function of the graph.
func build(g neighborhood, nA int, st *mdl.StandardTable, content [][]graph.AttrID, positions []intset.Set) *DB {
	db := newDB(st, content, positions)
	bufs, last := make([][]uint32, nA), make([]uint32, nA)
	var touched []graph.AttrID
	var slab []uint32
	var lines []Line
	var ends []int // lines[i]'s positions end at slab[ends[i]]
	for c := range content {
		for _, vv := range db.corePos[c] {
			for _, u := range g.Neighbors(graph.VertexID(vv)) {
				for _, l := range g.Attrs(u) {
					if last[l] == vv+1 {
						continue
					}
					if last[l] == 0 {
						touched = append(touched, l)
					}
					last[l] = vv + 1
					bufs[l] = append(bufs[l], vv)
				}
			}
		}
		slices.Sort(touched)
		for _, l := range touched {
			slab = append(slab, bufs[l]...)
			lines = append(lines, Line{Core: CoresetID(c), Leaf: db.leafsets.Single(l)})
			ends = append(ends, len(slab))
			bufs[l], last[l] = bufs[l][:0], 0
		}
		touched = touched[:0]
	}
	// Every leafset is interned before the first insert, so one slab holds
	// every line bitmap and every leafset footprint.
	db.reserveBitmaps(len(lines) + db.leafsets.Size())
	start := 0
	for i, end := range ends {
		lines[i].Pos = intset.FromSorted(slab[start:end:end])
		db.insertLine(&lines[i])
		start = end
	}
	db.finish()
	return db
}

// newDB allocates an empty DB over a coreset space. Every line's positions
// are a subset of its coreset's, so corePos bounds the position universe,
// and newDB is where the bitmap width is decided for every constructor.
func newDB(st *mdl.StandardTable, content [][]graph.AttrID, corePos []intset.Set) *DB {
	db := &DB{
		st:          st,
		coreContent: content,
		coreCode:    make([]float64, len(content)),
		corePos:     corePos,
		coreFreq:    make([]int, len(content)),
		leafsets:    NewLeafsetTable(),
		byCore:      make([]lineIndex[LeafsetID], len(content)),
		scratch:     NewEvalScratch(),
		bmWords:     bitmapWords(corePos),
	}
	for c := range content {
		db.coreCode[c] = st.SetLen(content[c])
	}
	return db
}

// bitmapWords returns the bitmap width, in 64-bit words, for a DB whose
// positions are drawn from corePos: enough words for its position universe,
// or 0 (the sorted-slice path) when that universe is empty or exceeds
// maxBitmapUniverse.
func bitmapWords(corePos []intset.Set) int {
	universe := 0
	for _, s := range corePos {
		if n := len(s); n > 0 && int(s[n-1]) >= universe {
			universe = int(s[n-1]) + 1
		}
	}
	if universe > maxBitmapUniverse {
		return 0
	}
	return (universe + 63) / 64
}

// finish completes construction once the initial lines are in: it builds
// the XLogX table up to the largest coreset frequency — merges never raise
// one, so every count the DB later prices is covered — and freezes the
// baseline DL.
func (db *DB) finish() {
	maxFreq := 0
	for _, f := range db.coreFreq {
		maxFreq = max(maxFreq, f)
	}
	db.xlx = make([]float64, maxFreq+1)
	for n := range db.xlx {
		db.xlx[n] = mdl.XLogX(float64(n))
	}
	db.dataDL, db.modelDL = db.recomputeDL()
	db.baseDL = db.dataDL + db.modelDL
}

// xlogx returns mdl.XLogX(float64(n)), from the table when n is in it.
func (db *DB) xlogx(n int) float64 {
	if uint(n) < uint(len(db.xlx)) {
		return db.xlx[n]
	}
	return xlogxSlow(n)
}

// xlogxSlow is xlogx's fallback past the table. It stays out of line so
// xlogx itself inlines into the gain arithmetic.
//
//go:noinline
func xlogxSlow(n int) float64 { return mdl.XLogX(float64(n)) }

// reserveBitmaps replaces the bitmap slab with a fresh one for n bitmaps.
// Constructors call it with their initial line and leafset counts, so every
// initial bitmap comes from one allocation.
func (db *DB) reserveBitmaps(n int) {
	if db.bmWords > 0 {
		db.bmSlab = make([]uint64, n*db.bmWords)
	}
}

// newBitmap returns a bitmap for a new line or leafset: a removed one's if
// one is free, otherwise the next bmWords words of the slab, refilled in
// chunks. Its contents are unspecified.
func (db *DB) newBitmap() intset.Bitmap {
	if n := len(db.bmFree); n > 0 {
		b := db.bmFree[n-1]
		db.bmFree = db.bmFree[:n-1]
		return b
	}
	w := db.bmWords
	if len(db.bmSlab) < w {
		db.reserveBitmaps(max(bitmapSlabLines, db.numLines/8))
	}
	b := intset.Bitmap(db.bmSlab[:w:w])
	db.bmSlab = db.bmSlab[w:]
	return b
}

// setPos replaces ln's positions, keeping its bitmap in step.
func (db *DB) setPos(ln *Line, pos intset.Set) {
	ln.Pos = pos
	if ln.bits != nil {
		ln.bits.Load(pos)
	}
}

// insertLine registers a line in both indexes, its leafset's footprint and
// the frequency tally. It does not touch the DL accumulators.
func (db *DB) insertLine(ln *Line) {
	if db.bmWords > 0 {
		ln.bits = db.newBitmap()
		ln.bits.Load(ln.Pos)
	}
	db.byCore[ln.Core].insert(ln.Leaf, ln)
	ix := db.leafIndex(ln.Leaf)
	if ix == nil {
		ix = &lineIndex[CoresetID]{}
		if db.bmWords > 0 {
			ix.fp = db.newBitmap()
			clear(ix.fp)
		}
		if int(ln.Leaf) >= len(db.byLeaf) {
			db.byLeaf = append(db.byLeaf, make([]*lineIndex[CoresetID], db.leafsets.Size()-len(db.byLeaf))...)
		}
		db.byLeaf[ln.Leaf] = ix
		db.active++
	}
	ix.insert(ln.Core, ln)
	if ix.fp != nil {
		ix.fp.Or(ln.bits)
	}
	db.coreFreq[ln.Core] += ln.FL()
	db.numLines++
}

// removeLine unregisters a line from both indexes and frees its bitmap for
// reuse, and its leafset's footprint with the leafset's last line. It leaves
// a surviving footprint stale; ApplyMerge refreshes it. The caller has
// already accounted the line's positions in coreFreq.
func (db *DB) removeLine(ln *Line) {
	if ln.bits != nil {
		db.bmFree = append(db.bmFree, ln.bits)
		ln.bits = nil
	}
	db.byCore[ln.Core].remove(ln.Leaf)
	ix := db.byLeaf[ln.Leaf]
	ix.remove(ln.Core)
	if ix.size() == 0 {
		if ix.fp != nil {
			db.bmFree = append(db.bmFree, ix.fp)
		}
		db.byLeaf[ln.Leaf] = nil
		db.active--
	}
	db.numLines--
}

// refreshFootprint recomputes the footprint of leafset ls from its lines'
// bitmaps. A leafset without lines, or a DB without bitmaps, has none.
func (db *DB) refreshFootprint(ls LeafsetID) {
	ix := db.leafIndex(ls)
	if ix == nil || ix.fp == nil {
		return
	}
	clear(ix.fp)
	for _, ln := range ix.lines {
		ix.fp.Or(ln.bits)
	}
}

// recomputeDL recalculates the data and model description lengths from
// scratch. Used at construction and by tests to validate the incremental
// bookkeeping.
func (db *DB) recomputeDL() (data, model float64) {
	// Accumulate in ascending id order, which the indexes give directly:
	// the float sums must be a pure function of the database content.
	for c := range db.byCore {
		ix := &db.byCore[c]
		data += db.xlogx(db.coreFreq[c])
		for _, ln := range ix.lines {
			model += db.coreCode[c]
			data -= db.xlogx(ln.FL())
		}
	}
	for ls, ix := range db.byLeaf {
		if ix != nil {
			model += db.st.SetLen(db.leafsets.Values(LeafsetID(ls)))
		}
	}
	return data, model
}

// MergeEval is the exact outcome of merging leafset pair (X, Y) without
// applying it. Gain > 0 means the total DL would shrink by Gain bits.
type MergeEval struct {
	X, Y LeafsetID
	// Gain = DataGain + ModelGain; the miner selects on Gain by default and
	// on DataGain alone under the model-cost ablation.
	Gain      float64
	DataGain  float64
	ModelGain float64
	// CoOccurs is the number of coresets under which X and Y overlap; zero
	// means the pair can never compress (paper §V's observation).
	CoOccurs int
}

// EvalMerge computes the exact DL gain of merging leafsets x and y using the
// DB-owned scratch arena (serial callers only; see evalMergeScratch).
func (db *DB) EvalMerge(x, y LeafsetID) MergeEval {
	return db.evalMergeScratch(x, y, db.scratch)
}

// evalMergeScratch computes the exact DL gain of merging leafsets x and y.
// It generalises Eq. 9–15: the three per-coreset merge cases (partly,
// totally, one-side totally merged) fall out of the same position
// arithmetic, and the cases where the union collides with an existing
// leafset (including x ⊆ y or y ⊆ x) are handled by simulating the actual
// line updates.
//
// The method reads the DB but never writes it; all transient state lives in
// sc, so concurrent calls with distinct scratches are safe. It allocates
// nothing once sc's buffers have warmed up, and the result is a pure
// function of (db, x, y) — independent of which scratch is passed.
func (db *DB) evalMergeScratch(x, y LeafsetID, sc *EvalScratch) MergeEval {
	if x == y {
		return MergeEval{X: x, Y: y}
	}
	ixx, ixy := db.leafIndex(x), db.leafIndex(y)
	if ixx.size() == 0 || ixy.size() == 0 {
		return MergeEval{X: x, Y: y}
	}
	// A position x and y share under some coreset lies in both footprints,
	// so disjoint footprints mean CoOccurs == 0, for which evalLines returns
	// exactly this zero evaluation.
	if ixx.fp != nil && !ixx.fp.Intersects(ixy.fp) {
		return MergeEval{X: x, Y: y}
	}
	return db.evalLines(x, y, ixx, ixy, sc)
}

// evalLines is evalMergeScratch's exact evaluation over the shared coresets
// of x ≠ y, whose leafset indexes ixx and ixy are non-empty.
func (db *DB) evalLines(x, y LeafsetID, ixx, ixy *lineIndex[CoresetID], sc *EvalScratch) MergeEval {
	a := db.newMergeAcc(x, y, sc)
	// Walk the shared coresets in ascending order, which keeps the float
	// accumulation (and therefore candidate tie-breaking) reproducible.
	// Balanced index sizes take the linear merge-walk; badly skewed ones (a
	// hub leafset against a small one) gallop over the larger sorted id
	// slice instead, preserving the old small-side asymptotics.
	xids, yids := ixx.ids, ixy.ids
	if len(yids) > indexGallopRatio*len(xids) || len(xids) > indexGallopRatio*len(yids) {
		small, big := ixx, ixy
		swapped := false
		if len(yids) < len(xids) {
			small, big = ixy, ixx
			swapped = true
		}
		lo := 0
		for si, e := range small.ids {
			lo = intset.Seek(big.ids, e, lo)
			if lo >= len(big.ids) {
				break
			}
			if big.ids[lo] != e {
				continue
			}
			if swapped {
				db.addShared(&a, e, big.lines[lo], small.lines[si])
			} else {
				db.addShared(&a, e, small.lines[si], big.lines[lo])
			}
			lo++
			if lo >= len(big.ids) {
				break
			}
		}
	} else {
		i, j := 0, 0
		for i < len(xids) && j < len(yids) {
			switch {
			case xids[i] < yids[j]:
				i++
			case xids[i] > yids[j]:
				j++
			default:
				db.addShared(&a, xids[i], ixx.lines[i], ixy.lines[j])
				i++
				j++
			}
		}
	}
	return db.finishEval(x, y, len(xids), len(yids), &a, sc)
}

// mergeAcc is the running state of one pair's evaluation: the union
// leafset's lookup, fixed before the first coreset, and the sums addShared
// accumulates over the shared coresets.
type mergeAcc struct {
	z                   LeafsetID // interned id of content(x) ∪ content(y), unless zNew
	zKind               unionKind
	dataGain, modelGain float64
	// Lines of x and y the merge would empty, z-lines it would create, and
	// shared coresets with a shared position.
	removedX, removedY, zLinesAdded, coOccurs int32
}

// unionKind says what the union z of a pair (x, y) is.
type unionKind uint8

const (
	zNew   unionKind = iota // not interned yet
	zIsX                    // x itself: y ⊂ x
	zIsY                    // y itself: x ⊂ y
	zOther                  // interned, distinct from x and y
)

// newMergeAcc starts the evaluation of the pair (x, y) by looking up its
// union leafset.
func (db *DB) newMergeAcc(x, y LeafsetID, sc *EvalScratch) mergeAcc {
	z, ok := db.lookupUnion(x, y, sc)
	a := mergeAcc{z: z, zKind: zOther}
	switch {
	case !ok:
		a.zKind = zNew
	case z == x:
		a.zKind = zIsX
	case z == y:
		a.zKind = zIsY
	}
	return a
}

// addShared accounts one shared coreset e of the pair (lnx.Leaf, lny.Leaf)
// into a. Callers invoke it in ascending coreset order, keeping float
// accumulation (and therefore candidate tie-breaking) reproducible across
// runs and across evaluators.
func (db *DB) addShared(a *mergeAcc, e CoresetID, lnx, lny *Line) {
	var lnz *Line
	if a.zKind == zOther {
		lnz = db.byCore[e].get(a.z)
	}
	// Fused kernels: |x∩y|, plus |(x∩y)\z| when a z-line exists, in one
	// unmaterialised pass over the bitmaps or the sorted slices.
	dense := db.bmWords > 0
	var xye, zDiff int
	switch {
	case lnz != nil && dense:
		xye, zDiff = lnx.bits.AndAndNotCount(lny.bits, lnz.bits)
	case lnz != nil:
		xye, zDiff = intset.IntersectCountAndDiffCount(lnx.Pos, lny.Pos, lnz.Pos)
	case dense:
		xye = lnx.bits.AndCount(lny.bits)
	default:
		xye = lnx.Pos.IntersectCount(lny.Pos)
	}
	if xye == 0 {
		return
	}
	a.coOccurs++
	xe, ye := lnx.FL(), lny.FL()
	fe := db.coreFreq[e]

	// Every count is an integer, so the table terms equal mdl.XLogX's.
	var oldTerms, newTerms float64
	var feAfter int
	var removed, added int
	switch a.zKind {
	case zIsY:
		// x ⊂ y: the union is y itself; only the x-line sheds overlap.
		oldTerms = db.xlogx(xe) + db.xlogx(ye)
		newTerms = db.xlogx(xe-xye) + db.xlogx(ye)
		feAfter = fe - xye
		if xe == xye {
			removed++
			a.removedX++
		}
	case zIsX:
		// y ⊂ x: symmetric.
		oldTerms = db.xlogx(xe) + db.xlogx(ye)
		newTerms = db.xlogx(xe) + db.xlogx(ye-xye)
		feAfter = fe - xye
		if ye == xye {
			removed++
			a.removedY++
		}
	default:
		zeBefore, zeAfter := 0, xye
		if lnz != nil {
			zeBefore = lnz.FL()
			zeAfter = zeBefore + zDiff
		}
		oldTerms = db.xlogx(xe) + db.xlogx(ye) + db.xlogx(zeBefore)
		newTerms = db.xlogx(xe-xye) + db.xlogx(ye-xye) + db.xlogx(zeAfter)
		feAfter = fe - 2*xye + (zeAfter - zeBefore)
		if xe == xye {
			removed++
			a.removedX++
		}
		if ye == xye {
			removed++
			a.removedY++
		}
		if zeBefore == 0 {
			added++
			a.zLinesAdded++
		}
	}
	a.dataGain += (db.xlogx(fe) - db.xlogx(feAfter)) + (newTerms - oldTerms)
	a.modelGain += float64(removed-added) * db.coreCode[e]
}

// finishEval turns the coreset sums of x ≠ y, whose indexes hold nx and ny
// lines, into the MergeEval: it applies the leafset spell-out terms —
// credit x or y if it loses its last line, charge z if it gains its first.
func (db *DB) finishEval(x, y LeafsetID, nx, ny int, a *mergeAcc, sc *EvalScratch) MergeEval {
	ev := MergeEval{X: x, Y: y, CoOccurs: int(a.coOccurs)}
	if a.coOccurs == 0 {
		return ev
	}
	modelGain := a.modelGain
	if int(a.removedX) == nx && a.zKind != zIsX {
		modelGain += db.st.SetLen(db.leafsets.Values(x))
	}
	if int(a.removedY) == ny && a.zKind != zIsY {
		modelGain += db.st.SetLen(db.leafsets.Values(y))
	}
	if a.zLinesAdded > 0 && (a.zKind == zNew || (a.zKind == zOther && db.leafIndex(a.z).size() == 0)) {
		modelGain -= db.unionSpellLen(x, y, sc)
	}
	ev.DataGain = a.dataGain
	ev.ModelGain = modelGain
	ev.Gain = a.dataGain + modelGain
	if math.IsNaN(ev.Gain) {
		ev.Gain = math.Inf(-1)
	}
	return ev
}

// lookupUnion finds the interned id of content(x) ∪ content(y) without
// interning it, using sc's union and key buffers to stay allocation-free.
func (db *DB) lookupUnion(x, y LeafsetID, sc *EvalScratch) (LeafsetID, bool) {
	sc.unionBuf = appendUnion(sc.unionBuf[:0], db.leafsets.Values(x), db.leafsets.Values(y))
	return db.leafsets.lookup(sc.unionBuf, &sc.keyBuf)
}

// unionSpellLen sums the ST lengths of the distinct values of x ∪ y, using
// sc's epoch-stamped attribute set instead of a per-call dedup map.
func (db *DB) unionSpellLen(x, y LeafsetID, sc *EvalScratch) float64 {
	sc.seenAttr.Bump()
	sum := 0.0
	for _, a := range db.leafsets.Values(x) {
		if sc.seenAttr.Mark(int(a)) {
			sum += db.st.Len(a)
		}
	}
	for _, a := range db.leafsets.Values(y) {
		if sc.seenAttr.Mark(int(a)) {
			sum += db.st.Len(a)
		}
	}
	return sum
}

// MergeResult reports what a committed merge did, feeding CSPM-Partial's
// rdict update (Algorithm 4).
type MergeResult struct {
	X, Y   LeafsetID
	New    LeafsetID   // the union leafset
	Gain   float64     // actual DL reduction in bits
	Total  []LeafsetID // members of {X, Y} whose lines all disappeared
	Part   []LeafsetID // members of {X, Y} that kept some lines
	Shared []CoresetID // coresets where the overlap was positive
}

// ApplyMerge commits the merge of leafsets x and y, updating lines, indexes,
// frequencies and the DL accumulators. It returns the realised result; if
// the pair no longer overlaps anywhere, it is a no-op with Gain 0.
func (db *DB) ApplyMerge(x, y LeafsetID) MergeResult {
	res := MergeResult{X: x, Y: y}
	if x == y {
		return res
	}
	ixx := db.leafIndex(x)
	ixy := db.leafIndex(y)
	if ixx.size() == 0 || ixy.size() == 0 {
		return res
	}
	// Snapshot the shared coresets and their line pointers first: the merge
	// mutates the indexes while it walks them. The snapshot buffers are
	// DB-owned scratch (ApplyMerge is sequential by contract).
	shared := db.applyShared[:0]
	linesX := db.applyX[:0]
	linesY := db.applyY[:0]
	xids, yids := ixx.ids, ixy.ids
	for i, j := 0, 0; i < len(xids) && j < len(yids); {
		switch {
		case xids[i] < yids[j]:
			i++
		case xids[i] > yids[j]:
			j++
		default:
			shared = append(shared, xids[i])
			linesX = append(linesX, ixx.lines[i])
			linesY = append(linesY, ixy.lines[j])
			i++
			j++
		}
	}
	db.applyShared, db.applyX, db.applyY = shared, linesX, linesY
	if len(shared) == 0 {
		return res
	}

	dlBeforeData, dlBeforeModel := db.dataDL, db.modelDL
	z := db.leafsets.Union(x, y)
	res.New = z
	zHadLines := db.leafIndex(z).size() > 0

	for si, e := range shared {
		lnx := linesX[si]
		lny := linesY[si]
		inter := lnx.Pos.IntersectInto(lny.Pos, db.applyInter)
		db.applyInter = inter
		xye := inter.Len()
		if xye == 0 {
			continue
		}
		res.Shared = append(res.Shared, e)
		dataDelta := -db.xlogx(db.coreFreq[e])
		modelDelta := 0.0

		update := func(ln *Line, newPos intset.Set) {
			db.coreFreq[e] += newPos.Len() - ln.FL()
			dataDelta += db.xlogx(ln.FL()) - db.xlogx(newPos.Len())
			db.setPos(ln, newPos)
			if ln.FL() == 0 {
				db.removeLine(ln)
				modelDelta += db.coreCode[e]
			}
		}

		switch z {
		case y: // x ⊂ y: only the x-line sheds the overlap
			update(lnx, lnx.Pos.Diff(inter))
		case x: // y ⊂ x
			update(lny, lny.Pos.Diff(inter))
		default:
			update(lnx, lnx.Pos.Diff(inter))
			update(lny, lny.Pos.Diff(inter))
			if lnz := db.byCore[e].get(z); lnz != nil {
				newPos := lnz.Pos.Union(inter)
				db.coreFreq[e] += newPos.Len() - lnz.FL()
				dataDelta += db.xlogx(lnz.FL()) - db.xlogx(newPos.Len())
				db.setPos(lnz, newPos)
			} else {
				db.insertLine(&Line{Core: e, Leaf: z, Pos: inter.Clone()})
				dataDelta -= db.xlogx(xye)
				modelDelta -= db.coreCode[e]
			}
		}
		dataDelta += db.xlogx(db.coreFreq[e])
		db.dataDL += dataDelta
		db.modelDL -= modelDelta // modelDelta accumulated as gain; DL moves opposite
	}
	if len(res.Shared) == 0 {
		return res
	}
	// Leafset spell-out adjustments.
	if db.leafIndex(x).size() == 0 && z != x {
		db.modelDL -= db.st.SetLen(db.leafsets.Values(x))
		res.Total = append(res.Total, x)
	} else {
		res.Part = append(res.Part, x)
	}
	if db.leafIndex(y).size() == 0 && z != y {
		db.modelDL -= db.st.SetLen(db.leafsets.Values(y))
		res.Total = append(res.Total, y)
	} else {
		res.Part = append(res.Part, y)
	}
	if !zHadLines && db.leafIndex(z).size() > 0 && z != x && z != y {
		db.modelDL += db.st.SetLen(db.leafsets.Values(z))
	}
	db.refreshFootprint(x)
	db.refreshFootprint(y)
	db.refreshFootprint(z)
	res.Gain = (dlBeforeData + dlBeforeModel) - (db.dataDL + db.modelDL)
	return res
}
