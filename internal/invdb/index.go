package invdb

import (
	"slices"

	"cspm/internal/intset"
)

// lineIndex is one side of the inverted-database line index: a sorted id
// slice with parallel line pointers, so the hot paths (EvalMerge's
// shared-coreset walk, the miner's co-occurring-pair enumeration) iterate in
// deterministic ascending order without allocating or sorting per call, and
// random access is a binary search over the same ids. Insert/remove shift
// the slices in O(n), which is cheap because index mutations happen only on
// committed merges while ordered reads happen on every gain evaluation.
//
// Invariants (checked by the invdb tests): ids is strictly ascending,
// len(ids) == len(lines), and lines[i] is the line keyed by ids[i]. A
// leafset's index in a DB with bitmaps also keeps the leafset's footprint,
// fp = the OR of its lines' bitmaps (DESIGN.md "Leafset footprints"); fp is
// nil in coreset indexes and on the sorted-slice path.
type lineIndex[K ~int32] struct {
	ids   []K
	lines []*Line
	fp    intset.Bitmap
}

// get returns the line keyed by k, or nil.
func (ix *lineIndex[K]) get(k K) *Line {
	if i, ok := slices.BinarySearch(ix.ids, k); ok {
		return ix.lines[i]
	}
	return nil
}

// size reports the number of lines in the index.
func (ix *lineIndex[K]) size() int {
	if ix == nil {
		return 0
	}
	return len(ix.ids)
}

func (ix *lineIndex[K]) insert(k K, ln *Line) {
	i, _ := slices.BinarySearch(ix.ids, k)
	ix.ids = slices.Insert(ix.ids, i, k)
	ix.lines = slices.Insert(ix.lines, i, ln)
}

// indexGallopRatio is the size skew at which the shared-coreset walk of
// evalMergeScratch switches from the linear merge to galloping over the
// larger index via intset.Seek (mirrors intset's gallopRatio).
const indexGallopRatio = 16

func (ix *lineIndex[K]) remove(k K) {
	if i, ok := slices.BinarySearch(ix.ids, k); ok {
		ix.ids = slices.Delete(ix.ids, i, i+1)
		ix.lines = slices.Delete(ix.lines, i, i+1)
	}
}
