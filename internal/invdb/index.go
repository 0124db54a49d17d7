package invdb

import (
	"sort"

	"cspm/internal/intset"
)

// lineIndex is one side of the inverted-database line index: a map for
// random access plus a sorted id slice with parallel line pointers, so the
// hot paths (EvalMerge's shared-coreset walk, the miner's co-occurring-pair
// enumeration) iterate in deterministic ascending order without allocating
// or sorting per call. Insert/remove shift the slices in O(n), which is
// cheap because index mutations happen only on committed merges while
// ordered reads happen on every gain evaluation.
//
// Invariants (checked by the invdb tests): ids is strictly ascending,
// len(ids) == len(lines) == len(m), and m[ids[i]] == lines[i] for all i.
// A leafset's index in a DB with bitmaps also keeps the leafset's footprint,
// fp = the OR of its lines' bitmaps (DESIGN.md "Leafset footprints"); fp is
// nil in coreset indexes and on the sorted-slice path.
type lineIndex[K ~int32] struct {
	m     map[K]*Line
	ids   []K
	lines []*Line
	fp    intset.Bitmap
}

// get returns the line keyed by k, or nil.
func (ix *lineIndex[K]) get(k K) *Line {
	if ix == nil {
		return nil
	}
	return ix.m[k]
}

// size reports the number of lines in the index.
func (ix *lineIndex[K]) size() int {
	if ix == nil {
		return 0
	}
	return len(ix.ids)
}

func (ix *lineIndex[K]) insert(k K, ln *Line) {
	if ix.m == nil {
		ix.m = make(map[K]*Line)
	}
	ix.m[k] = ln
	i := sort.Search(len(ix.ids), func(i int) bool { return ix.ids[i] >= k })
	ix.ids = append(ix.ids, 0)
	ix.lines = append(ix.lines, nil)
	copy(ix.ids[i+1:], ix.ids[i:])
	copy(ix.lines[i+1:], ix.lines[i:])
	ix.ids[i] = k
	ix.lines[i] = ln
}

// indexGallopRatio is the size skew at which the shared-coreset walk of
// evalMergeScratch switches from the linear merge to galloping over the
// larger index via intset.Seek (mirrors intset's gallopRatio).
const indexGallopRatio = 16

func (ix *lineIndex[K]) remove(k K) {
	delete(ix.m, k)
	i := sort.Search(len(ix.ids), func(i int) bool { return ix.ids[i] >= k })
	if i < len(ix.ids) && ix.ids[i] == k {
		ix.ids = append(ix.ids[:i], ix.ids[i+1:]...)
		ix.lines = append(ix.lines[:i], ix.lines[i+1:]...)
	}
}
