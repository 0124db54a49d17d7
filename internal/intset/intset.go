// Package intset provides sorted, duplicate-free sets of uint32 identifiers.
//
// CSPM stores the positions (vertex identifiers) of every inverted-database
// line as an intset. The merge step of the miner is dominated by position-set
// intersections, so a set has two representations. Set, the canonical one, is
// a sorted slice: intersection and difference run as linear or galloping
// merges with no allocation beyond the result, and the iteration order is
// deterministic, which keeps mining runs reproducible. Bitmap is a dense
// fixed-width mirror for small id universes, on which the counting kernels
// reduce to AND + popcount; it only ever answers counts, always the same
// counts as the Set kernels.
package intset

import (
	"cmp"
	"sort"
)

// Set is a sorted slice of distinct uint32 values. The zero value is an empty
// set ready to use. All operations treat the receiver as immutable unless
// documented otherwise.
type Set []uint32

// New builds a Set from arbitrary values, sorting and de-duplicating them.
func New(vals ...uint32) Set {
	if len(vals) == 0 {
		return nil
	}
	s := make(Set, len(vals))
	copy(s, vals)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	out := s[:1]
	for _, v := range s[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}

// FromSorted wraps an already sorted, duplicate-free slice without copying.
// The caller must not mutate vals afterwards.
func FromSorted(vals []uint32) Set { return Set(vals) }

// Len reports the number of elements.
func (s Set) Len() int { return len(s) }

// Clone returns an independent copy of the set.
func (s Set) Clone() Set {
	if len(s) == 0 {
		return nil
	}
	out := make(Set, len(s))
	copy(out, s)
	return out
}

// Equal reports whether s and t contain the same elements.
func (s Set) Equal(t Set) bool {
	if len(s) != len(t) {
		return false
	}
	for i, v := range s {
		if t[i] != v {
			return false
		}
	}
	return true
}

// gallopRatio is the size skew at which intersection switches from the
// linear merge to galloping search over the larger operand. CSPM's gain
// evaluation intersects a pattern's (often short) position list with big
// coreset-frequency lines, where galloping wins by an order of magnitude.
const gallopRatio = 16

// Intersect returns the elements present in both s and t.
func (s Set) Intersect(t Set) Set {
	if len(s) == 0 || len(t) == 0 {
		return nil
	}
	if len(t) > gallopRatio*len(s) {
		return gallopIntersect(s, t)
	}
	if len(s) > gallopRatio*len(t) {
		return gallopIntersect(t, s)
	}
	var out Set
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		a, b := s[i], t[j]
		switch {
		case a < b:
			i++
		case a > b:
			j++
		default:
			out = append(out, a)
			i++
			j++
		}
	}
	return out
}

// Seek returns the smallest index i >= lo with s[i] >= v (len(s) if none):
// an exponential probe from lo narrows the range, a binary search finishes.
// Successive seeks with ascending v and the returned lo give galloping
// traversal, O(|probes|·log(gap)). Exported generically so every gallop
// cursor in the system (position sets here, the inverted database's sorted
// id slices) shares the one implementation.
func Seek[E cmp.Ordered](s []E, v E, lo int) int {
	step := 1
	hi := lo
	for hi < len(s) && s[hi] < v {
		hi = lo + step
		step <<= 1
	}
	if hi > len(s) {
		hi = len(s)
	}
	a, b := lo, hi
	for a < b {
		mid := int(uint(a+b) >> 1)
		if s[mid] < v {
			a = mid + 1
		} else {
			b = mid
		}
	}
	return a
}

func seek(s Set, v uint32, lo int) int { return Seek(s, v, lo) }

// gallopIntersect intersects small into big using exponential + binary
// search, O(|small|·log(|big|/|small|)).
func gallopIntersect(small, big Set) Set {
	var out Set
	lo := 0
	for _, v := range small {
		lo = seek(big, v, lo)
		if lo >= len(big) {
			break
		}
		if big[lo] == v {
			out = append(out, v)
			lo++
			if lo >= len(big) {
				break
			}
		}
	}
	return out
}

// IntersectCount returns |s ∩ t| without materialising the intersection.
func (s Set) IntersectCount(t Set) int {
	if len(s) == 0 || len(t) == 0 {
		return 0
	}
	if len(t) > gallopRatio*len(s) {
		return gallopCount(s, t)
	}
	if len(s) > gallopRatio*len(t) {
		return gallopCount(t, s)
	}
	n := 0
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		a, b := s[i], t[j]
		switch {
		case a < b:
			i++
		case a > b:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

func gallopCount(small, big Set) int {
	n := 0
	lo := 0
	for _, v := range small {
		lo = seek(big, v, lo)
		if lo >= len(big) {
			break
		}
		if big[lo] == v {
			n++
			lo++
			if lo >= len(big) {
				break
			}
		}
	}
	return n
}

// Diff returns the elements of s not present in t.
func (s Set) Diff(t Set) Set {
	if len(s) == 0 {
		return nil
	}
	if len(t) == 0 {
		return s.Clone()
	}
	var out Set
	i, j := 0, 0
	for i < len(s) {
		if j >= len(t) || s[i] < t[j] {
			out = append(out, s[i])
			i++
		} else if s[i] > t[j] {
			j++
		} else {
			i++
			j++
		}
	}
	return out
}

// Union returns the elements present in either set.
func (s Set) Union(t Set) Set {
	if len(s) == 0 {
		return t.Clone()
	}
	if len(t) == 0 {
		return s.Clone()
	}
	out := make(Set, 0, len(s)+len(t))
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		a, b := s[i], t[j]
		switch {
		case a < b:
			out = append(out, a)
			i++
		case a > b:
			out = append(out, b)
			j++
		default:
			out = append(out, a)
			i++
			j++
		}
	}
	out = append(out, s[i:]...)
	out = append(out, t[j:]...)
	return out
}
