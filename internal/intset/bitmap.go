package intset

import "math/bits"

// Bitmap is a fixed-width bitset over [0, 64·len(b)): bit v of word v/64 is
// set iff v is in the set. It is the dense counterpart of Set for small
// position universes, the bitmap container of Roaring (Chambi, Lemire, Kaser
// and Godin, "Better bitmap performance with Roaring bitmaps", 2016): when
// every id fits in a few words, intersection counts become AND + popcount
// over a fixed number of words, with no branches on the data. The counting
// kernels agree exactly with their Set counterparts (FuzzBitmapCount).
//
// Operands of a binary kernel must have the same width.
type Bitmap []uint64

// Load overwrites b with the elements of s. Every element must be below
// 64·len(b).
func (b Bitmap) Load(s Set) {
	clear(b)
	for _, v := range s {
		b[v>>6] |= 1 << (v & 63)
	}
}

// AndCount returns |b ∩ c|, the bitmap form of Set.IntersectCount.
func (b Bitmap) AndCount(c Bitmap) int {
	c = c[:len(b)]
	n := 0
	for i, w := range b {
		n += bits.OnesCount64(w & c[i])
	}
	return n
}

// AndAndNotCount returns n = |b ∩ c| and d = |(b ∩ c) \ z| in one pass, the
// bitmap form of IntersectCountAndDiffCount.
func (b Bitmap) AndAndNotCount(c, z Bitmap) (n, d int) {
	c = c[:len(b)]
	z = z[:len(b)]
	for i, w := range b {
		and := w & c[i]
		n += bits.OnesCount64(and)
		d += bits.OnesCount64(and &^ z[i])
	}
	return n, d
}

// Or sets b to b ∪ c.
func (b Bitmap) Or(c Bitmap) {
	c = c[:len(b)]
	for i, w := range c {
		b[i] |= w
	}
}

// Intersects reports whether b ∩ c is non-empty, the early-exit form of
// AndCount(c) > 0: it stops at the first word the two share.
func (b Bitmap) Intersects(c Bitmap) bool {
	c = c[:len(b)]
	for i, w := range b {
		if w&c[i] != 0 {
			return true
		}
	}
	return false
}
