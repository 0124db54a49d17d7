package intset

// Fused counting kernels and scratch-buffer variants for the merge-gain hot
// path. EvalMerge must never allocate in steady state (DESIGN.md "scratch
// arenas"), so every operation here either returns plain counts or writes
// into a caller-owned buffer. All kernels agree element-for-element with the
// naive linear merges (see kernels_test.go's differential tests); the
// galloping variants only change the traversal, never the result.

// IntersectCountAndDiffCount returns n = |x ∩ y| and d = |(x ∩ y) \ z| in a
// single pass with no materialisation. It fuses the IntersectCount +
// Intersect + Diff sequence of the three-line merge case (Eq. 9's x, y and
// union-collision z line): the elements of x ∩ y are produced in ascending
// order, so membership in z is resolved with one forward-galloping cursor.
func IntersectCountAndDiffCount(x, y, z Set) (n, d int) {
	if len(x) > len(y) {
		x, y = y, x
	}
	if len(x) == 0 {
		return 0, 0
	}
	zi := 0
	if len(y) > gallopRatio*len(x) {
		lo := 0
		for _, v := range x {
			lo = seek(y, v, lo)
			if lo >= len(y) {
				break
			}
			if y[lo] == v {
				n++
				zi = seek(z, v, zi)
				if zi >= len(z) || z[zi] != v {
					d++
				}
				lo++
				if lo >= len(y) {
					break
				}
			}
		}
		return n, d
	}
	i, j := 0, 0
	for i < len(x) && j < len(y) {
		a, b := x[i], y[j]
		switch {
		case a < b:
			i++
		case a > b:
			j++
		default:
			n++
			zi = seek(z, a, zi)
			if zi >= len(z) || z[zi] != a {
				d++
			}
			i++
			j++
		}
	}
	return n, d
}

// IntersectInto writes s ∩ t into dst[:0] and returns the result, reusing
// dst's capacity. The caller owns dst; s and t are read only.
func (s Set) IntersectInto(t Set, dst Set) Set {
	dst = dst[:0]
	if len(s) == 0 || len(t) == 0 {
		return dst
	}
	if len(t) > gallopRatio*len(s) {
		return gallopIntersectInto(s, t, dst)
	}
	if len(s) > gallopRatio*len(t) {
		return gallopIntersectInto(t, s, dst)
	}
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		a, b := s[i], t[j]
		switch {
		case a < b:
			i++
		case a > b:
			j++
		default:
			dst = append(dst, a)
			i++
			j++
		}
	}
	return dst
}

func gallopIntersectInto(small, big, dst Set) Set {
	lo := 0
	for _, v := range small {
		lo = seek(big, v, lo)
		if lo >= len(big) {
			break
		}
		if big[lo] == v {
			dst = append(dst, v)
			lo++
			if lo >= len(big) {
				break
			}
		}
	}
	return dst
}
