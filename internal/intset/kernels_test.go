package intset

import (
	"math/rand"
	"testing"
)

// naiveIntersect is the reference linear merge the fused kernels must agree
// with element-for-element.
func naiveIntersect(s, t Set) Set {
	var out Set
	for _, v := range s {
		for _, w := range t {
			if v == w {
				out = append(out, v)
			}
		}
	}
	return out
}

func naiveDiff(s, t Set) Set {
	var out Set
	for _, v := range s {
		found := false
		for _, w := range t {
			if v == w {
				found = true
				break
			}
		}
		if !found {
			out = append(out, v)
		}
	}
	return out
}

// randSet draws a sorted duplicate-free set of roughly n values below max.
// Small max values force dense overlaps; large max values force sparse ones.
func randSet(rng *rand.Rand, n, max int) Set {
	vals := make([]uint32, 0, n)
	for i := 0; i < n; i++ {
		vals = append(vals, uint32(rng.Intn(max)))
	}
	return New(vals...)
}

// sizePairs covers the linear path and both galloping directions
// (gallopRatio is 16, so 4→200 and 200→4 take the galloping branch).
var sizePairs = [][2]int{
	{0, 0}, {0, 30}, {30, 0}, {1, 1}, {8, 9},
	{30, 30}, {4, 200}, {200, 4}, {1, 500}, {500, 1}, {100, 120},
}

func TestIntersectCountAndDiffCountDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		sz := sizePairs[trial%len(sizePairs)]
		max := []int{16, 64, 1024, 1 << 20}[trial%4]
		x := randSet(rng, sz[0], max)
		y := randSet(rng, sz[1], max)
		var z Set
		switch trial % 3 {
		case 0: // unrelated z
			z = randSet(rng, 40, max)
		case 1: // z ⊇ parts of the intersection
			z = naiveIntersect(x, y)
			if len(z) > 1 {
				z = z[:len(z)/2].Clone()
			}
		case 2: // empty z
			z = nil
		}
		inter := naiveIntersect(x, y)
		wantN := len(inter)
		wantD := len(naiveDiff(inter, z))
		n, d := IntersectCountAndDiffCount(x, y, z)
		if n != wantN || d != wantD {
			t.Fatalf("trial %d: IntersectCountAndDiffCount(|x|=%d,|y|=%d,|z|=%d) = (%d,%d), want (%d,%d)",
				trial, len(x), len(y), len(z), n, d, wantN, wantD)
		}
		// The fused kernel must agree with the argument-swapped call and the
		// existing unfused count.
		n2, d2 := IntersectCountAndDiffCount(y, x, z)
		if n2 != n || d2 != d {
			t.Fatalf("trial %d: kernel is order-sensitive: (%d,%d) vs (%d,%d)", trial, n, d, n2, d2)
		}
		if c := x.IntersectCount(y); c != wantN {
			t.Fatalf("trial %d: IntersectCount = %d, want %d", trial, c, wantN)
		}
	}
}

func TestIntoKernelsDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var scratch Set // reused across trials to exercise buffer reuse
	for trial := 0; trial < 300; trial++ {
		sz := sizePairs[trial%len(sizePairs)]
		max := []int{16, 64, 1024, 1 << 20}[trial%4]
		s := randSet(rng, sz[0], max)
		t2 := randSet(rng, sz[1], max)

		scratch = s.IntersectInto(t2, scratch)
		if want := naiveIntersect(s, t2); !scratch.Equal(want) {
			t.Fatalf("trial %d: IntersectInto = %v, want %v", trial, scratch, want)
		}
		if want := s.Intersect(t2); !scratch.Equal(want) {
			t.Fatalf("trial %d: IntersectInto disagrees with Intersect", trial)
		}
	}
}

func TestIntoKernelsAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := randSet(rng, 400, 4096)
	t2 := randSet(rng, 400, 4096)
	z := randSet(rng, 100, 4096)
	scratch := make(Set, 0, 1024)
	allocs := testing.AllocsPerRun(50, func() {
		scratch = s.IntersectInto(t2, scratch)
		IntersectCountAndDiffCount(s, t2, z)
	})
	if allocs != 0 {
		t.Fatalf("scratch kernels allocated %v times per run, want 0", allocs)
	}
}

// fuzzSets decodes two byte streams into sorted sets; the fuzzer explores
// adversarial shapes (runs, duplicates, extreme skew) the random tests may
// miss.
func fuzzSets(a, b []byte) (Set, Set) {
	mk := func(bs []byte) Set {
		vals := make([]uint32, 0, len(bs))
		acc := uint32(0)
		for _, c := range bs {
			acc += uint32(c) + 1 // strictly increasing deltas ⇒ sorted input
			vals = append(vals, acc)
		}
		return New(vals...)
	}
	return mk(a), mk(b)
}

func FuzzIntersectCountAndDiffCount(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{2, 3, 4}, []byte{1})
	f.Add([]byte{}, []byte{5}, []byte{})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, []byte{7}, []byte{1, 1})
	f.Fuzz(func(t *testing.T, a, b, c []byte) {
		x, y := fuzzSets(a, b)
		z, _ := fuzzSets(c, nil)
		inter := naiveIntersect(x, y)
		wantN := len(inter)
		wantD := len(naiveDiff(inter, z))
		if n, d := IntersectCountAndDiffCount(x, y, z); n != wantN || d != wantD {
			t.Fatalf("kernel = (%d,%d), want (%d,%d) on x=%v y=%v z=%v", n, d, wantN, wantD, x, y, z)
		}
	})
}

func FuzzIntersectInto(f *testing.F) {
	f.Add([]byte{1, 2, 3}, []byte{2, 3, 4})
	f.Add([]byte{0}, []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, a, b []byte) {
		s, t2 := fuzzSets(a, b)
		if got := s.IntersectInto(t2, nil); !got.Equal(naiveIntersect(s, t2)) {
			t.Fatalf("IntersectInto = %v, want %v on s=%v t=%v", got, naiveIntersect(s, t2), s, t2)
		}
	})
}
