package intset

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewSortsAndDedupes(t *testing.T) {
	s := New(5, 1, 3, 1, 5, 2)
	want := Set{1, 2, 3, 5}
	if !s.Equal(want) {
		t.Fatalf("New = %v, want %v", s, want)
	}
}

func TestNewEmpty(t *testing.T) {
	if s := New(); s.Len() != 0 {
		t.Fatalf("New() = %v, want empty", s)
	}
}

func TestIntersectBasic(t *testing.T) {
	a := New(1, 2, 3, 4, 5)
	b := New(2, 4, 6)
	got := a.Intersect(b)
	if !got.Equal(New(2, 4)) {
		t.Fatalf("Intersect = %v, want [2 4]", got)
	}
	if n := a.IntersectCount(b); n != 2 {
		t.Fatalf("IntersectCount = %d, want 2", n)
	}
}

func TestIntersectDisjoint(t *testing.T) {
	a := New(1, 3, 5)
	b := New(2, 4, 6)
	if got := a.Intersect(b); len(got) != 0 {
		t.Fatalf("Intersect = %v, want empty", got)
	}
	if n := a.IntersectCount(b); n != 0 {
		t.Fatalf("IntersectCount = %d, want 0", n)
	}
}

func TestDiffBasic(t *testing.T) {
	a := New(1, 2, 3, 4)
	b := New(2, 4)
	if got := a.Diff(b); !got.Equal(New(1, 3)) {
		t.Fatalf("Diff = %v, want [1 3]", got)
	}
	if got := b.Diff(a); len(got) != 0 {
		t.Fatalf("Diff = %v, want empty", got)
	}
}

func TestUnionBasic(t *testing.T) {
	a := New(1, 3)
	b := New(2, 3, 5)
	if got := a.Union(b); !got.Equal(New(1, 2, 3, 5)) {
		t.Fatalf("Union = %v", got)
	}
}

func TestEmptyOperands(t *testing.T) {
	var empty Set
	s := New(1, 2)
	if got := empty.Intersect(s); len(got) != 0 {
		t.Errorf("empty∩s = %v", got)
	}
	if got := s.Diff(empty); !got.Equal(s) {
		t.Errorf("s∖empty = %v", got)
	}
	if got := empty.Union(s); !got.Equal(s) {
		t.Errorf("empty∪s = %v", got)
	}
	if got := empty.Diff(s); len(got) != 0 {
		t.Errorf("empty∖s = %v", got)
	}
}

// refSet is the map-based reference model for the property tests.
type refSet map[uint32]struct{}

func toRef(s Set) refSet {
	r := make(refSet, len(s))
	for _, v := range s {
		r[v] = struct{}{}
	}
	return r
}

func fromRef(r refSet) Set {
	out := make([]uint32, 0, len(r))
	for v := range r {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return FromSorted(out)
}

func randomSet(rng *rand.Rand, maxVal uint32) Set {
	n := rng.Intn(40)
	vals := make([]uint32, n)
	for i := range vals {
		vals[i] = rng.Uint32() % maxVal
	}
	return New(vals...)
}

func TestPropertyOpsMatchReferenceModel(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomSet(r, 64)
		b := randomSet(r, 64)
		ra, rb := toRef(a), toRef(b)

		inter := make(refSet)
		for v := range ra {
			if _, ok := rb[v]; ok {
				inter[v] = struct{}{}
			}
		}
		diff := make(refSet)
		for v := range ra {
			if _, ok := rb[v]; !ok {
				diff[v] = struct{}{}
			}
		}
		union := make(refSet)
		for v := range ra {
			union[v] = struct{}{}
		}
		for v := range rb {
			union[v] = struct{}{}
		}
		if !a.Intersect(b).Equal(fromRef(inter)) {
			return false
		}
		if a.IntersectCount(b) != len(inter) {
			return false
		}
		if !a.Diff(b).Equal(fromRef(diff)) {
			return false
		}
		if !a.Union(b).Equal(fromRef(union)) {
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyAlgebraicIdentities(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomSet(r, 50)
		b := randomSet(r, 50)
		// |A| = |A∩B| + |A∖B|
		if a.Len() != a.IntersectCount(b)+a.Diff(b).Len() {
			return false
		}
		// |A∪B| = |A| + |B| − |A∩B|
		if a.Union(b).Len() != a.Len()+b.Len()-a.IntersectCount(b) {
			return false
		}
		// Commutativity
		if !a.Intersect(b).Equal(b.Intersect(a)) {
			return false
		}
		if !a.Union(b).Equal(b.Union(a)) {
			return false
		}
		// (A∖B) ∩ B = ∅
		if len(a.Diff(b).Intersect(b)) != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := New(1, 2, 3)
	c := a.Clone()
	c[0] = 99
	if a[0] != 1 {
		t.Fatal("Clone shares backing array")
	}
}

// TestGallopMatchesLinear forces both code paths onto the same inputs.
func TestGallopMatchesLinear(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 200; trial++ {
		small := randomSet(rng, 40) // ≤ ~40 values in [0,40)
		bigVals := make([]uint32, 0, 2000)
		for i := 0; i < 2000; i++ {
			bigVals = append(bigVals, rng.Uint32()%4000)
		}
		big := New(bigVals...)
		// Reference: brute-force membership.
		want := 0
		var wantSet Set
		for _, v := range small {
			if slices.Contains(big, v) {
				want++
				wantSet = append(wantSet, v)
			}
		}
		if got := small.IntersectCount(big); got != want {
			t.Fatalf("trial %d: count %d, want %d", trial, got, want)
		}
		if got := big.IntersectCount(small); got != want {
			t.Fatalf("trial %d: reversed count %d, want %d", trial, got, want)
		}
		if got := small.Intersect(big); !got.Equal(wantSet) {
			t.Fatalf("trial %d: intersect %v, want %v", trial, got, wantSet)
		}
		if got := big.Intersect(small); !got.Equal(wantSet) {
			t.Fatalf("trial %d: reversed intersect %v, want %v", trial, got, wantSet)
		}
	}
}

func BenchmarkIntersectBalanced(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := make([]uint32, 1000)
	y := make([]uint32, 1000)
	for i := range x {
		x[i] = rng.Uint32() % 10000
		y[i] = rng.Uint32() % 10000
	}
	a, c := New(x...), New(y...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.IntersectCount(c)
	}
}

func BenchmarkIntersectSkewed(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	x := make([]uint32, 20)
	y := make([]uint32, 20000)
	for i := range x {
		x[i] = rng.Uint32() % 100000
	}
	for i := range y {
		y[i] = rng.Uint32() % 100000
	}
	a, c := New(x...), New(y...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.IntersectCount(c)
	}
}
