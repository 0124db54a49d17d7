package intset

import (
	"math/rand"
	"slices"
	"testing"
)

// bitmapOf loads s into a fresh bitmap of the given width.
func bitmapOf(s Set, words int) Bitmap {
	b := make(Bitmap, words)
	b.Load(s)
	return b
}

// bytesSet decodes pairs of bytes as little-endian ids reduced below
// universe: arbitrary input, any density, always in range.
func bytesSet(raw []byte, universe int) Set {
	vals := make([]uint32, 0, len(raw)/2)
	for i := 0; i+1 < len(raw); i += 2 {
		vals = append(vals, (uint32(raw[i])|uint32(raw[i+1])<<8)%uint32(universe))
	}
	return New(vals...)
}

func TestBitmapLoadOverwrites(t *testing.T) {
	b := bitmapOf(New(0, 63, 64, 127), 2)
	if b[0] != 1|1<<63 || b[1] != 1|1<<63 {
		t.Fatalf("Load = %#x, want bits 0 and 63 of both words", b)
	}
	b.Load(New(5))
	if b[0] != 1<<5 || b[1] != 0 {
		t.Fatalf("reload left stale bits: %#x", b)
	}
	b.Load(nil)
	if b[0] != 0 || b[1] != 0 {
		t.Fatalf("empty load left bits: %#x", b)
	}
}

// TestBitmapCountsMatchSets is the seeded differential sweep behind the
// fuzzer: every width from one to sixteen words, sparse to full density.
func TestBitmapCountsMatchSets(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for words := 1; words <= 16; words++ {
		universe := 64 * words
		for trial := 0; trial < 50; trial++ {
			x := randSet(rng, rng.Intn(universe+1), universe)
			y := randSet(rng, rng.Intn(universe+1), universe)
			z := randSet(rng, rng.Intn(universe+1), universe)
			checkBitmapCounts(t, x, y, z, words)
		}
	}
}

func checkBitmapCounts(t *testing.T, x, y, z Set, words int) {
	t.Helper()
	bx, by, bz := bitmapOf(x, words), bitmapOf(y, words), bitmapOf(z, words)
	if got, want := bx.AndCount(by), x.IntersectCount(y); got != want {
		t.Fatalf("AndCount = %d, want %d on x=%v y=%v", got, want, x, y)
	}
	n, d := bx.AndAndNotCount(by, bz)
	wantN, wantD := IntersectCountAndDiffCount(x, y, z)
	if n != wantN || d != wantD {
		t.Fatalf("AndAndNotCount = (%d,%d), want (%d,%d) on x=%v y=%v z=%v", n, d, wantN, wantD, x, y, z)
	}
	if got, want := bx.Intersects(by), bx.AndCount(by) > 0; got != want {
		t.Fatalf("Intersects = %v, want AndCount > 0 = %v on x=%v y=%v", got, want, x, y)
	}
	bx.Or(by)
	if want := bitmapOf(x.Union(y), words); !slices.Equal(bx, want) {
		t.Fatalf("Or = %#x, want %#x on x=%v y=%v", bx, want, x, y)
	}
}

func FuzzBitmapCount(f *testing.F) {
	f.Add(uint8(15), []byte{1, 0, 2, 0, 3, 0}, []byte{2, 0, 3, 0, 4, 0}, []byte{1, 0})
	f.Add(uint8(0), []byte{}, []byte{5, 0}, []byte{})
	f.Add(uint8(7), []byte{255, 1, 0, 2}, []byte{255, 1}, []byte{255, 1, 255, 3})
	f.Fuzz(func(t *testing.T, w uint8, a, b, c []byte) {
		words := 1 + int(w)%16 // up to the 1024-id bound the miner uses
		universe := 64 * words
		checkBitmapCounts(t, bytesSet(a, universe), bytesSet(b, universe), bytesSet(c, universe), words)
	})
}
