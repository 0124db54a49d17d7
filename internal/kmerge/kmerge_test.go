package kmerge

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

// TestMergeMatchesStableSort merges random sorted runs (with duplicates
// inside and across runs, and empty runs) and checks the visit sequence
// against a stable sort of the concatenation by (value, run).
func TestMergeMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := range 300 {
		k := 1 + rng.Intn(9)
		runs := make([][]int, k)
		type elem struct{ v, r, i int }
		var want []elem
		for r := range runs {
			n := rng.Intn(12)
			if trial%7 == 0 {
				n = 0
			}
			for range n {
				runs[r] = append(runs[r], rng.Intn(20))
			}
			slices.Sort(runs[r])
			for i, v := range runs[r] {
				want = append(want, elem{v, r, i})
			}
		}
		slices.SortStableFunc(want, func(a, b elem) int {
			if c := cmp.Compare(a.v, b.v); c != 0 {
				return c
			}
			return cmp.Compare(a.r, b.r)
		})
		lens := make([]int, k)
		for r := range runs {
			lens[r] = len(runs[r])
		}
		var got []elem
		Merge(lens, func(r1, i1, r2, i2 int) int { return cmp.Compare(runs[r1][i1], runs[r2][i2]) },
			func(r, i int) { got = append(got, elem{runs[r][i], r, i}) })
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: runs %v\ngot  %v\nwant %v", trial, runs, got, want)
		}
	}
}
