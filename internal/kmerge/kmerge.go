// Package kmerge visits the elements of several sorted runs in one merged
// order. The model assembler uses it to fold cached per-group line,
// leafset and pattern orders into the whole model's canonical orders in
// O(n log k) instead of re-sorting all n elements (see DESIGN.md "Model
// assembly from normalized group runs").
package kmerge

// cursor is the next unvisited element of one run.
type cursor struct{ run, pos int }

// Merge calls visit(r, i) once for every element i < lens[r] of every run
// r, in ascending merged order. cmp(r1, i1, r2, i2) orders element i1 of
// run r1 against element i2 of run r2; each run must already be ascending
// under it. Elements that compare equal are visited in run order, so the
// visit sequence is a pure function of the runs.
func Merge(lens []int, cmp func(r1, i1, r2, i2 int) int, visit func(r, i int)) {
	if len(lens) == 1 {
		for i := range lens[0] {
			visit(0, i)
		}
		return
	}
	less := func(a, b cursor) bool {
		if c := cmp(a.run, a.pos, b.run, b.pos); c != 0 {
			return c < 0
		}
		return a.run < b.run
	}
	h := make([]cursor, 0, len(lens))
	for r, n := range lens {
		if n > 0 {
			h = append(h, cursor{run: r})
		}
	}
	// down restores the heap property below node i.
	down := func(i int) {
		for {
			l := 2*i + 1
			if l >= len(h) {
				return
			}
			j := l
			if r := l + 1; r < len(h) && less(h[r], h[l]) {
				j = r
			}
			if !less(h[j], h[i]) {
				return
			}
			h[i], h[j] = h[j], h[i]
			i = j
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		down(i)
	}
	for len(h) > 0 {
		top := &h[0]
		visit(top.run, top.pos)
		if top.pos++; top.pos == lens[top.run] {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		down(0)
	}
}
