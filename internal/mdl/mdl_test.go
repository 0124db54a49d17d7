package mdl

import (
	"math"
	"testing"
	"testing/quick"

	"cspm/internal/graph"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestXLogX(t *testing.T) {
	if XLogX(0) != 0 {
		t.Errorf("XLogX(0) = %v, want 0", XLogX(0))
	}
	if !almost(XLogX(4), 8) {
		t.Errorf("XLogX(4) = %v, want 8", XLogX(4))
	}
	if !almost(XLogX(1), 0) {
		t.Errorf("XLogX(1) = %v, want 0", XLogX(1))
	}
}

func TestCondCodeLen(t *testing.T) {
	// Eq. 6: −log(fL/fc).
	if !almost(CondCodeLen(1, 2), 1) {
		t.Errorf("CondCodeLen(1,2) = %v, want 1", CondCodeLen(1, 2))
	}
	if !almost(CondCodeLen(4, 4), 0) {
		t.Errorf("CondCodeLen(4,4) = %v, want 0", CondCodeLen(4, 4))
	}
	for _, bad := range [][2]int{{0, 3}, {3, 0}, {5, 4}, {-1, 2}} {
		if !math.IsInf(CondCodeLen(bad[0], bad[1]), 1) {
			t.Errorf("CondCodeLen(%d,%d) should be +Inf", bad[0], bad[1])
		}
	}
}

// fig1ST builds the standard table for the paper's running example; the
// mapping has a:3, b:2, c:2 over 7 occurrences.
func fig1ST(t *testing.T) (*StandardTable, *graph.Vocab) {
	t.Helper()
	b := graph.NewBuilder(5)
	for v, vals := range map[graph.VertexID][]string{
		0: {"a"}, 1: {"a", "c"}, 2: {"c"}, 3: {"b"}, 4: {"a", "b"},
	} {
		for _, val := range vals {
			if err := b.AddAttr(v, val); err != nil {
				t.Fatal(err)
			}
		}
	}
	g := b.Build()
	return NewStandardTable(g), g.Vocab()
}

func TestStandardTableFig1(t *testing.T) {
	st, vocab := fig1ST(t)
	if st.total != 7 {
		t.Fatalf("total = %d, want 7", st.total)
	}
	a, _ := vocab.Lookup("a")
	bID, _ := vocab.Lookup("b")
	if st.freq[a] != 3 || st.freq[bID] != 2 {
		t.Fatalf("freq(a)=%d freq(b)=%d, want 3 and 2", st.freq[a], st.freq[bID])
	}
	if !almost(st.Len(a), -math.Log2(3.0/7.0)) {
		t.Errorf("Len(a) = %v", st.Len(a))
	}
	if !almost(st.SetLen([]graph.AttrID{a, bID}), st.Len(a)+st.Len(bID)) {
		t.Error("SetLen is not additive")
	}
	if !math.IsInf(st.Len(graph.AttrID(99)), 1) {
		t.Error("unknown value should cost +Inf")
	}
}

func TestStandardTableFromFreqs(t *testing.T) {
	st := NewStandardTableFromFreqs([]int{4, 4})
	if !almost(st.Len(0), 1) {
		t.Errorf("Len = %v, want 1 bit for p=1/2", st.Len(0))
	}
}

// TestStandardTableLensMatchFormula pins the code-length table to the
// formula it replaces, bit for bit: −log2(freq/total) for every value, +Inf
// for a zero frequency, a zero total or an id outside the table.
func TestStandardTableLensMatchFormula(t *testing.T) {
	fig1, _ := fig1ST(t)
	for _, st := range []*StandardTable{
		fig1,
		NewStandardTableFromFreqs([]int{3, 0, 5, 1, 0, 1 << 20}),
		NewStandardTableFromFreqs([]int{0, 0}),
		NewStandardTableFromFreqs(nil),
	} {
		for a := graph.AttrID(-2); int(a) < len(st.freq)+2; a++ {
			want := math.Inf(1)
			if a >= 0 && int(a) < len(st.freq) && st.freq[a] != 0 && st.total != 0 {
				want = -math.Log2(float64(st.freq[a]) / float64(st.total))
			}
			if got := st.Len(a); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("freqs %v: Len(%d) = %v, want %v", st.freq, a, got, want)
			}
			if got := st.SetLen([]graph.AttrID{a}); math.Float64bits(got) != math.Float64bits(0+want) {
				t.Errorf("freqs %v: SetLen({%d}) = %v, want %v", st.freq, a, got, want)
			}
		}
	}
}

func TestCondEntropyUniform(t *testing.T) {
	// Two lines each with fL=1 under a coreset with fc=2: H = 1 bit.
	h := CondEntropy([][2]int{{1, 2}, {1, 2}})
	if !almost(h, 1) {
		t.Fatalf("CondEntropy = %v, want 1", h)
	}
	// Deterministic: single line with fL = fc.
	if !almost(CondEntropy([][2]int{{5, 5}}), 0) {
		t.Fatal("deterministic conditional entropy should be 0")
	}
	if CondEntropy(nil) != 0 {
		t.Fatal("empty input should give 0")
	}
}

func TestCondEntropyNonNegativeProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		lines := make([][2]int, 0, len(raw))
		for _, r := range raw {
			fL := int(r%8) + 1
			fc := fL + int(r/8)%8
			lines = append(lines, [2]int{fL, fc})
		}
		return CondEntropy(lines) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// L(I|M) from Eq. 8, Σ_j c_j·log c_j − Σ_ij l_ij·log l_ij, equals −s·H
// (Eq. 7) when every line's fc is the sum of fL under its coreset; verify
// CondEntropy against that sum on a consistent configuration.
func TestDataDLMatchesEntropyForm(t *testing.T) {
	coreFreq := []int{6, 4}
	lines := [][2]int{{2, 6}, {2, 6}, {2, 6}, {1, 4}, {2, 4}, {1, 4}}
	s := 0
	direct := 0.0
	for _, c := range coreFreq {
		direct += XLogX(float64(c))
	}
	for _, ln := range lines {
		s += ln[0]
		direct -= XLogX(float64(ln[0]))
	}
	viaEntropy := float64(s) * CondEntropy(lines)
	if !almost(direct, viaEntropy) {
		t.Fatalf("Eq.8 mismatch: direct=%v entropy=%v", direct, viaEntropy)
	}
}
