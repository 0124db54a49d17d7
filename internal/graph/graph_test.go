package graph

import (
	"bytes"
	"strings"
	"testing"
)

// fig1 builds the paper's running example (Fig. 1a): five vertices,
// attributes a, b, c; v1..v5 map to ids 0..4.
func fig1(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder(5)
	attrs := map[VertexID][]string{
		0: {"a"},
		1: {"a", "c"},
		2: {"c"},
		3: {"b"},
		4: {"a", "b"},
	}
	for v, vals := range attrs {
		for _, val := range vals {
			if err := b.AddAttr(v, val); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, e := range [][2]VertexID{{0, 1}, {0, 2}, {0, 3}, {2, 4}, {3, 4}} {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

func TestFig1Shape(t *testing.T) {
	g := fig1(t)
	if g.NumVertices() != 5 {
		t.Errorf("NumVertices = %d, want 5", g.NumVertices())
	}
	if g.NumEdges() != 5 {
		t.Errorf("NumEdges = %d, want 5", g.NumEdges())
	}
	if g.NumAttrValues() != 3 {
		t.Errorf("NumAttrValues = %d, want 3", g.NumAttrValues())
	}
	if g.AttrOccurrences() != 7 {
		t.Errorf("AttrOccurrences = %d, want 7", g.AttrOccurrences())
	}
	if !g.Connected() {
		t.Error("Connected = false, want true")
	}
	// Adjacency list from §III: v1 adjacent to v2, v3, v4.
	if got := g.Neighbors(0); len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("Neighbors(v1) = %v", got)
	}
	if g.Degree(1) != 1 {
		t.Errorf("Degree(v2) = %d, want 1", g.Degree(1))
	}
}

func TestHasEdgeSymmetric(t *testing.T) {
	g := fig1(t)
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("edge {v1,v2} missing in some direction")
	}
	if g.HasEdge(1, 2) {
		t.Error("unexpected edge {v2,v3}")
	}
}

func TestHasAttr(t *testing.T) {
	g := fig1(t)
	a, _ := g.Vocab().Lookup("a")
	c, _ := g.Vocab().Lookup("c")
	if !g.HasAttr(1, a) || !g.HasAttr(1, c) {
		t.Error("v2 should have a and c")
	}
	b, _ := g.Vocab().Lookup("b")
	if g.HasAttr(1, b) {
		t.Error("v2 should not have b")
	}
}

func TestSelfLoopRejected(t *testing.T) {
	b := NewBuilder(2)
	if err := b.AddEdge(1, 1); err == nil {
		t.Fatal("AddEdge(1,1) accepted a self-loop")
	}
}

func TestOutOfRangeRejected(t *testing.T) {
	b := NewBuilder(2)
	if err := b.AddEdge(0, 5); err == nil {
		t.Fatal("AddEdge accepted out-of-range vertex")
	}
	if err := b.AddAttr(7, "x"); err == nil {
		t.Fatal("AddAttr accepted out-of-range vertex")
	}
}

func TestParallelEdgesCollapse(t *testing.T) {
	b := NewBuilder(2)
	if err := b.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdge(1, 0); err != nil {
		t.Fatal(err)
	}
	g := b.Build()
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
}

func TestDuplicateAttrCollapse(t *testing.T) {
	b := NewBuilder(1)
	_ = b.AddAttr(0, "x")
	_ = b.AddAttr(0, "x")
	g := b.Build()
	if len(g.Attrs(0)) != 1 {
		t.Fatalf("Attrs = %v, want single x", g.Attrs(0))
	}
}

func TestDisconnected(t *testing.T) {
	b := NewBuilder(4)
	_ = b.AddEdge(0, 1)
	_ = b.AddEdge(2, 3)
	if b.Build().Connected() {
		t.Error("two components reported connected")
	}
}

func TestVocabRoundTrip(t *testing.T) {
	v := NewVocab()
	ids := map[string]AttrID{}
	for _, name := range []string{"alpha", "beta", "gamma", "alpha"} {
		ids[name] = v.ID(name)
	}
	if v.Size() != 3 {
		t.Fatalf("Size = %d, want 3", v.Size())
	}
	for name, id := range ids {
		if v.Name(id) != name {
			t.Errorf("Name(%d) = %q, want %q", id, v.Name(id), name)
		}
	}
	if _, ok := v.Lookup("delta"); ok {
		t.Error("Lookup(delta) found a missing value")
	}
}

func TestVocabPanicsOnBadID(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Name on out-of-range id did not panic")
		}
	}()
	NewVocab().Name(3)
}

func TestStats(t *testing.T) {
	g := fig1(t)
	st := g.ComputeStats()
	if st.Vertices != 5 || st.Edges != 5 || st.AttrValues != 3 {
		t.Errorf("Stats = %+v", st)
	}
	if st.MaxDegree != 3 {
		t.Errorf("MaxDegree = %d, want 3", st.MaxDegree)
	}
	if st.AvgDegree != 2.0 {
		t.Errorf("AvgDegree = %v, want 2", st.AvgDegree)
	}
	if !strings.Contains(st.String(), "|V|=5") {
		t.Errorf("String() = %q", st.String())
	}
}

func TestLoadWriteRoundTrip(t *testing.T) {
	g := fig1(t)
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip changed shape: %d/%d vs %d/%d",
			g2.NumVertices(), g2.NumEdges(), g.NumVertices(), g.NumEdges())
	}
	for v := 0; v < g.NumVertices(); v++ {
		want := make(map[string]bool)
		for _, a := range g.Attrs(VertexID(v)) {
			want[g.Vocab().Name(a)] = true
		}
		got := make(map[string]bool)
		for _, a := range g2.Attrs(VertexID(v)) {
			got[g2.Vocab().Name(a)] = true
		}
		if len(want) != len(got) {
			t.Fatalf("vertex %d attrs differ: %v vs %v", v, got, want)
		}
		for name := range want {
			if !got[name] {
				t.Fatalf("vertex %d lost attribute %s", v, name)
			}
		}
		for _, u := range g.Neighbors(VertexID(v)) {
			if !g2.HasEdge(VertexID(v), u) {
				t.Fatalf("round trip lost edge {%d,%d}", v, u)
			}
		}
	}
}

func TestLoadErrors(t *testing.T) {
	cases := map[string]string{
		"unknown record": "x 1 2\n",
		"bad vertex id":  "v abc foo\n",
		"e arity":        "e 1\n",
		"e bad id":       "e 1 zz\n",
		"self loop":      "e 3 3\n",
		"id past range":  "v 4294967295\n",
		"sparse edge":    "e 0 1\ne 2 4\n",
	}
	for name, input := range cases {
		if _, err := Load(strings.NewReader(input)); err == nil {
			t.Errorf("%s: Load accepted %q", name, input)
		}
	}
}

// TestLoadBoundsVertexIDs pins the id-space bound: an input of r records
// may name ids below 2r, a past-range id is rejected with its line number
// before anything is sized by it, and the tightest inputs Write emits —
// every vertex named exactly once, by edges between attributeless vertices
// — still load.
func TestLoadBoundsVertexIDs(t *testing.T) {
	_, err := Load(strings.NewReader("# header\nv 0 a\n\ne 0 1\nv 9 b\n"))
	if err == nil || !strings.Contains(err.Error(), "line 5") {
		t.Fatalf("Load = %v, want an out-of-range error naming line 5", err)
	}
	b := NewBuilder(6)
	for _, e := range [][2]VertexID{{0, 1}, {2, 3}, {4, 5}} {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := Write(&buf, b.Build()); err != nil {
		t.Fatal(err)
	}
	g, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 6 || g.NumEdges() != 3 {
		t.Fatalf("round trip: %d vertices, %d edges, want 6 and 3", g.NumVertices(), g.NumEdges())
	}
}

// FuzzGraphLoad checks that Load never panics, and that every input it
// accepts survives Write and Load: the reloaded graph writes the same bytes.
func FuzzGraphLoad(f *testing.F) {
	for _, seed := range []string{
		"", "# only a comment\n", "v 0 a b\nv 1 b\ne 0 1\n", "v 0\nv 1\n",
		"e 0 1\ne 2 3\n", "v 4294967295\n", "v 1 a\ne 1 1\n", "x 1\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := Write(&first, g); err != nil {
			t.Fatal(err)
		}
		g2, err := Load(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("Write output does not load: %v\n%s", err, first.Bytes())
		}
		if g2.NumVertices() != g.NumVertices() || g2.NumEdges() != g.NumEdges() {
			t.Fatalf("round trip changed shape: %d/%d vs %d/%d",
				g2.NumVertices(), g2.NumEdges(), g.NumVertices(), g.NumEdges())
		}
		var second bytes.Buffer
		if err := Write(&second, g2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("round trip changed the written bytes:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
		}
	})
}

func TestLoadEmptyAndComments(t *testing.T) {
	g, err := Load(strings.NewReader("# just a comment\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 0 {
		t.Fatalf("NumVertices = %d, want 0", g.NumVertices())
	}
}
