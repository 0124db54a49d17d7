package graph

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// rebuildTestGraph builds two 3-vertex islands: {0,1,2} carrying "a"/"b" and
// {3,4,5} carrying "x"/"y".
func rebuildTestGraph(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder(6)
	for _, e := range [][2]VertexID{{0, 1}, {1, 2}, {3, 4}, {4, 5}} {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	for v := VertexID(0); v < 3; v++ {
		_ = b.AddAttr(v, "a")
	}
	_ = b.AddAttr(1, "b")
	for v := VertexID(3); v < 6; v++ {
		_ = b.AddAttr(v, "x")
	}
	_ = b.AddAttr(4, "y")
	return b.Build()
}

// graphEqual compares two graphs structurally, by attribute NAME (interning
// order is checked separately where it matters).
func graphEqual(t *testing.T, got, want *Graph) {
	t.Helper()
	if got.NumVertices() != want.NumVertices() {
		t.Fatalf("|V| = %d, want %d", got.NumVertices(), want.NumVertices())
	}
	for v := 0; v < want.NumVertices(); v++ {
		gn := attrNameSet(got, VertexID(v))
		wn := attrNameSet(want, VertexID(v))
		if !reflect.DeepEqual(gn, wn) {
			t.Fatalf("vertex %d attrs = %v, want %v", v, gn, wn)
		}
		if !reflect.DeepEqual(got.Neighbors(VertexID(v)), want.Neighbors(VertexID(v))) {
			t.Fatalf("vertex %d neighbours = %v, want %v",
				v, got.Neighbors(VertexID(v)), want.Neighbors(VertexID(v)))
		}
	}
}

func attrNameSet(g *Graph, v VertexID) map[string]bool {
	out := map[string]bool{}
	for _, a := range g.Attrs(v) {
		out[g.Vocab().Name(a)] = true
	}
	return out
}

func TestRebuildGrowShrink(t *testing.T) {
	g := rebuildTestGraph(t)
	g2, err := Rebuild(g, []Edit{
		{Op: EditAddVertex},                 // id 6
		{Op: EditAddEdge, U: 6, V: 0},       // attach to island 1
		{Op: EditAddAttr, U: 6, Value: "z"}, // new value, interned last
		{Op: EditDelVertex, U: 1},           // island 1 shifts: {0, 1(was 2), 5(was 6)}
		{Op: EditAddEdge, U: 0, V: 1},       // reconnect using POST-shift ids
		{Op: EditDelAttr, U: 3, Value: "y"}, // was vertex 4
		{Op: EditDelEdge, U: 2, V: 3},       // was edge {3,4}
	})
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumVertices() != 6 {
		t.Fatalf("|V| = %d, want 6", g2.NumVertices())
	}

	// The source graph is untouched.
	graphEqual(t, g, rebuildTestGraph(t))

	// Expected result built from scratch.
	wb := NewBuilder(6)
	_ = wb.AddAttr(0, "a")
	_ = wb.AddAttr(1, "a")
	_ = wb.AddEdge(0, 1)
	_ = wb.AddAttr(2, "x")
	_ = wb.AddAttr(3, "x")
	_ = wb.AddAttr(4, "x")
	_ = wb.AddEdge(3, 4)
	_ = wb.AddAttr(5, "z")
	_ = wb.AddEdge(5, 0)
	graphEqual(t, g2, wb.Build())

	// Interning order: the old vocabulary is a stable prefix, new values after.
	if want := []string{"a", "b", "x", "y", "z"}; !reflect.DeepEqual(g2.Vocab().Names(), want) {
		t.Fatalf("vocab = %v, want %v", g2.Vocab().Names(), want)
	}
}

func TestRebuildEmptyAndNoop(t *testing.T) {
	g := rebuildTestGraph(t)
	g2, err := Rebuild(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	graphEqual(t, g2, g)
	if !reflect.DeepEqual(g2.Vocab().Names(), g.Vocab().Names()) {
		t.Fatalf("no-op rebuild changed vocab: %v vs %v", g2.Vocab().Names(), g.Vocab().Names())
	}

	// Deleting every vertex is legal and yields the empty graph.
	edits := make([]Edit, 6)
	for i := range edits {
		edits[i] = Edit{Op: EditDelVertex, U: 0}
	}
	empty, err := Rebuild(g, edits)
	if err != nil {
		t.Fatal(err)
	}
	if empty.NumVertices() != 0 || empty.NumEdges() != 0 {
		t.Fatalf("got |V|=%d |E|=%d, want empty", empty.NumVertices(), empty.NumEdges())
	}
}

func TestRebuildErrors(t *testing.T) {
	g := rebuildTestGraph(t)
	cases := []struct {
		name string
		edit Edit
		want string
	}{
		{"attr out of range", Edit{Op: EditAddAttr, U: 6, Value: "a"}, "outside range"},
		{"del attr out of range", Edit{Op: EditDelAttr, U: 99, Value: "a"}, "outside range"},
		{"edge out of range", Edit{Op: EditAddEdge, U: 0, V: 6}, "outside vertex range"},
		{"self loop", Edit{Op: EditAddEdge, U: 2, V: 2}, "self-loop"},
		{"del vertex out of range", Edit{Op: EditDelVertex, U: 6}, "outside range"},
		{"unknown op", Edit{Op: EditOp(99)}, "unknown op"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Rebuild(g, []Edit{tc.edit}); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want mention of %q", err, tc.want)
			}
		})
	}
	// Sequential semantics: an edit can be invalidated by a preceding delete.
	_, err := Rebuild(g, []Edit{{Op: EditDelVertex, U: 5}, {Op: EditAddEdge, U: 0, V: 5}})
	if err == nil || !strings.Contains(err.Error(), "edit 1") {
		t.Fatalf("err = %v, want failure at edit 1", err)
	}
}

// TestWriteLoadIsolatedVertices pins the io fix Rebuild depends on: isolated
// attributeless vertices (routinely produced by add_vertex) survive a
// Write/Load roundtrip instead of silently shrinking |V|.
func TestWriteLoadIsolatedVertices(t *testing.T) {
	g, err := Rebuild(rebuildTestGraph(t), []Edit{
		{Op: EditAddVertex}, // trailing isolated vertex 6
		{Op: EditAddVertex}, // trailing isolated vertex 7
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "v 7\n") {
		t.Fatalf("Write emitted no bare v line for the trailing isolated vertex:\n%s", buf.String())
	}
	back, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	graphEqual(t, back, g)

	// Second roundtrip is byte-stable.
	var buf2 bytes.Buffer
	if err := Write(&buf2, back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("Write/Load/Write is not byte-stable")
	}
}
