package graph

import (
	"reflect"
	"testing"
)

// twoIslands builds two components: {0,1,2} sharing values a/b and {3,4}
// sharing value c (disjoint alphabets).
func twoIslands(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder(5)
	_ = b.AddAttr(0, "a")
	_ = b.AddAttr(1, "b")
	_ = b.AddAttr(2, "a")
	_ = b.AddAttr(3, "c")
	_ = b.AddAttr(4, "c")
	for _, e := range [][2]VertexID{{0, 1}, {1, 2}, {3, 4}} {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

func TestComponents(t *testing.T) {
	// Disjoint alphabets: the attribute-closed groups are the connected
	// components.
	g := twoIslands(t)
	p := AttrClosedComponents(g)
	if p.Count != 2 {
		t.Fatalf("Count = %d, want 2", p.Count)
	}
	want := []int32{0, 0, 0, 1, 1}
	if !reflect.DeepEqual(p.Group, want) {
		t.Fatalf("Group = %v, want %v", p.Group, want)
	}
	members := p.Members()
	if !reflect.DeepEqual(members[0], []VertexID{0, 1, 2}) || !reflect.DeepEqual(members[1], []VertexID{3, 4}) {
		t.Fatalf("Members = %v", members)
	}
}

func TestAttrClosedComponentsMergesSharedValues(t *testing.T) {
	// Same topology as twoIslands but the second component reuses value "a":
	// attribute closure must fold both components into one group.
	b := NewBuilder(5)
	_ = b.AddAttr(0, "a")
	_ = b.AddAttr(1, "b")
	_ = b.AddAttr(2, "a")
	_ = b.AddAttr(3, "a")
	_ = b.AddAttr(4, "c")
	for _, e := range [][2]VertexID{{0, 1}, {1, 2}, {3, 4}} {
		_ = b.AddEdge(e[0], e[1])
	}
	g := b.Build()
	if p := AttrClosedComponents(g); p.Count != 1 {
		t.Fatalf("attr-closed groups = %d, want 1", p.Count)
	}
	// Disjoint alphabets keep the groups apart.
	if p := AttrClosedComponents(twoIslands(t)); p.Count != 2 {
		t.Fatalf("disjoint alphabets merged: %d groups", p.Count)
	}
}

func TestUnionFind(t *testing.T) {
	uf := NewUnionFind(4)
	if !uf.Union(0, 1) || !uf.Union(2, 3) {
		t.Fatal("fresh unions reported no-op")
	}
	if uf.Union(1, 0) {
		t.Fatal("repeated union reported a merge")
	}
	if uf.Find(0) != uf.Find(1) || uf.Find(2) != uf.Find(3) {
		t.Fatal("united elements have different roots")
	}
	if uf.Find(0) == uf.Find(2) {
		t.Fatal("separate sets share a root")
	}
}
