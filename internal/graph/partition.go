package graph

// Partitioning support for sharded mining (see DESIGN.md "Sharded mining").
// The miner shards an attributed graph by grouping vertices into units whose
// searches are provably independent, then mining each unit as one shard.
// The unit is the attribute-closed component group: connected components,
// additionally merged when they share any attribute value. Plain connected
// components would not give bit-exact sharded mining: a value occurring in
// two components couples their coreset frequencies f_c, leafset spell-out
// charges, and pair gains, so such components must be mined together.

// UnionFind is a classic disjoint-set forest with union by size and path
// halving. It is the substrate of the component partitioner and is exported
// for reuse by other grouping passes.
type UnionFind struct {
	parent []int32
	size   []int32
}

// NewUnionFind returns n singleton sets {0}..{n-1}.
func NewUnionFind(n int) *UnionFind {
	uf := &UnionFind{parent: make([]int32, n), size: make([]int32, n)}
	for i := range uf.parent {
		uf.parent[i] = int32(i)
		uf.size[i] = 1
	}
	return uf
}

// Find returns the representative of x's set, halving the path on the way.
func (uf *UnionFind) Find(x int) int {
	p := uf.parent
	for p[x] != int32(x) {
		p[x] = p[p[x]] // path halving
		x = int(p[x])
	}
	return x
}

// Union merges the sets of a and b, reporting whether they were distinct.
func (uf *UnionFind) Union(a, b int) bool {
	ra, rb := uf.Find(a), uf.Find(b)
	if ra == rb {
		return false
	}
	if uf.size[ra] < uf.size[rb] {
		ra, rb = rb, ra
	}
	uf.parent[rb] = int32(ra)
	uf.size[ra] += uf.size[rb]
	return true
}

// Partition assigns every vertex to a group. Group ids are dense 0..Count-1,
// numbered in ascending order of each group's smallest vertex id, so the
// assignment is a pure function of the graph.
type Partition struct {
	Group []int32 // vertex → group id
	Count int
}

// finish renumbers union-find roots into the canonical dense group ids.
func finish(uf *UnionFind, n int) Partition {
	p := Partition{Group: make([]int32, n)}
	remap := make(map[int]int32, 16)
	for v := 0; v < n; v++ {
		r := uf.Find(v)
		id, ok := remap[r]
		if !ok {
			id = int32(p.Count)
			remap[r] = id
			p.Count++
		}
		p.Group[v] = id
	}
	return p
}

// AttrClosedComponents partitions g into attribute-closed component groups:
// connected components, additionally merged whenever two components share an
// attribute value. Mining such groups independently is exact — no coreset
// line, leafset occurrence, or co-occurring candidate pair can span two
// groups (see DESIGN.md "Sharded mining" for the argument).
func AttrClosedComponents(g *Graph) Partition {
	n := g.NumVertices()
	uf := NewUnionFind(n)
	for v := 0; v < n; v++ {
		for _, u := range g.adj[v] {
			uf.Union(v, int(u))
		}
	}
	owner := make([]int32, g.NumAttrValues())
	for i := range owner {
		owner[i] = -1
	}
	for v := 0; v < n; v++ {
		for _, a := range g.attrs[v] {
			if owner[a] < 0 {
				owner[a] = int32(v)
			} else {
				uf.Union(v, int(owner[a]))
			}
		}
	}
	return finish(uf, n)
}

// Members expands the partition into per-group sorted vertex lists.
func (p Partition) Members() [][]VertexID {
	out := make([][]VertexID, p.Count)
	for v, gid := range p.Group { // ascending v keeps each list sorted
		out[gid] = append(out[gid], VertexID(v))
	}
	return out
}
