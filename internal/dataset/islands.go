package dataset

import (
	"fmt"
	"math/rand"

	"cspm/internal/graph"
)

// IslandsConfig shapes the multi-component benchmark generator behind the
// sharded-mining tests and benchmarks.
type IslandsConfig struct {
	Seed    int64
	Islands int // number of connected components
	// MinNodes/MaxNodes bound each island's vertex count (uniform draw);
	// uneven sizes exercise unbalanced concurrent shard runs.
	MinNodes, MaxNodes int
	// AttrsPerIsland is the size of each island's private attribute
	// alphabet. Alphabets are disjoint across islands, which keeps the
	// attribute-closed component groups apart — the precondition for
	// bit-exact component sharding.
	AttrsPerIsland int
	// ExtraEdges is the number of extra random intra-island edges per
	// vertex, on top of the spanning tree (drives leafset co-occurrence).
	ExtraEdges float64
	// AttrsPerNode is the mean number of attribute values per vertex.
	AttrsPerNode int
}

// DefaultIslands returns a small multi-component configuration suitable for
// tests: uneven island sizes, enough co-occurrence for real merge work.
func DefaultIslands() IslandsConfig {
	return IslandsConfig{
		Seed: 1, Islands: 6, MinNodes: 40, MaxNodes: 120,
		AttrsPerIsland: 12, ExtraEdges: 1.2, AttrsPerNode: 3,
	}
}

// BenchIslands returns the larger configuration used by the sharded-mining
// benchmarks: twelve DBLP-community-sized islands (~13k vertices total).
func BenchIslands() IslandsConfig {
	return IslandsConfig{
		Seed: 1, Islands: 12, MinNodes: 700, MaxNodes: 1400,
		AttrsPerIsland: 30, ExtraEdges: 1.8, AttrsPerNode: 4,
	}
}

// IslandsWithEdgeSeeds generates an archipelago in the Islands mould but
// from fully independent per-island random streams: island i's attributes
// come from one stream derived from (cfg.Seed, i), its edges from another,
// and the island sizes from cfg.Seed alone. Overriding island i's edge seed
// (edgeSeeds[i] non-zero, missing/zero entries keep the default) therefore
// regenerates only that island's edge set — every other island, and the
// attribute assignment of every island (hence the vocabulary, the occurrence
// counts and the global standard table), stays byte-identical. This is the
// mutation model of the incremental-mining benchmarks and tests: rewiring
// inside k of n components dirties exactly k component groups.
func IslandsWithEdgeSeeds(cfg IslandsConfig, edgeSeeds []int64) *graph.Graph {
	cfg = clampIslands(cfg)
	sizeRNG := rand.New(rand.NewSource(cfg.Seed))
	sizes := make([]int, cfg.Islands)
	total := 0
	for i := range sizes {
		sizes[i] = cfg.MinNodes + sizeRNG.Intn(cfg.MaxNodes-cfg.MinNodes+1)
		total += sizes[i]
	}
	b := graph.NewBuilder(total)
	base := 0
	for i, n := range sizes {
		attrRNG := rand.New(rand.NewSource(cfg.Seed + 1_000_003*int64(i+1)))
		edgeSeed := cfg.Seed + 2_000_003*int64(i+1)
		if i < len(edgeSeeds) && edgeSeeds[i] != 0 {
			edgeSeed = edgeSeeds[i]
		}
		buildIsland(b, cfg, i, base, n, attrRNG, rand.New(rand.NewSource(edgeSeed)))
		base += n
	}
	return b.Build()
}

// buildIsland adds island i's attributes and edges to b at vertex offset
// base. attrRNG and edgeRNG may be the same stream (Islands' single
// interleaved stream — attributes draw first, then edges, so the draw order
// is unchanged) or two independent per-island streams (IslandsWithEdgeSeeds).
func buildIsland(b *graph.Builder, cfg IslandsConfig, i, base, n int, attrRNG, edgeRNG *rand.Rand) {
	names := make([]string, cfg.AttrsPerIsland)
	for j := range names {
		names[j] = fmt.Sprintf("i%d_v%d", i, j)
	}
	// Attributes: Zipf-ish skew towards low indexes plants the frequent
	// co-occurring values CSPM compresses.
	for v := 0; v < n; v++ {
		gv := graph.VertexID(base + v)
		k := 1 + attrRNG.Intn(2*cfg.AttrsPerNode-1)
		for j := 0; j < k; j++ {
			idx := attrRNG.Intn(cfg.AttrsPerIsland)
			if attrRNG.Float64() < 0.6 {
				idx = attrRNG.Intn(1 + cfg.AttrsPerIsland/3)
			}
			_ = b.AddAttr(gv, names[idx])
		}
	}
	// Spanning tree keeps the island connected; extra edges add the star
	// overlap.
	for v := 1; v < n; v++ {
		_ = b.AddEdge(graph.VertexID(base+v), graph.VertexID(base+edgeRNG.Intn(v)))
	}
	for e := 0; e < int(cfg.ExtraEdges*float64(n)); e++ {
		u := graph.VertexID(base + edgeRNG.Intn(n))
		v := graph.VertexID(base + edgeRNG.Intn(n))
		if u != v {
			_ = b.AddEdge(u, v)
		}
	}
}

// clampIslands applies Islands' parameter floors.
func clampIslands(cfg IslandsConfig) IslandsConfig {
	if cfg.Islands < 1 {
		cfg.Islands = 1
	}
	if cfg.MinNodes < 2 {
		cfg.MinNodes = 2
	}
	if cfg.MaxNodes < cfg.MinNodes {
		cfg.MaxNodes = cfg.MinNodes
	}
	if cfg.AttrsPerIsland < 2 {
		cfg.AttrsPerIsland = 2
	}
	if cfg.AttrsPerNode < 1 {
		cfg.AttrsPerNode = 1
	}
	return cfg
}

// Islands generates a deterministic archipelago: cfg.Islands connected
// components in the DBLP mould (community structure, venue-like attribute
// values skewed towards each island's own alphabet slice), with component
// alphabets fully disjoint — island i's values are named "i<i>_v<j>". The
// graph as a whole is disconnected by construction, standing in for the
// multi-tenant / multi-snapshot workloads sharded mining targets.
func Islands(cfg IslandsConfig) *graph.Graph {
	cfg = clampIslands(cfg)
	rng := rand.New(rand.NewSource(cfg.Seed))
	sizes := make([]int, cfg.Islands)
	total := 0
	for i := range sizes {
		sizes[i] = cfg.MinNodes + rng.Intn(cfg.MaxNodes-cfg.MinNodes+1)
		total += sizes[i]
	}
	b := graph.NewBuilder(total)
	base := 0
	for i, n := range sizes {
		buildIsland(b, cfg, i, base, n, rng, rng)
		base += n
	}
	return b.Build()
}
