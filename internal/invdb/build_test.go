package invdb

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"cspm/internal/dataset"
	"cspm/internal/graph"
	"cspm/internal/intset"
	"cspm/internal/mdl"
)

// buildMapOracle is build as it was written with a map of line buffers
// keyed by (coreset, value), sorted by key before interning. It is kept
// only as the reference TestBuildMatchesMapOracle pins build to.
func buildMapOracle(g neighborhood, st *mdl.StandardTable, content [][]graph.AttrID, positions []intset.Set) *DB {
	db := newDB(st, content, positions)
	lineBuf := make(map[uint64][]uint32)
	for c := range content {
		for _, vv := range db.corePos[c] {
			for _, u := range g.Neighbors(graph.VertexID(vv)) {
				for _, l := range g.Attrs(u) {
					key := uint64(c)<<32 | uint64(uint32(l))
					buf := lineBuf[key]
					if len(buf) == 0 || buf[len(buf)-1] != vv {
						lineBuf[key] = append(buf, vv)
					}
				}
			}
		}
	}
	keys := make([]uint64, 0, len(lineBuf))
	for key := range lineBuf {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	leafs := make([]LeafsetID, len(keys))
	for i, key := range keys {
		leafs[i] = db.leafsets.Single(graph.AttrID(uint32(key)))
	}
	db.reserveBitmaps(len(keys) + db.leafsets.Size())
	for i, key := range keys {
		db.insertLine(&Line{Core: CoresetID(key >> 32), Leaf: leafs[i], Pos: intset.FromSorted(lineBuf[key])})
	}
	db.finish()
	return db
}

// groupRows is the shard job of verts as groupDB builds it: rows in local
// value ids, the value count and the group's standard table.
func groupRows(g *graph.Graph, verts []graph.VertexID) (st *mdl.StandardTable, nA int, attrs [][]graph.AttrID, adj [][]graph.VertexID) {
	attrs, adj = remapShard(g, verts)
	var values []graph.AttrID
	for _, row := range attrs {
		values = append(values, row...)
	}
	slices.Sort(values)
	values = slices.Compact(values)
	freq := make([]int, len(values))
	for _, row := range attrs {
		for i, a := range row {
			local, _ := slices.BinarySearch(values, a)
			row[i] = graph.AttrID(local)
			freq[local]++
		}
	}
	return mdl.NewGroupStandardTable(freq, g.AttrOccurrences()), len(values), attrs, adj
}

// oracleCase is one input to TestBuildMatchesMapOracle: the DB under test
// and the oracle's build of the same rows.
type oracleCase struct {
	name        string
	got, oracle *DB
	bitmaps     bool // whether the DB must take the bitmap path
}

// wholeGraphCase builds g with FromGraph and with the oracle.
func wholeGraphCase(name string, g *graph.Graph, bitmaps bool) oracleCase {
	content, positions := singleValueCoresets(g.NumAttrValues(), g.NumVertices(),
		func(v int) []graph.AttrID { return g.Attrs(graph.VertexID(v)) })
	return oracleCase{name: name, got: FromGraph(g), oracle: buildMapOracle(g, mdl.NewStandardTable(g), content, positions), bitmaps: bitmaps}
}

// TestBuildMatchesMapOracle pins the map-free build to the map-based one
// it replaced: the same lines (Core, Leaf and Pos of each, in index
// order), the same leafset id assignment, the same coreset frequencies and
// the same baseline bits. It runs on every group of the mid archipelago as
// its shard job ships it (FromShardData, bitmap DBs), on the whole mid
// graph (slice DB), on the 400-island graph, on the planted graph, on the
// DBLP graph and on the mini Pokec graph of the Table III benchmarks (a
// bitmap DB).
func TestBuildMatchesMapOracle(t *testing.T) {
	mid := benchGraphs()["mid"]
	many := dataset.DefaultIslands()
	many.Islands, many.MinNodes, many.MaxNodes = 400, 8, 20
	planted, _ := dataset.Planted(dataset.DefaultPlanted())
	cases := []oracleCase{
		wholeGraphCase("mid", mid, false),
		wholeGraphCase("400-islands", dataset.IslandsWithEdgeSeeds(many, nil), false),
		wholeGraphCase("planted", planted, false),
		wholeGraphCase("dblp", dataset.DBLP(1), false),
		wholeGraphCase("mini", dataset.Pokec(dataset.PokecConfig{Nodes: 600, Seed: 1, Genres: 120}), true),
	}
	p := graph.AttrClosedComponents(mid)
	groups := make([][]graph.VertexID, p.Count)
	for v, id := range p.Group {
		groups[id] = append(groups[id], graph.VertexID(v))
	}
	for i, verts := range groups {
		st, nA, attrs, adj := groupRows(mid, verts)
		content, positions := singleValueCoresets(nA, len(attrs), func(li int) []graph.AttrID { return attrs[li] })
		cases = append(cases, oracleCase{
			name:    fmt.Sprintf("mid-group-%d", i),
			got:     FromShardData(st, nA, attrs, adj),
			oracle:  buildMapOracle(shardData{attrs: attrs, adj: adj}, st, content, positions),
			bitmaps: true,
		})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, want := tc.got, tc.oracle
			if (got.bmWords > 0) != tc.bitmaps {
				t.Fatalf("bitmap words = %d, want bitmaps %v", got.bmWords, tc.bitmaps)
			}
			if got.numLines == 0 || got.numLines != want.numLines {
				t.Fatalf("%d lines, oracle %d", got.numLines, want.numLines)
			}
			if !slices.EqualFunc(got.leafsets.content, want.leafsets.content, slices.Equal) {
				t.Fatal("leafset id assignment differs from the oracle's")
			}
			if !slices.Equal(got.coreFreq, want.coreFreq) {
				t.Fatal("coreFreq differs from the oracle's")
			}
			if math.Float64bits(got.BaselineDL()) != math.Float64bits(want.BaselineDL()) {
				t.Fatalf("baseline %v, oracle %v", got.BaselineDL(), want.BaselineDL())
			}
			for c := range got.byCore {
				gl, wl := got.byCore[c].lines, want.byCore[c].lines
				if len(gl) != len(wl) {
					t.Fatalf("coreset %d: %d lines, oracle %d", c, len(gl), len(wl))
				}
				for i := range gl {
					if gl[i].Core != wl[i].Core || gl[i].Leaf != wl[i].Leaf || !gl[i].Pos.Equal(wl[i].Pos) {
						t.Fatalf("coreset %d line %d: (%d, %d, %v), oracle (%d, %d, %v)", c, i,
							gl[i].Core, gl[i].Leaf, gl[i].Pos, wl[i].Core, wl[i].Leaf, wl[i].Pos)
					}
				}
			}
			checkConsistency(t, got)
		})
	}
}
