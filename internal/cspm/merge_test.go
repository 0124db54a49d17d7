package cspm

import (
	"bytes"
	"encoding/gob"
	"encoding/hex"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"cspm/internal/dataset"
	"cspm/internal/graph"
	"cspm/internal/invdb"
	"cspm/internal/mdl"
	"cspm/internal/shardcache"
)

// referenceMergeEntryStats is the model assembler before merge orders, kept
// as the oracle of mergeEntryStats: concatenate every entry's lines, then
// normalize, price and rank the whole multiset from scratch.
func referenceMergeEntryStats(m *Model, st *mdl.StandardTable, coreValues func(invdb.CoresetID) []graph.AttrID, coreCode func(invdb.CoresetID) float64, entries []*shardcache.Entry) {
	var init, final []invdb.LineStat
	for _, e := range entries {
		init = append(init, e.Init...)
		final = append(final, e.Final...)
	}
	bd, bm := invdb.CanonicalDL(st, coreCode, init)
	m.BaselineDL = bd + bm
	fd, fm := invdb.CanonicalDL(st, coreCode, final)
	m.FinalDL = fd + fm
	norm := invdb.NormalizeLineStats(final)
	m.CondEntropy = invdb.CanonicalCondEntropy(norm)
	for i := 0; i < len(norm); {
		c := norm[i].Core
		j, fc := i, 0
		for ; j < len(norm) && norm[j].Core == c; j++ {
			fc += norm[j].FL
		}
		coreLen := coreCode(c)
		for k := i; k < j; k++ {
			m.Patterns = append(m.Patterns, AStar{
				CoreValues: append([]graph.AttrID(nil), coreValues(c)...),
				LeafValues: append([]graph.AttrID(nil), norm[k].Leaf...),
				FL:         norm[k].FL,
				FC:         fc,
				CodeLen:    coreLen + mdl.CondCodeLen(norm[k].FL, fc),
			})
		}
		i = j
	}
	slices.SortFunc(m.Patterns, func(a, b AStar) int {
		return comparePatterns(a.CodeLen, a.CoreValues, a.LeafValues, b.CodeLen, b.CoreValues, b.LeafValues)
	})
}

// sameModelBits fails unless got and want agree on the patterns and on
// every reported description length, bit for bit.
func sameModelBits(t *testing.T, name string, got, want *Model) {
	t.Helper()
	if math.Float64bits(got.BaselineDL) != math.Float64bits(want.BaselineDL) ||
		math.Float64bits(got.FinalDL) != math.Float64bits(want.FinalDL) ||
		math.Float64bits(got.CondEntropy) != math.Float64bits(want.CondEntropy) {
		t.Fatalf("%s: DLs (%v, %v, %v), want (%v, %v, %v)", name,
			got.BaselineDL, got.FinalDL, got.CondEntropy, want.BaselineDL, want.FinalDL, want.CondEntropy)
	}
	if !reflect.DeepEqual(got.Patterns, want.Patterns) {
		t.Fatalf("%s: %d patterns differ from the reference's %d", name, len(got.Patterns), len(want.Patterns))
	}
}

// mergeGraphs returns the mid archipelago and a 400-island graph, the
// benchmarks' group-heavy inputs.
func mergeGraphs() map[string]*graph.Graph {
	mid := dataset.BenchIslands()
	mid.MinNodes, mid.MaxNodes = 250, 500
	many := dataset.DefaultIslands()
	many.Islands, many.MinNodes, many.MaxNodes = 400, 8, 20
	return map[string]*graph.Graph{
		"mid":  dataset.IslandsWithEdgeSeeds(mid, nil),
		"many": dataset.IslandsWithEdgeSeeds(many, nil),
	}
}

// TestMergeMatchesReference checks the merge-order assembler against the
// sort-everything reference on every way an entry reaches it: a cold mine,
// every group replaying, random dirty subsets re-mined among replays, and
// entries reloaded from disk blobs whose lines an older binary wrote in
// raw search order.
func TestMergeMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("mines the mid archipelago")
	}
	opts := Options{CollectStats: true}
	for name, g := range mergeGraphs() {
		t.Run(name, func(t *testing.T) {
			cache := shardcache.New()
			cold := MineShardedCached(g, opts, cache)
			keys := groupKeys(g, opts)
			entries := make([]*shardcache.Entry, len(keys))
			for i, k := range keys {
				e, ok := cache.Get(k)
				if !ok {
					t.Fatalf("group %d missing after the cold mine", i)
				}
				entries[i] = e
			}
			st, coreValues, coreCode := singleValueCoresets(g)
			want := &Model{}
			referenceMergeEntryStats(want, st, coreValues, coreCode, entries)
			sameModelBits(t, "cold", cold, want)

			warm := MineShardedCached(g, opts, cache)
			if warm.CacheMisses != 0 {
				t.Fatalf("warm run missed %d groups", warm.CacheMisses)
			}
			sameModelBits(t, "all hits", warm, want)

			rng := rand.New(rand.NewSource(3))
			for trial := range 3 {
				dirty := 0
				for _, k := range keys {
					if rng.Intn(3) == 0 {
						cache.Remove(k)
						dirty++
					}
				}
				m := MineShardedCached(g, opts, cache)
				if m.CacheMisses != dirty {
					t.Fatalf("trial %d: %d misses, want %d", trial, m.CacheMisses, dirty)
				}
				sameModelBits(t, "dirty subset", m, want)
			}

			dir := t.TempDir()
			for i, k := range keys {
				raw := &shardcache.Entry{
					Init:  slices.Clone(entries[i].Init),
					Final: slices.Clone(entries[i].Final),
				}
				slices.Reverse(raw.Init)
				slices.Reverse(raw.Final)
				var buf bytes.Buffer
				if err := gob.NewEncoder(&buf).Encode(raw); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, hex.EncodeToString(k[:])+".gob"), buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			disk, err := shardcache.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			m := MineShardedCached(g, opts, disk)
			if m.CacheHits != len(keys) {
				t.Fatalf("disk run hit %d of %d groups", m.CacheHits, len(keys))
			}
			sameModelBits(t, "raw disk blobs", m, want)
		})
	}
}
