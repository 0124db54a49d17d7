package cspm

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"cspm/internal/dataset"
	"cspm/internal/graph"
	"cspm/internal/invdb"
	"cspm/internal/krimp"
	"cspm/internal/slim"
)

// traceDigest hashes the Fig. 5 trace of a run: each iteration's gain
// updates, possible pairs, and the bits of its gain and total DL.
func traceDigest(m *Model) uint64 {
	h := fnv.New64a()
	var buf [32]byte
	for _, it := range m.PerIter {
		binary.LittleEndian.PutUint64(buf[0:], uint64(it.GainUpdates))
		binary.LittleEndian.PutUint64(buf[8:], uint64(it.PossiblePairs))
		binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(it.Gain))
		binary.LittleEndian.PutUint64(buf[24:], math.Float64bits(it.TotalDL))
		h.Write(buf[:])
	}
	return h.Sum64()
}

// patternsDigest hashes a model's ranked pattern list: each pattern's core
// and leaf values, FL, FC and the bits of its code length.
func patternsDigest(m *Model) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	values := func(vs []graph.AttrID) {
		word(uint64(len(vs)))
		for _, v := range vs {
			word(uint64(v))
		}
	}
	for _, p := range m.Patterns {
		values(p.CoreValues)
		values(p.LeafValues)
		word(uint64(p.FL))
		word(uint64(p.FC))
		word(math.Float64bits(p.CodeLen))
	}
	return h.Sum64()
}

// mineMultiCoreKrimp is the root package's MineMultiCoreKrimp: Krimp selects
// the coresets, then MineDB mines a-stars over them.
func mineMultiCoreKrimp(t *testing.T, g *graph.Graph, minSupport int) *Model {
	t.Helper()
	res, err := krimp.Mine(slim.VertexTransactions(g), krimp.Options{MinSupport: minSupport})
	if err != nil {
		t.Fatal(err)
	}
	coresets, positions := slim.CodeTableAsCoresets(res.CT)
	db, err := invdb.FromGraphWithCoresets(g, coresets, positions)
	if err != nil {
		t.Fatal(err)
	}
	return MineDB(db, g.Vocab(), Options{CollectStats: true})
}

// TestMiningTracesPinned pins the complete search trace of Basic and Partial
// on the small islands graph (at one and four workers) and of a cold
// MineShardedCached run on the mid archipelago, and the models of the
// multi-value-coreset modes and of an exhausted Stepper on the small
// islands: FinalDL bits, gain evaluations, iterations, a digest of every
// per-iteration stat, a digest of the ranked patterns, and the BaselineDL
// and CondEntropy bits. Any change to how pairs are enumerated, priced,
// tie-broken or counted for Fig. 5, or to how a model is assembled from
// its final lines, moves one of these numbers.
func TestMiningTracesPinned(t *testing.T) {
	smallCfg := dataset.DefaultIslands()
	smallCfg.Seed = 7
	small := dataset.Islands(smallCfg)
	midCfg := dataset.BenchIslands()
	midCfg.MinNodes, midCfg.MaxNodes = 250, 500
	mid := dataset.IslandsWithEdgeSeeds(midCfg, nil)

	type pin struct {
		bits         uint64
		evals, iters int
		digest       uint64
		patterns     uint64
		baseline     uint64
		cond         uint64
	}
	check := func(name string, m *Model, want pin) {
		t.Helper()
		got := pin{math.Float64bits(m.FinalDL), m.GainEvals, m.Iterations, traceDigest(m),
			patternsDigest(m), math.Float64bits(m.BaselineDL), math.Float64bits(m.CondEntropy)}
		if got != want {
			t.Errorf("%s: got %#v, want %#v", name, got, want)
		}
	}
	for _, workers := range []int{1, 4} {
		for _, tc := range []struct {
			variant Variant
			want    pin
		}{
			{Basic, pin{0x40d4886efcda5cec, 155751, 129, 0x868ba711640e894f, 0xf9a57d1f2060013f, 0x40de1c2934ceee7b, 0x400efc5ab89a214a}},
			{Partial, pin{0x40d4886efcda5cec, 6515, 129, 0x52e3a72667d74ad3, 0xf9a57d1f2060013f, 0x40de1c2934ceee7b, 0x400efc5ab89a214a}},
		} {
			m := MineWithOptions(small, Options{Variant: tc.variant, CollectStats: true, Workers: workers})
			check(fmt.Sprintf("small/%v/workers=%d", tc.variant, workers), m, tc.want)
		}
	}
	check("mid/sharded-cached", MineShardedCached(mid, Options{CollectStats: true}, nil),
		pin{0x4124a6945d3a7ff0, 666558, 2791, 0x715e09685a49f8bd, 0x37f5f2d159c665f8, 0x412e7c1d9b7909b6, 0x401723390c7a3fc7})

	multi, err := MineMultiCore(small)
	if err != nil {
		t.Fatal(err)
	}
	check("small/multicore", multi,
		pin{0x40d38713c693ca58, 8126, 159, 0xcc5be8bc6644066, 0x4d2ef2207b35c717, 0x40dc07539f0e695c, 0x400c73f552cdc7bb})
	check("small/multicore-krimp", mineMultiCoreKrimp(t, small, 2),
		pin{0x40d3b628545efa5a, 7481, 148, 0xe0d0e145ca56dc32, 0xb59ebc3b1798e71a, 0x40dbece94776f1af, 0x400c7abb65e8c22f})
	s := NewStepper(small, Options{})
	for {
		if _, ok := s.Step(); !ok {
			break
		}
	}
	// A snapshot carries no trace and no gain evaluations.
	check("small/stepper", s.Snapshot(),
		pin{0x40d4886efcda5cec, 0, 129, 0xcbf29ce484222325, 0xf9a57d1f2060013f, 0x40de1c2934ceee7b, 0x400efc5ab89a214a})
}
