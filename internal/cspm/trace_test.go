package cspm

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"cspm/internal/dataset"
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

// TestMiningTracesPinned pins the complete search trace of Basic and Partial
// on the small islands graph (at one and four workers) and of a cold
// MineShardedCached run on the mid archipelago: FinalDL bits, gain
// evaluations, iterations and a digest of every per-iteration stat. Any
// change to how pairs are enumerated, priced, tie-broken or counted for
// Fig. 5 moves one of these numbers.
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
	}
	check := func(name string, m *Model, want pin) {
		t.Helper()
		got := pin{math.Float64bits(m.FinalDL), m.GainEvals, m.Iterations, traceDigest(m)}
		if got != want {
			t.Errorf("%s: got {bits %#x, evals %d, iters %d, digest %#x}, want {bits %#x, evals %d, iters %d, digest %#x}",
				name, got.bits, got.evals, got.iters, got.digest, want.bits, want.evals, want.iters, want.digest)
		}
	}
	for _, workers := range []int{1, 4} {
		for _, tc := range []struct {
			variant Variant
			want    pin
		}{
			{Basic, pin{0x40d4886efcda5cec, 155751, 129, 0x868ba711640e894f}},
			{Partial, pin{0x40d4886efcda5cec, 6515, 129, 0x52e3a72667d74ad3}},
		} {
			m := MineWithOptions(small, Options{Variant: tc.variant, CollectStats: true, Workers: workers})
			check(fmt.Sprintf("small/%v/workers=%d", tc.variant, workers), m, tc.want)
		}
	}
	check("mid/sharded-cached", MineShardedCached(mid, Options{CollectStats: true}, nil),
		pin{0x4124a6945d3a7ff0, 666558, 2791, 0x715e09685a49f8bd})
}
