// Determinism regression: the models the miner produces must be
// bit-identical regardless of the gain-evaluation worker count. Gain
// evaluation is a pure read of the inverted database and every worker runs
// the same float pipeline over the same operands, so serial and parallel
// runs must agree on every merge (PerIter), every pattern, and the final
// description lengths — to the last bit, not within a tolerance.
package cspm_test

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"cspm"
	"cspm/internal/dataset"
	"cspm/internal/experiments"
)

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func assertIdenticalModels(t *testing.T, name string, a, b *cspm.Model) {
	t.Helper()
	if !sameBits(a.BaselineDL, b.BaselineDL) {
		t.Fatalf("%s: BaselineDL bits differ: %v vs %v", name, a.BaselineDL, b.BaselineDL)
	}
	if !sameBits(a.FinalDL, b.FinalDL) {
		t.Fatalf("%s: FinalDL bits differ: %v vs %v", name, a.FinalDL, b.FinalDL)
	}
	if a.Iterations != b.Iterations {
		t.Fatalf("%s: merge counts differ: %d vs %d", name, a.Iterations, b.Iterations)
	}
	// The merge sequence: per-iteration gains and DL trajectories identify
	// each applied merge, so bit-equality here means the same merges in the
	// same order.
	if len(a.PerIter) != len(b.PerIter) {
		t.Fatalf("%s: PerIter lengths differ: %d vs %d", name, len(a.PerIter), len(b.PerIter))
	}
	for i := range a.PerIter {
		ai, bi := a.PerIter[i], b.PerIter[i]
		if !sameBits(ai.Gain, bi.Gain) || !sameBits(ai.TotalDL, bi.TotalDL) {
			t.Fatalf("%s: iteration %d diverged: gain %v vs %v, DL %v vs %v",
				name, i+1, ai.Gain, bi.Gain, ai.TotalDL, bi.TotalDL)
		}
		if ai.GainUpdates != bi.GainUpdates || ai.PossiblePairs != bi.PossiblePairs {
			t.Fatalf("%s: iteration %d stats diverged: %+v vs %+v", name, i+1, ai, bi)
		}
	}
	if !reflect.DeepEqual(a.Patterns, b.Patterns) {
		t.Fatalf("%s: pattern lists differ", name)
	}
}

func TestWorkersDeterminismPlanted(t *testing.T) {
	g, _ := dataset.Planted(dataset.DefaultPlanted())
	for _, variant := range []cspm.Variant{cspm.Partial, cspm.Basic} {
		serial := cspm.MineWithOptions(g, cspm.Options{Variant: variant, CollectStats: true, Workers: 1})
		parallel := cspm.MineWithOptions(g, cspm.Options{Variant: variant, CollectStats: true, Workers: 8})
		assertIdenticalModels(t, "planted/"+variant.String(), serial, parallel)
	}
}

func TestWorkersDeterminismMini(t *testing.T) {
	g := experiments.MiniGraph(1)
	serial := cspm.MineWithOptions(g, cspm.Options{CollectStats: true, Workers: 1})
	parallel := cspm.MineWithOptions(g, cspm.Options{CollectStats: true, Workers: 8})
	defaulted := cspm.MineWithOptions(g, cspm.Options{CollectStats: true}) // Workers 0 → all cores
	assertIdenticalModels(t, "mini/serial-vs-8", serial, parallel)
	assertIdenticalModels(t, "mini/serial-vs-default", serial, defaulted)
}

// TestShardedDeterminism extends the worker-count contract to the component
// pipeline: for every worker budget — which also bounds how many groups mine
// at once — the full model, including the per-iteration merge trajectory
// with its shard assignments, must be bit-identical, because shard
// construction, per-shard searches, and the merge step are all pure
// functions of the graph.
func TestShardedDeterminism(t *testing.T) {
	g := dataset.Islands(dataset.DefaultIslands())
	ref := cspm.MineShardedCached(g, cspm.Options{CollectStats: true, Workers: 1}, nil)
	for _, workers := range []int{2, 3, 8, 0} { // 0 → all cores
		got := cspm.MineShardedCached(g, cspm.Options{CollectStats: true, Workers: workers}, nil)
		name := fmt.Sprintf("islands/workers=%d", workers)
		assertIdenticalModels(t, name, ref, got)
		for i := range ref.PerIter {
			if ref.PerIter[i].Shard != got.PerIter[i].Shard {
				t.Fatalf("%s: iteration %d ran on shard %d vs %d",
					name, i+1, got.PerIter[i].Shard, ref.PerIter[i].Shard)
			}
		}
	}
}

func TestInvalidOptionsPanic(t *testing.T) {
	g := experiments.MiniGraph(1)
	for _, opts := range []cspm.Options{{Workers: -1}, {MaxIterations: -3}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("MineWithOptions accepted invalid %+v", opts)
				}
			}()
			cspm.MineWithOptions(g, opts)
		}()
	}
}
