// Package cspm implements the paper's contribution: the Compressing Star
// Pattern Miner (CSPM), a parameter-free algorithm that extracts
// attribute-stars from an attributed graph by greedily merging
// inverted-database leafsets under the MDL principle (paper §IV–V). Both
// variants are provided: CSPM-Basic (Algorithm 1, full candidate
// regeneration each iteration) and CSPM-Partial (Algorithms 3–4,
// incremental gain maintenance through the related-leafset dictionary).
package cspm

import (
	"cmp"
	"fmt"
	"sort"
	"strings"

	"cspm/internal/graph"
)

// AStar is a mined attribute-star S = (Sc, SL): if the core values appear on
// a vertex, the leaf values tend to appear on its neighbours. Shorter code
// lengths mean more informative patterns (paper §IV-A).
type AStar struct {
	CoreValues []graph.AttrID
	LeafValues []graph.AttrID
	FL         int     // occurrences of this exact line
	FC         int     // frequency of the coreset in the inverted database
	CodeLen    float64 // L(Code_c) + L(Code_L) in bits (Eq. 4)
}

// Confidence is fL/fc, the empirical probability of the leafset given the
// coreset — the quantity the conditional-entropy code optimises.
func (s AStar) Confidence() float64 {
	if s.FC == 0 {
		return 0
	}
	return float64(s.FL) / float64(s.FC)
}

// Format renders the a-star with a vocabulary, e.g. ({ICDM}, {PODS EDBT}).
func (s AStar) Format(v *graph.Vocab) string {
	core := make([]string, len(s.CoreValues))
	for i, a := range s.CoreValues {
		core[i] = v.Name(a)
	}
	leaf := make([]string, len(s.LeafValues))
	for i, a := range s.LeafValues {
		leaf[i] = v.Name(a)
	}
	sort.Strings(core)
	sort.Strings(leaf)
	return fmt.Sprintf("({%s}, {%s})", strings.Join(core, " "), strings.Join(leaf, " "))
}

// IterationStat records one merge iteration for the gain-update-ratio
// analysis of Fig. 5. In a sharded run, GainUpdates, PossiblePairs and
// TotalDL describe the database the merge ran against — the shard's, not the
// global one.
type IterationStat struct {
	Iteration     int
	GainUpdates   int     // gain evaluations performed this iteration
	PossiblePairs int     // C(active leafsets, 2) at iteration start
	UpdateRatio   float64 // GainUpdates / PossiblePairs
	Gain          float64 // realised DL reduction of the applied merge
	TotalDL       float64 // DL after the merge
	// Shard is the shard that applied the merge: in a component-grained run
	// the index of its group among the run's dirty groups, 0 in unsharded
	// runs.
	Shard int
}

// Model is the output of a mining run: the a-stars ordered by ascending code
// length, plus run diagnostics.
type Model struct {
	Patterns []AStar
	Vocab    *graph.Vocab

	BaselineDL  float64
	FinalDL     float64
	Iterations  int
	GainEvals   int // total gain evaluations across the run
	PerIter     []IterationStat
	CondEntropy float64

	// ShardCount is the number of shard searches a component-pipeline run
	// executed: the number of component groups it mined (0 when every group
	// replayed from cache). Whole-graph runs (Mine, MineWithOptions,
	// MineDB) report 0.
	ShardCount int

	// CacheHits/CacheMisses count the component groups a component-pipeline
	// run replayed from, respectively re-mined into, its shard cache (both 0
	// in uncached runs). CacheEvictions counts the cache entries the run
	// dropped from memory because neither it nor the run before it used
	// them.
	CacheHits      int
	CacheMisses    int
	CacheEvictions int

	// RemoteJobs counts the shard jobs a MineDistributed run dispatched
	// over its transport; RemoteRetries the re-submissions after drops,
	// timeouts, corrupt blobs or worker errors; RemoteDuplicates the
	// responses discarded because their job was already satisfied (late
	// originals, transport-level duplicates); LocalFallbacks the jobs that
	// exhausted their retries and were mined in-process instead. All 0
	// outside distributed runs.
	RemoteJobs       int
	RemoteRetries    int
	RemoteDuplicates int
	LocalFallbacks   int
}

// CompressionRatio is FinalDL/BaselineDL; lower is better.
func (m *Model) CompressionRatio() float64 {
	if m.BaselineDL == 0 {
		return 1
	}
	return m.FinalDL / m.BaselineDL
}

// TopK returns the k best-ranked (shortest-code) patterns.
func (m *Model) TopK(k int) []AStar {
	if k > len(m.Patterns) {
		k = len(m.Patterns)
	}
	return m.Patterns[:k]
}

// MultiLeaf returns only patterns whose leafset has at least two values —
// the patterns produced by at least one merge, which are the interesting
// ones for reporting (initial lines are trivially single-leaf).
func (m *Model) MultiLeaf() []AStar {
	idx := m.MultiLeafIndex()
	out := make([]AStar, len(idx))
	for k, i := range idx {
		out[k] = m.Patterns[i]
	}
	return out
}

// MultiLeafIndex returns the positions in Patterns of the patterns
// MultiLeaf returns, ascending, in a slice of exactly that length: the
// same view without copying a pattern.
func (m *Model) MultiLeafIndex() []int32 {
	n := 0
	for i := range m.Patterns {
		if len(m.Patterns[i].LeafValues) >= 2 {
			n++
		}
	}
	idx := make([]int32, 0, n)
	for i := range m.Patterns {
		if len(m.Patterns[i].LeafValues) >= 2 {
			idx = append(idx, int32(i))
		}
	}
	return idx
}

// comparePatterns is the pattern ranking, taking each pattern as its code
// length, core and leaf values: ascending code length, then lexicographic
// contents. The order is total over distinct (core, leafset) pairs, so runs
// — sharded or not — are deterministic.
func comparePatterns(lenA float64, coreA, leafA []graph.AttrID, lenB float64, coreB, leafB []graph.AttrID) int {
	if c := cmp.Compare(lenA, lenB); c != 0 {
		return c
	}
	if c := graph.CompareAttrs(coreA, coreB); c != 0 {
		return c
	}
	return graph.CompareAttrs(leafA, leafB)
}
