package invdb

import (
	"cspm/internal/epoch"
	"cspm/internal/graph"
)

// EvalScratch is the per-evaluator scratch arena that makes gain evaluation
// (SweepMerges, EvalMerge) allocation-free in steady state: the leafset-union
// buffer and interning key buffer back the union-collision lookup, and the epoch-stamped
// attribute set replaces the per-call dedup map of the union spell-out
// cost. A scratch belongs to exactly one goroutine; parallel gain evaluators
// each own one (NewEvalScratch) and share the DB read-only, so scratches
// never synchronise. Buffers grow on demand and are never shrunk.
type EvalScratch struct {
	unionBuf []graph.AttrID // content(x) ∪ content(y) for the collision lookup
	keyBuf   []byte         // interning key encoding of unionBuf
	seenAttr epoch.Set      // dedup of unionSpellLen, keyed by AttrID

	// SweepMerges state: per-partner accumulators keyed by LeafsetID, valid
	// where seenLeaf marks them in the current sweep, and the partners in
	// first-sight order.
	acc      []sweepAcc
	seenLeaf epoch.Set
	order    []LeafsetID
}

// NewEvalScratch returns an empty scratch arena for use with SweepMerges.
// Buffers are sized lazily on first use.
func NewEvalScratch() *EvalScratch { return &EvalScratch{} }
