package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"

	icspm "cspm/internal/cspm"
	"cspm/internal/graph"
	"cspm/internal/obs"
	"cspm/internal/serve"
)

// probeCount is the size of the fixed probe set a query workload answers
// before and after its measured phase.
const probeCount = 64

// probeRequests draws the run's probe set from its own stream of the seed.
func (r *runner) probeRequests() []request {
	rd := r.newReader(0, window{}, 0)
	rd.rng = rand.New(rand.NewSource(r.seed ^ 0x5eed))
	out := make([]request, probeCount)
	for i := range out {
		out[i] = rd.next()
	}
	return out
}

// probe sends the probe set and returns each answer re-encoded as JSON. With
// verify set it also checks every answer against the served snapshot.
func (r *runner) probe(reqs []request, gen uint64, verify bool) []string {
	rd := r.newReader(0, window{}, gen)
	snap := r.env.srv.Snapshot()
	out := make([]string, len(reqs))
	for i, req := range reqs {
		resp, err := rd.do(req)
		if err == nil {
			err = rd.validate(req, resp)
		}
		if err == nil && verify {
			err = verifyAnswer(snap, req, resp)
		}
		if err != nil {
			r.fail("probe %d: %v", i, err)
			continue
		}
		var b []byte
		if len(req.vertices) == 0 {
			b, err = json.Marshal(resp.patterns)
		} else {
			b, err = json.Marshal(resp.complete)
		}
		if err != nil {
			r.fail("probe %d: %v", i, err)
		}
		out[i] = string(b)
	}
	return out
}

// verifyAnswer recomputes an answer from the snapshot: every score must equal
// ScoreNode(v) at the value's id, candidates must be sorted by score
// descending with ties by name, and there must be min(top_k, finite scores)
// of them; a pattern page must list the model's patterns at its offset.
func verifyAnswer(snap *serve.Snapshot, req request, resp response) error {
	vocab := snap.Graph.Vocab()
	if len(req.vertices) == 0 {
		p := resp.patterns
		pats := snap.Model.Patterns
		if p.Total != len(pats) {
			return fmt.Errorf("patterns total %d, model has %d", p.Total, len(pats))
		}
		want := pats[min(req.offset, len(pats)):min(req.offset+pageSize, len(pats))]
		if len(p.Patterns) != len(want) {
			return fmt.Errorf("page at %d has %d patterns, want %d", req.offset, len(p.Patterns), len(want))
		}
		for i, got := range p.Patterns {
			w := want[i]
			if !slices.Equal(got.Core, sortedNames(vocab, w.CoreValues)) || !slices.Equal(got.Leaf, sortedNames(vocab, w.LeafValues)) ||
				got.FL != w.FL || got.FC != w.FC || got.CodeLen != w.CodeLen || got.Confidence != w.Confidence() {
				return fmt.Errorf("pattern %d of the page at %d differs from the model's %s", i, req.offset, w.Format(vocab))
			}
		}
		return nil
	}
	for _, vr := range resp.complete.Results {
		row := snap.Scorer.ScoreNode(vr.Vertex)
		finite := 0
		for _, s := range row {
			if !math.IsInf(s, 0) && !math.IsNaN(s) {
				finite++
			}
		}
		if len(vr.Values) != min(req.topK, finite) {
			return fmt.Errorf("vertex %d: %d candidates, want min(top_k %d, %d finite scores)", vr.Vertex, len(vr.Values), req.topK, finite)
		}
		for i, c := range vr.Values {
			id, ok := vocab.Lookup(c.Value)
			if !ok || row[id] != c.Score {
				return fmt.Errorf("vertex %d: candidate %q scored %v, ScoreNode says otherwise", vr.Vertex, c.Value, c.Score)
			}
			if i > 0 {
				prev := vr.Values[i-1]
				if prev.Score < c.Score || (prev.Score == c.Score && prev.Value >= c.Value) {
					return fmt.Errorf("vertex %d: candidates %q and %q out of order", vr.Vertex, prev.Value, c.Value)
				}
			}
		}
	}
	return nil
}

func sortedNames(vocab *graph.Vocab, ids []graph.AttrID) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = vocab.Name(id)
	}
	slices.Sort(out)
	return out
}

// checkWrites runs after the final flush of a write phase: every acked batch
// must have been published, the served graph must be the one the edits
// describe, the served model must equal a cold mine of it, and the re-mines
// must have used the cache the way the edits intend.
func (r *runner) checkWrites() {
	for _, o := range r.wr.writes {
		if o.err != nil {
			continue
		}
		if _, ok := eventAt(o.trace, obs.StagePublished); !ok {
			r.fail("acked batch %d has no %s event", o.seq, obs.StagePublished)
			break
		}
	}
	snap := r.env.srv.Snapshot()
	if err := r.wr.edits.verify(snap.Graph); err != nil {
		r.fail("%v", err)
	}
	if err := sameModel(snap.Model, icspm.MineShardedCached(snap.Graph, tenantOptions().Mining, nil)); err != nil {
		r.fail("served model differs from a cold mine of the served graph: %v", err)
	}
	// Degenerate-run guards: island-local edits must both hit and miss, with
	// a miss in every re-mine; global edits must miss everywhere.
	b, a := r.phaseCtr[0], r.phaseCtr[1]
	hits, misses := a.cache.Hits-b.cache.Hits, a.cache.Misses-b.cache.Misses
	remines := a.m.Remines - b.m.Remines
	switch {
	case remines == 0:
		r.fail("no re-mine ran")
	case misses < remines:
		r.fail("%d cache misses over %d re-mines: some re-mine replayed every group", misses, remines)
	case r.w.global && hits != 0:
		r.fail("global edits hit the cache %d times", hits)
	case !r.w.global && hits == 0:
		r.fail("island-local edits never hit the cache")
	}
}

// sameModel compares two models of the same graph pattern for pattern.
func sameModel(served, cold *icspm.Model) error {
	if len(served.Patterns) != len(cold.Patterns) {
		return fmt.Errorf("%d patterns, cold mine has %d", len(served.Patterns), len(cold.Patterns))
	}
	for i, p := range served.Patterns {
		q := cold.Patterns[i]
		if !slices.Equal(p.CoreValues, q.CoreValues) || !slices.Equal(p.LeafValues, q.LeafValues) ||
			p.FL != q.FL || p.FC != q.FC || p.CodeLen != q.CodeLen {
			return fmt.Errorf("pattern %d is %s, cold mine has %s", i, p.Format(served.Vocab), q.Format(cold.Vocab))
		}
	}
	if served.BaselineDL != cold.BaselineDL || served.FinalDL != cold.FinalDL {
		return fmt.Errorf("DLs %v/%v, cold mine has %v/%v", served.BaselineDL, served.FinalDL, cold.BaselineDL, cold.FinalDL)
	}
	return nil
}
