package serve

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"

	icspm "cspm/internal/cspm"
	"cspm/internal/dataset"
	"cspm/internal/graph"
)

// handlePatternsReference is the encoder-backed /patterns handler the page
// writer replaced: it builds a PatternsResponse and hands it to writeJSON.
// It is the oracle the page writer's bytes are held to.
func (s *Server) handlePatternsReference(w http.ResponseWriter, r *http.Request) {
	s.met.patternsReqs.Add(1)
	offset, err := queryInt(r.URL.Query(), "offset", 0)
	if err != nil || offset < 0 {
		s.badRequest(w, "bad offset: want a non-negative integer")
		return
	}
	limit, err := queryInt(r.URL.Query(), "limit", defaultPageLimit)
	if err != nil || limit <= 0 || limit > maxPageLimit {
		s.badRequest(w, "bad limit: want an integer in [1,%d]", maxPageLimit)
		return
	}
	snap := s.snap.Load()
	patterns := snap.Model.Patterns
	total := len(patterns)
	multi := r.URL.Query().Get("multileaf") == "1"
	if multi {
		total = len(snap.multiLeaf)
	}
	resp := PatternsResponse{
		Generation: snap.Generation,
		Total:      total,
		Offset:     offset,
		Limit:      limit,
		Patterns:   []PatternJSON{},
	}
	vocab := snap.Graph.Vocab()
	for i := offset; i < total && i < offset+limit; i++ {
		j := i
		if multi {
			j = int(snap.multiLeaf[i])
		}
		p := &patterns[j]
		resp.Patterns = append(resp.Patterns, PatternJSON{
			Core:       attrNames(vocab, p.CoreValues),
			Leaf:       attrNames(vocab, p.LeafValues),
			FL:         p.FL,
			FC:         p.FC,
			Confidence: p.Confidence(),
			CodeLen:    p.CodeLen,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// attrNames renders interned ids by name, sorted for a stable wire order.
func attrNames(v *graph.Vocab, ids []graph.AttrID) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = v.Name(id)
	}
	sort.Strings(out)
	return out
}

// midArchipelago is the 12-group, 4,210-vertex graph behind the *_Mid
// micros and the write_global workload.
func midArchipelago() *graph.Graph {
	cfg := dataset.BenchIslands()
	cfg.MinNodes, cfg.MaxNodes = 250, 500
	return dataset.IslandsWithEdgeSeeds(cfg, nil)
}

// midSnapshot is a generation-1 snapshot of the mid archipelago, mined once
// per test binary.
var midSnapshot = sync.OnceValue(func() *Snapshot {
	g := midArchipelago()
	m := icspm.MineShardedCached(g, icspm.Options{CollectStats: true}, nil)
	return newSnapshot(1, g, m, modelChecksum(m))
})

// pageSnapshot is the part of a snapshot a page reads, for hand-built
// models no scorer could be built over.
func pageSnapshot(gen uint64, g *graph.Graph, m *icspm.Model) *Snapshot {
	return &Snapshot{Generation: gen, Graph: g, Model: m, multiLeaf: m.MultiLeafIndex()}
}

// pageServer is a bare server answering reads from snap.
func pageServer(snap *Snapshot) *Server {
	s := &Server{}
	s.snap.Store(snap)
	return s
}

// requireSamePage serves rawQuery through handlePatterns and through
// handlePatternsReference and fails unless status, Content-Type and body
// agree byte for byte; a body the writer sends carries its Content-Length.
func requireSamePage(t *testing.T, s *Server, rawQuery string) {
	t.Helper()
	serve := func(h func(*Server, http.ResponseWriter, *http.Request)) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodGet, "/v2/graphs/default/patterns", nil)
		req.URL.RawQuery = rawQuery
		w := httptest.NewRecorder()
		h(s, w, req)
		return w
	}
	got, want := serve((*Server).handlePatterns), serve((*Server).handlePatternsReference)
	if got.Code != want.Code || got.Header().Get("Content-Type") != want.Header().Get("Content-Type") {
		t.Fatalf("%q: status %d %q, reference %d %q", rawQuery,
			got.Code, got.Header().Get("Content-Type"), want.Code, want.Header().Get("Content-Type"))
	}
	if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Fatalf("%q: body diverged from the reference:\n got: %q\nwant: %q", rawQuery, got.Body.Bytes(), want.Body.Bytes())
	}
	if got.Code == http.StatusOK && got.Body.Len() > 0 {
		if cl := got.Header().Get("Content-Length"); cl != fmt.Sprint(got.Body.Len()) {
			t.Fatalf("%q: Content-Length %q for a %d-byte body", rawQuery, cl, got.Body.Len())
		}
	}
}

// TestPatternsPageMatchesReference walks mined models' pattern lists, whole
// and multi-leaf, at limits 1, 7, 50, 500 and 1000 and checks every page
// against the reference handler's bytes: the small islands graph
// throughout, the mid archipelago at a stride.
func TestPatternsPageMatchesReference(t *testing.T) {
	cfg := dataset.DefaultIslands()
	cfg.Seed = 7
	g := dataset.Islands(cfg)
	m := icspm.Mine(g)
	for _, tc := range []struct {
		name   string
		snap   *Snapshot
		stride int
	}{
		{"small", newSnapshot(3, g, m, ""), 1},
		{"mid", midSnapshot(), 997},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := pageServer(tc.snap)
			for _, multi := range []string{"", "&multileaf=1"} {
				total := len(tc.snap.Model.Patterns)
				if multi != "" {
					total = len(tc.snap.multiLeaf)
				}
				for _, limit := range []int{1, 7, 50, 500, 1000} {
					step := max(limit, tc.stride)
					for off := 0; off <= total+step; off += step {
						requireSamePage(t, s, fmt.Sprintf("offset=%d&limit=%d%s", off, limit, multi))
					}
				}
			}
			for _, q := range []string{"", "offset=-1", "limit=0", "limit=1001", "offset=x", "multileaf=1&multileaf=0"} {
				requireSamePage(t, s, q)
			}
		})
	}
}

// pageFloats are the code lengths FuzzPatternsPage deals: signed zeros,
// subnormals, encoding/json's exponent-form boundaries on both sides, and
// the non-finite values it refuses.
var pageFloats = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072014e-308,
	1e-7, math.Nextafter(1e-6, 0), 1e-6, -1e-6, 1.5e-9,
	math.Nextafter(1e21, 0), 1e21, -1e21, 1.7976931348623157e308,
	9.53125, 0.1, 123456789.125,
	math.NaN(), math.Inf(1), math.Inf(-1),
}

// fuzzPageSnapshot builds a snapshot from fuzz inputs: one vocabulary value
// per '|'-separated name of names (duplicates intern once), and patterns
// dealt from shape — per pattern a core count, a leaf count, value ids
// (repeats kept), and a selector byte choosing the code length from
// pageFloats or codeLen and fL, fc from small values or fl, fc.
func fuzzPageSnapshot(t *testing.T, names string, shape []byte, fl, fc int, codeLen float64) *Snapshot {
	b := graph.NewBuilder(1)
	for _, name := range strings.Split(names, "|") {
		if err := b.AddAttr(0, name); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Build()
	nV := g.NumAttrValues()
	next := func() int {
		if len(shape) == 0 {
			return 0
		}
		c := int(shape[0])
		shape = shape[1:]
		return c
	}
	ids := func(n int) []graph.AttrID {
		out := make([]graph.AttrID, n)
		for i := range out {
			out[i] = graph.AttrID(next() % nV)
		}
		return out
	}
	m := &icspm.Model{Vocab: g.Vocab()}
	for len(shape) > 0 && len(m.Patterns) < 64 {
		p := icspm.AStar{CoreValues: ids(next() % 3)}
		p.LeafValues = ids(1 + next()%4)
		sel := next()
		p.CodeLen = codeLen
		if k := sel % (len(pageFloats) + 1); k < len(pageFloats) {
			p.CodeLen = pageFloats[k]
		}
		p.FL, p.FC = sel&7, sel>>6-1
		if sel&0x10 != 0 {
			p.FL = fl
		}
		if sel&0x20 != 0 {
			p.FC = fc
		}
		m.Patterns = append(m.Patterns, p)
	}
	return pageSnapshot(uint64(len(names)), g, m)
}

// FuzzPatternsPage holds the page writer to the reference handler: for any
// vocabulary (control bytes, quotes, backslashes, HTML metacharacters,
// U+2028/U+2029, invalid UTF-8), any patterns (repeated values, fL and fc
// of any sign, code lengths at every float-format boundary, non-finite
// ones) and any offset, limit and multileaf, handlePatterns must answer
// with the reference's status, Content-Type and body bytes.
func FuzzPatternsPage(f *testing.F) {
	f.Add("ICDM|EDBT|PODS", []byte{1, 2, 0, 1, 2, 0x3e}, 41, 52, 9.53125, 0, 50, false)
	f.Add("a\"b|c\\d|<e>&|\x00\x1f\t\n|\u2028\u2029|\xff\xfeok|\u00e9", []byte{2, 3, 0, 1, 2, 3, 4, 5, 0x35, 0, 1, 6, 0xf7}, 7, 21, 12.125, 0, 7, true)
	f.Add("x|y|z", []byte{1, 3, 2, 1, 1, 1, 5, 0, 2, 0, 0, 9, 0, 1, 2, 2, 11}, 0, -3, math.Copysign(0, -1), 1, 2, true)
	f.Add("x|y", []byte{0, 1, 1, 0, 18, 0, 1, 1, 0, 19}, 1, 1, 1e-7, 0, 1000, false)
	f.Add("x|y", []byte{0, 1, 1, 0, 20}, 1, 1, math.NaN(), 0, 1000, false)
	f.Add("x", []byte{0, 0, 0, 20}, -1, 0, 1e21, 5, 0, false)
	f.Add("", []byte{}, 0, 0, 0.0, -1, 50, true)
	// One single-leaf pattern per pageFloats entry up to the non-finite
	// ones, then one with codeLen: every finite boundary on one page.
	var every []byte
	for k := 0; k <= len(pageFloats); k++ {
		if k == len(pageFloats) || !math.IsNaN(pageFloats[k]) && !math.IsInf(pageFloats[k], 0) {
			every = append(every, 0, 0, 0, byte(k))
		}
	}
	f.Add("x", every, 3, 4, -1.5e-7, 0, 1000, false)

	f.Fuzz(func(t *testing.T, names string, shape []byte, fl, fc int, codeLen float64, offset, limit int, multi bool) {
		s := pageServer(fuzzPageSnapshot(t, names, shape, fl, fc, codeLen))
		q := fmt.Sprintf("offset=%d&limit=%d", offset, limit)
		if multi {
			q += "&multileaf=1"
		}
		requireSamePage(t, s, q)
	})
}

// goldenPatternsSnapshot is a hand-built generation-7 snapshot of 96
// patterns whose page at offset 10, limit 2 is goldenPatternsResponse():
// its two patterns list their values out of name order, and the other 94
// are fillers.
func goldenPatternsSnapshot(t *testing.T) *Snapshot {
	want := goldenPatternsResponse()
	b := graph.NewBuilder(1)
	vocab := b.Vocab()
	ids := func(names []string) []graph.AttrID {
		out := make([]graph.AttrID, len(names))
		for i, name := range names {
			out[len(names)-1-i] = vocab.ID(name)
		}
		return out
	}
	filler := vocab.ID("filler")
	m := &icspm.Model{Vocab: vocab}
	for i := 0; i < want.Total; i++ {
		p := icspm.AStar{CoreValues: []graph.AttrID{filler}, LeafValues: []graph.AttrID{filler}, FL: 1, FC: 2, CodeLen: float64(i)}
		if k := i - want.Offset; k >= 0 && k < len(want.Patterns) {
			w := want.Patterns[k]
			p = icspm.AStar{CoreValues: ids(w.Core), LeafValues: ids(w.Leaf), FL: w.FL, FC: w.FC, CodeLen: w.CodeLen}
			if p.Confidence() != w.Confidence {
				t.Fatalf("golden pattern %d: fL/fc = %v, fixture confidence %v", k, p.Confidence(), w.Confidence)
			}
		}
		m.Patterns = append(m.Patterns, p)
	}
	return pageSnapshot(want.Generation, b.Build(), m)
}
