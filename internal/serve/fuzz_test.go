package serve

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"

	"cspm/internal/completion"
)

// FuzzMutationBatchDecode hammers the WAL payload decode path with
// adversarial bytes: decodeBatch must never panic, anything it accepts must
// re-encode to a payload that decodes back to the same batch, and batch
// validation over whatever came out must never panic either — a corrupted
// or hostile WAL segment degrades to a decode error, not a crashed server.
// The seed corpus covers the live v2 framing, a bare-gob v1 payload, a
// truncation, and malformed magic/version framings.
func FuzzMutationBatchDecode(f *testing.F) {
	valid, err := encodeBatch([]Mutation{
		{Op: OpAddVertex},
		{Op: OpAddEdge, U: 8, V: 0},
		{Op: OpAddAttr, U: 8, Value: "vldb"},
		{Op: OpDelVertex, U: 8},
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	var v1 bytes.Buffer
	if err := gob.NewEncoder(&v1).Encode([]Mutation{{Op: OpAddAttr, U: 1, Value: "x"}}); err != nil {
		f.Fatal(err)
	}
	f.Add(v1.Bytes())
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Add([]byte{0x00, 'W', 'A', 'L'})          // magic with no version
	f.Add([]byte{0x00, 'W', 'A', 'L', 1})       // framed v1 is not a thing
	f.Add([]byte{0x00, 'W', 'A', 'L', 99})      // version from the future
	f.Add([]byte{0x00, 'X', 'A', 'L', 2, 0, 0}) // near-miss magic

	f.Fuzz(func(t *testing.T, payload []byte) {
		muts, err := decodeBatch(payload)
		if err != nil {
			return
		}
		// Round-trip invariance: an accepted batch re-encodes (always as the
		// current version) to a payload that decodes to the identical batch.
		re, err := encodeBatch(muts)
		if err != nil {
			t.Fatalf("re-encode of a decoded batch failed: %v", err)
		}
		again, err := decodeBatch(re)
		if err != nil {
			t.Fatalf("decode of a re-encoded batch failed: %v", err)
		}
		if !reflect.DeepEqual(again, muts) {
			t.Fatalf("round-trip changed the batch:\n got %+v\nwant %+v", again, muts)
		}
		// Validation must reject or accept, never panic, whatever the decoded
		// ops, ids and values look like.
		_, _ = validateBatch(muts, 8)
		_, _ = validateBatch(muts, 0)
	})
}

// FuzzCompleteRequest drives POST /v2/graphs/default/complete through the
// host's one HTTP surface with adversarial bodies. The handler must never
// panic, and must answer either 200 with a CompleteResponse computed
// against the served snapshot, or 400 with the bad_request envelope —
// nothing else. The seed corpus covers a valid request, oversized vertex
// lists and top_k, non-finite and short model_scores rows, an out-of-range
// vertex, and a truncated body.
func FuzzCompleteRequest(f *testing.F) {
	h, err := NewHost(HostOptions{})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { h.Close() })
	s, err := h.Create(DefaultNamespace, testGraph(f), nil)
	if err != nil {
		f.Fatal(err)
	}
	snap := s.Snapshot()
	n, nA := snap.Graph.NumVertices(), snap.Graph.NumAttrValues()
	row := "[" + strings.TrimSuffix(strings.Repeat("0.5,", nA), ",") + "]"
	valid := fmt.Sprintf(`{"vertices":[0,4,4],"top_k":3,"model_scores":{"4":%s}}`, row)
	f.Add([]byte(valid))
	f.Add([]byte(valid[:len(valid)/2]))
	f.Add([]byte(`{"vertices":[0]}`))
	f.Add([]byte(`{"vertices":[]}`))
	f.Add([]byte(`{"vertices":[0],"top_k":100000}`))
	f.Add([]byte(`{"vertices":[0],"top_k":-1}`))
	f.Add([]byte(fmt.Sprintf(`{"vertices":[%d]}`, n)))
	f.Add([]byte(`{"vertices":[4294967295]}`))
	f.Add([]byte(`{"vertices":[0` + strings.Repeat(",0", maxCompleteVertices) + `]}`))
	f.Add([]byte(`{"vertices":[0],"model_scores":{"0":[1e999]}}`))
	f.Add([]byte(`{"vertices":[0],"model_scores":{"0":[0.5]}}`))
	f.Add([]byte(fmt.Sprintf(`{"vertices":[0],"model_scores":{"%d":%s}}`, n, row)))
	f.Add([]byte(`{"vertices":[0],"model_scores":{"x":[]}}`))
	f.Add([]byte(`null`))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v2/graphs/default/complete", bytes.NewReader(body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		dec := json.NewDecoder(w.Body)
		dec.DisallowUnknownFields()
		switch w.Code {
		case http.StatusOK:
			var resp CompleteResponse
			if err := dec.Decode(&resp); err != nil {
				t.Fatalf("200 body is not a CompleteResponse: %v", err)
			}
			if resp.Generation != snap.Generation {
				t.Fatalf("200 answered generation %d, served snapshot is %d", resp.Generation, snap.Generation)
			}
			// Every answer must be the sorting oracle's ranking of the
			// vertex's (fused) score row, decoded the way the handler did.
			var req CompleteRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
				t.Fatalf("200 for a body the handler cannot have decoded: %v", err)
			}
			topK := req.TopK
			if topK == 0 {
				topK = defaultTopK
			}
			fuse, err := parseModelScores(req.ModelScores, n, nA)
			if err != nil {
				t.Fatalf("200 for model_scores the handler must reject: %v", err)
			}
			if len(resp.Results) != len(req.Vertices) {
				t.Fatalf("200 answered %d vertices, asked %d", len(resp.Results), len(req.Vertices))
			}
			for i, res := range resp.Results {
				v := req.Vertices[i]
				row := snap.Scorer.ScoreNode(v)
				if mrow, ok := fuse[v]; ok {
					if f := completion.FuseRows(mrow, row); f != nil {
						row = f
					} else {
						row = mrow
					}
				}
				want := rankRowReference(row, snap.Graph.Vocab(), topK)
				if res.Vertex != v || !reflect.DeepEqual(res.Values, want) {
					t.Fatalf("vertex %d answered %v %s, oracle ranks %s", v, res.Vertex, fmtCandidates(res.Values), fmtCandidates(want))
				}
			}
		case http.StatusBadRequest:
			var e ErrorJSON
			if err := dec.Decode(&e); err != nil || e.Code != CodeBadRequest || e.Error == "" {
				t.Fatalf("400 body is not the bad_request envelope: %+v (%v)", e, err)
			}
		default:
			t.Fatalf("status %d, want 200 or 400", w.Code)
		}
	})
}

// FuzzQueryParams feeds raw query strings to GET /patterns and GET /watch
// through the host's HTTP surface. Neither handler may panic, and each must
// answer 200 or the 400 bad_request envelope. A 200 page from /patterns has
// a non-negative offset, a limit in [1, maxPageLimit] and at most limit
// patterns; its total is the length of the view the query selects (the
// multi-leaf patterns when multileaf is 1, as URL.Query parses it, else
// every pattern), and its i-th pattern is that view's element offset+i.
// The /watch query is prefixed with generation=0, which the served snapshot
// always satisfies, so every 200 resolves at once with the served
// generation and never times out. The seed corpus covers paging bounds,
// the last multi-leaf pattern and one past it, int64 overflow, malformed
// escapes and separators, and the watch timeout's clamp.
func FuzzQueryParams(f *testing.F) {
	h, err := NewHost(HostOptions{})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { h.Close() })
	s, err := h.Create(DefaultNamespace, testGraph(f), nil)
	if err != nil {
		f.Fatal(err)
	}
	snap := s.Snapshot()
	gen, vocab := snap.Generation, snap.Graph.Vocab()
	all, multi := snap.Model.Patterns, snap.Model.MultiLeaf()
	for _, seed := range []string{
		"",
		"offset=1&limit=2",
		"limit=1000&multileaf=1",
		fmt.Sprintf("multileaf=1&offset=%d", len(multi)-1),
		fmt.Sprintf("multileaf=1&offset=%d&limit=1", len(multi)),
		"multileaf=1&multileaf=0&offset=1",
		"multileaf=0&limit=1000",
		"multileaf=true",
		"multileaf=%31",
		"limit=1001",
		"limit=0",
		"offset=-1",
		"offset=9223372036854775807&limit=1000",
		"offset=99999999999999999999",
		"limit=1;offset=2",
		"offset=%zz&limit=%31",
		"timeout_ms=-5",
		"timeout_ms=9223372036854775807",
		"generation=99&timeout_ms=1", // the prefixed generation=0 wins
	} {
		f.Add(seed)
	}

	get := func(t *testing.T, path, rawQuery string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		req.URL.RawQuery = rawQuery
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code == http.StatusBadRequest {
			var e ErrorJSON
			if err := json.NewDecoder(w.Body).Decode(&e); err != nil || e.Code != CodeBadRequest || e.Error == "" {
				t.Fatalf("%s?%s: 400 body is not the bad_request envelope: %+v (%v)", path, rawQuery, e, err)
			}
		} else if w.Code != http.StatusOK {
			t.Fatalf("%s?%s: status %d, want 200 or 400", path, rawQuery, w.Code)
		}
		return w
	}

	f.Fuzz(func(t *testing.T, rawQuery string) {
		if w := get(t, "/v2/graphs/default/patterns", rawQuery); w.Code == http.StatusOK {
			var page PatternsResponse
			if err := json.NewDecoder(w.Body).Decode(&page); err != nil {
				t.Fatalf("200 body is not a PatternsResponse: %v", err)
			}
			if page.Offset < 0 || page.Limit < 1 || page.Limit > maxPageLimit || len(page.Patterns) > page.Limit {
				t.Fatalf("%q: page offset %d limit %d with %d patterns", rawQuery, page.Offset, page.Limit, len(page.Patterns))
			}
			view := all
			if q, _ := url.ParseQuery(rawQuery); q.Get("multileaf") == "1" {
				view = multi
			}
			if page.Total != len(view) {
				t.Fatalf("%q: total %d, want %d", rawQuery, page.Total, len(view))
			}
			if want := min(page.Limit, max(0, len(view)-page.Offset)); len(page.Patterns) != want {
				t.Fatalf("%q: %d patterns at offset %d, want %d", rawQuery, len(page.Patterns), page.Offset, want)
			}
			for i, got := range page.Patterns {
				if !samePattern(got, vocab, view[page.Offset+i]) {
					t.Fatalf("%q: pattern %d = %+v, want %+v", rawQuery, page.Offset+i, got, view[page.Offset+i])
				}
			}
		}
		if w := get(t, "/v2/graphs/default/watch", "generation=0&"+rawQuery); w.Code == http.StatusOK {
			var resp WatchResponse
			if err := json.NewDecoder(w.Body).Decode(&resp); err != nil {
				t.Fatalf("200 body is not a WatchResponse: %v", err)
			}
			if resp.Generation != gen || resp.TimedOut {
				t.Fatalf("%q: watch answered %+v, want generation %d without a timeout", rawQuery, resp, gen)
			}
		}
	})
}
