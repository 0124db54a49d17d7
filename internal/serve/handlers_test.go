package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	icspm "cspm/internal/cspm"
	"cspm/internal/dataset"
	"cspm/internal/graph"
)

// infRow is a fusion row poisoned with one non-finite score.
func infRow(nA int) []float64 {
	row := make([]float64, nA)
	row[0] = math.Inf(1)
	return row
}

// serveDefault serves g as the default namespace of a fresh memory-only
// host behind a real HTTP stack, so the flat /v1 paths reach it through the
// alias exactly as /v2/graphs/default does.
func serveDefault(t *testing.T, g *graph.Graph) (*Server, *httptest.Server) {
	t.Helper()
	h := newTestHost(t, HostOptions{})
	s, err := h.Create(DefaultNamespace, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s, startHostHTTP(t, h)
}

func getJSON(t *testing.T, url string, out any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp
}

func postJSON(t *testing.T, url string, body any, out any) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s response: %v", url, err)
		}
	}
	return resp
}

func TestHTTPPatternsPagination(t *testing.T) {
	g := testGraph(t)
	_, hs := serveDefault(t, g)

	var full PatternsResponse
	if resp := getJSON(t, hs.URL+"/v1/patterns?limit=1000", &full); resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	want := icspm.Mine(g)
	if full.Total != len(want.Patterns) || len(full.Patterns) != len(want.Patterns) {
		t.Fatalf("total=%d patterns=%d, want %d", full.Total, len(full.Patterns), len(want.Patterns))
	}
	if full.Generation != 1 {
		t.Errorf("generation = %d, want 1", full.Generation)
	}
	// The page walk must reassemble the full ranked list.
	var walked []PatternJSON
	for off := 0; off < full.Total; off += 2 {
		var page PatternsResponse
		getJSON(t, fmt.Sprintf("%s/v1/patterns?offset=%d&limit=2", hs.URL, off), &page)
		if page.Offset != off || page.Limit != 2 {
			t.Fatalf("page echoes offset=%d limit=%d", page.Offset, page.Limit)
		}
		walked = append(walked, page.Patterns...)
	}
	if len(walked) != full.Total {
		t.Fatalf("page walk got %d patterns, want %d", len(walked), full.Total)
	}
	for i := range walked {
		if walked[i].CodeLen != full.Patterns[i].CodeLen || walked[i].FL != full.Patterns[i].FL {
			t.Fatalf("page walk diverged at %d", i)
		}
	}

	for _, q := range []string{"offset=-1", "limit=0", "limit=9999", "offset=x"} {
		if resp := getJSON(t, hs.URL+"/v1/patterns?"+q, nil); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", q, resp.StatusCode)
		}
	}
}

// samePattern reports whether a served pattern is p, named through vocab.
func samePattern(got PatternJSON, vocab *graph.Vocab, p icspm.AStar) bool {
	return reflect.DeepEqual(got.Core, attrNames(vocab, p.CoreValues)) &&
		reflect.DeepEqual(got.Leaf, attrNames(vocab, p.LeafValues)) &&
		got.FL == p.FL && got.FC == p.FC && got.CodeLen == p.CodeLen
}

// requireMultiLeafPages walks GET patterns?multileaf=1 in pages of 7 and
// checks each served pattern against snap.Model.MultiLeaf() at the same
// position, then checks that offsets past the end report the full total
// and no patterns.
func requireMultiLeafPages(t *testing.T, url string, snap *Snapshot) {
	t.Helper()
	const limit = 7
	want := snap.Model.MultiLeaf()
	vocab := snap.Graph.Vocab()
	page := func(off int) PatternsResponse {
		var p PatternsResponse
		getJSON(t, fmt.Sprintf("%s?multileaf=1&offset=%d&limit=%d", url, off, limit), &p)
		if p.Generation != snap.Generation || p.Total != len(want) || p.Offset != off {
			t.Fatalf("offset %d: generation %d total %d offset %d, want %d %d %d",
				off, p.Generation, p.Total, p.Offset, snap.Generation, len(want), off)
		}
		return p
	}
	for off := 0; off < len(want); off += limit {
		p := page(off)
		if n := min(limit, len(want)-off); len(p.Patterns) != n {
			t.Fatalf("offset %d: %d patterns, want %d", off, len(p.Patterns), n)
		}
		for i, got := range p.Patterns {
			if !samePattern(got, vocab, want[off+i]) {
				t.Fatalf("generation %d, multileaf pattern %d = %+v, want %+v", snap.Generation, off+i, got, want[off+i])
			}
		}
	}
	for _, off := range []int{len(want), len(want) + limit} {
		if p := page(off); len(p.Patterns) != 0 {
			t.Fatalf("offset %d past the end: %d patterns, want none", off, len(p.Patterns))
		}
	}
}

// TestHTTPMultiLeafPages checks what the multi-leaf page holds, pattern by
// pattern, on the small islands graph (690 multi-leaf patterns) and again
// after a mutation publishes generation 2, so the page follows the new
// model rather than the one it was first built over.
func TestHTTPMultiLeafPages(t *testing.T) {
	cfg := dataset.DefaultIslands()
	cfg.Seed = 7
	s, hs := serveDefault(t, dataset.Islands(cfg))
	url := hs.URL + "/v1/patterns"

	first := s.Snapshot()
	requireMultiLeafPages(t, url, first)

	vocab := first.Graph.Vocab()
	if err := s.SubmitMutations([]Mutation{
		{Op: OpAddVertex},
		{Op: OpAddEdge, U: graph.VertexID(first.Graph.NumVertices()), V: 0},
		{Op: OpAddAttr, U: graph.VertexID(first.Graph.NumVertices()), Value: vocab.Name(first.Graph.Attrs(0)[0])},
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(ctxShort(t)); err != nil {
		t.Fatal(err)
	}
	second := s.Snapshot()
	if second.Generation != 2 {
		t.Fatalf("generation = %d after the mutation, want 2", second.Generation)
	}
	if reflect.DeepEqual(second.Model.MultiLeaf(), first.Model.MultiLeaf()) {
		t.Fatal("the mutation left the multi-leaf patterns unchanged; the test needs one that moves them")
	}
	requireMultiLeafPages(t, url, second)
}

func TestHTTPComplete(t *testing.T) {
	g := testGraph(t)
	_, hs := serveDefault(t, g)

	var resp CompleteResponse
	if r := postJSON(t, hs.URL+"/v1/complete", CompleteRequest{Vertices: []uint32{0, 4}}, &resp); r.StatusCode != http.StatusOK {
		t.Fatalf("status %d", r.StatusCode)
	}
	if resp.Generation != 1 || len(resp.Results) != 2 {
		t.Fatalf("generation=%d results=%d", resp.Generation, len(resp.Results))
	}
	// Vertex 0 sits among smoker/cancer vertices: every core value in the
	// model is scored, but island 1's values must outrank island 2's (their
	// a-star leafsets overlap the neighbourhood, so the weight penalty is
	// smaller).
	if len(resp.Results[0].Values) == 0 {
		t.Fatal("vertex 0 got no candidates")
	}
	if top := resp.Results[0].Values[0].Value; top != "smoker" && top != "cancer" {
		t.Errorf("vertex 0 top candidate = %q, want an island-1 value", top)
	}

	var one CompleteResponse
	postJSON(t, hs.URL+"/v1/complete", CompleteRequest{Vertices: []uint32{0}, TopK: 1}, &one)
	if len(one.Results[0].Values) != 1 {
		t.Errorf("top_k=1 returned %d values", len(one.Results[0].Values))
	}

	// Fusion: a flat external model row keeps the CSPM ranking; the fused
	// request must succeed and score the same vertex.
	nA := g.NumAttrValues()
	row := make([]float64, nA)
	for i := range row {
		row[i] = 0.5
	}
	var fused CompleteResponse
	if r := postJSON(t, hs.URL+"/v1/complete", CompleteRequest{
		Vertices: []uint32{0}, ModelScores: map[string][]float64{"0": row},
	}, &fused); r.StatusCode != http.StatusOK {
		t.Fatalf("fused status %d", r.StatusCode)
	}
	if len(fused.Results) != 1 || len(fused.Results[0].Values) == 0 {
		t.Fatal("fused request returned no candidates")
	}

	// A duplicated vertex must fuse ONCE: both result entries carry the
	// same scores as the single-vertex request (double fusion would square
	// the CSPM weighting).
	var dup CompleteResponse
	if r := postJSON(t, hs.URL+"/v1/complete", CompleteRequest{
		Vertices: []uint32{0, 0}, ModelScores: map[string][]float64{"0": row},
	}, &dup); r.StatusCode != http.StatusOK {
		t.Fatalf("duplicate-vertex status %d", r.StatusCode)
	}
	if len(dup.Results) != 2 ||
		!reflect.DeepEqual(dup.Results[0].Values, fused.Results[0].Values) ||
		!reflect.DeepEqual(dup.Results[1].Values, fused.Results[0].Values) {
		t.Errorf("duplicated vertex fused differently:\n one %+v\n dup %+v", fused.Results[0], dup.Results)
	}

	bad := []CompleteRequest{
		{},                       // no vertices
		{Vertices: []uint32{99}}, // out of range
		{Vertices: []uint32{0}, TopK: -1},
		{Vertices: []uint32{0}, ModelScores: map[string][]float64{"0": {1}}},  // short row
		{Vertices: []uint32{0}, ModelScores: map[string][]float64{"99": row}}, // bad key
		{Vertices: []uint32{0}, ModelScores: map[string][]float64{"x": row}},  // non-numeric key
	}
	for i, req := range bad {
		if r := postJSON(t, hs.URL+"/v1/complete", req, nil); r.StatusCode != http.StatusBadRequest {
			t.Errorf("bad request %d: status %d, want 400", i, r.StatusCode)
		}
	}
	// Bodies encoding/json cannot even produce: malformed JSON, and an
	// out-of-range literal (the decoder rejects 1e999 before our finiteness
	// check — parseModelScores is the second line of defence for non-HTTP
	// callers, exercised below).
	for _, body := range []string{"{not json", `{"vertices":[0],"model_scores":{"0":[1e999]}}`} {
		if r, err := http.Post(hs.URL+"/v1/complete", "application/json", strings.NewReader(body)); err != nil {
			t.Fatal(err)
		} else if r.Body.Close(); r.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, r.StatusCode)
		}
	}
	if _, err := parseModelScores(map[string][]float64{"0": infRow(nA)}, g.NumVertices(), nA); err == nil {
		t.Error("parseModelScores accepted a non-finite score")
	}
}

func TestHTTPModelAndHealthz(t *testing.T) {
	g := testGraph(t)
	_, hs := serveDefault(t, g)

	var model ModelResponse
	getJSON(t, hs.URL+"/v1/model", &model)
	want := icspm.Mine(g)
	if model.Generation != 1 || model.FinalDL != want.FinalDL || model.BaselineDL != want.BaselineDL {
		t.Errorf("model stats diverge: %+v", model)
	}
	if model.Vertices != g.NumVertices() || model.Edges != g.NumEdges() || model.AttrValues != g.NumAttrValues() {
		t.Errorf("graph stats diverge: %+v", model)
	}
	if model.Patterns != len(want.Patterns) || model.MultiLeaf != len(want.MultiLeaf()) {
		t.Errorf("pattern counts diverge: %+v", model)
	}

	var health HealthResponse
	getJSON(t, hs.URL+"/v1/healthz", &health)
	if health.Status != "ok" || health.Generation != 1 || health.PendingMutations != 0 {
		t.Errorf("healthz = %+v", health)
	}
	if health.SnapshotAgeSeconds < 0 {
		t.Errorf("negative snapshot age %v", health.SnapshotAgeSeconds)
	}
}

func TestHTTPMutationsAndMetrics(t *testing.T) {
	g := testGraph(t)
	s, hs := serveDefault(t, g)

	var ack MutationsResponse
	r := postJSON(t, hs.URL+"/v1/mutations", MutationsRequest{Mutations: []Mutation{
		{Op: OpAddEdge, U: 0, V: 3},
		{Op: OpAddAttr, U: 3, Value: "cancer"},
	}}, &ack)
	if r.StatusCode != http.StatusAccepted {
		t.Fatalf("status %d, want 202", r.StatusCode)
	}
	if ack.Accepted != 2 {
		t.Errorf("accepted = %d, want 2", ack.Accepted)
	}
	if err := s.Flush(ctxShort(t)); err != nil {
		t.Fatal(err)
	}
	if gen := s.Snapshot().Generation; gen != 2 {
		t.Fatalf("generation = %d after mutation flush", gen)
	}

	if r := postJSON(t, hs.URL+"/v1/mutations", MutationsRequest{Mutations: []Mutation{
		{Op: OpAddEdge, U: 1, V: 1},
	}}, nil); r.StatusCode != http.StatusBadRequest {
		t.Errorf("self-loop mutation: status %d, want 400", r.StatusCode)
	}

	var met MetricsSnapshot
	getJSON(t, hs.URL+"/v1/metrics", &met)
	if met.RequestsMutations != 2 || met.MutationsAccepted != 2 || met.MutationsRejected != 1 {
		t.Errorf("mutation counters = %+v", met)
	}
	if met.Remines != 1 || met.SnapshotGeneration != 2 {
		t.Errorf("remine counters = %+v", met)
	}
	if met.BadRequests == 0 {
		t.Error("rejected mutation did not count as a bad request")
	}
	if met.RemineSecondsTotal <= 0 || met.RemineSecondsLast <= 0 {
		t.Errorf("re-mine durations not recorded: %+v", met)
	}
}

func TestHTTPMethodAndRouteErrors(t *testing.T) {
	_, hs := serveDefault(t, testGraph(t))
	cases := []struct {
		method, path string
		want         int
	}{
		{http.MethodGet, "/v1/mutations", http.StatusMethodNotAllowed},
		{http.MethodGet, "/v1/complete", http.StatusMethodNotAllowed},
		{http.MethodPost, "/v1/patterns", http.StatusMethodNotAllowed},
		{http.MethodPost, "/v1/model", http.StatusMethodNotAllowed},
		{http.MethodGet, "/v1/nope", http.StatusNotFound},
	}
	for _, tc := range cases {
		req, err := http.NewRequest(tc.method, hs.URL+tc.path, strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s %s: status %d, want %d", tc.method, tc.path, resp.StatusCode, tc.want)
		}
	}
}

func TestHTTPCompleteDuplicateAndCaps(t *testing.T) {
	_, hs := serveDefault(t, testGraph(t))

	// Unfused duplicates share one scoring pass and identical results.
	var dup CompleteResponse
	if r := postJSON(t, hs.URL+"/v1/complete", CompleteRequest{Vertices: []uint32{0, 0, 0}}, &dup); r.StatusCode != http.StatusOK {
		t.Fatalf("status %d", r.StatusCode)
	}
	if len(dup.Results) != 3 ||
		!reflect.DeepEqual(dup.Results[1].Values, dup.Results[0].Values) ||
		!reflect.DeepEqual(dup.Results[2].Values, dup.Results[0].Values) {
		t.Errorf("duplicated vertices ranked differently: %+v", dup.Results)
	}

	// Requests past the per-request scoring bound are rejected.
	big := make([]uint32, maxCompleteVertices+1)
	if r := postJSON(t, hs.URL+"/v1/complete", CompleteRequest{Vertices: big}, nil); r.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized vertex list: status %d, want 400", r.StatusCode)
	}

	// Bodies past the byte bound are rejected, on both POST endpoints.
	huge := strings.NewReader(`{"vertices":[0],"pad":"` + strings.Repeat("x", maxRequestBody) + `"}`)
	if r, err := http.Post(hs.URL+"/v1/complete", "application/json", huge); err != nil {
		t.Fatal(err)
	} else if r.Body.Close(); r.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized complete body: status %d, want 400", r.StatusCode)
	}
	huge = strings.NewReader(`{"mutations":[],"pad":"` + strings.Repeat("x", maxRequestBody) + `"}`)
	if r, err := http.Post(hs.URL+"/v1/mutations", "application/json", huge); err != nil {
		t.Fatal(err)
	} else if r.Body.Close(); r.StatusCode != http.StatusBadRequest {
		t.Errorf("oversized mutations body: status %d, want 400", r.StatusCode)
	}
}
