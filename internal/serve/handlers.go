package serve

import (
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"strings"
	"time"

	"cspm/internal/completion"
	"cspm/internal/graph"
	"cspm/internal/obs"
)

// Wire types of the per-namespace JSON API (served under /v2/graphs/{ns}
// and the deprecated /v1 alias). Struct field ORDER is part of the
// contract — encoding/json emits fields in declaration order, and the
// golden fixtures under testdata/ pin the bytes — so new fields go at the
// end and nothing gets reordered.

// PatternJSON is one ranked a-star on the wire. Core and leaf values are
// spelled by name (ids are an internal detail that changes across
// generations).
type PatternJSON struct {
	Core       []string `json:"core"`
	Leaf       []string `json:"leaf"`
	FL         int      `json:"fl"`
	FC         int      `json:"fc"`
	Confidence float64  `json:"confidence"`
	CodeLen    float64  `json:"code_len"`
}

// PatternsResponse is the GET /v1/patterns payload: one page of the
// snapshot's ranked pattern list.
type PatternsResponse struct {
	Generation uint64        `json:"generation"`
	Total      int           `json:"total"`
	Offset     int           `json:"offset"`
	Limit      int           `json:"limit"`
	Patterns   []PatternJSON `json:"patterns"`
}

// ModelResponse is the GET /v1/model payload: the served model's summary
// statistics and run diagnostics.
type ModelResponse struct {
	Generation       uint64  `json:"generation"`
	Vertices         int     `json:"vertices"`
	Edges            int     `json:"edges"`
	AttrValues       int     `json:"attr_values"`
	BaselineDL       float64 `json:"baseline_dl"`
	FinalDL          float64 `json:"final_dl"`
	CompressionRatio float64 `json:"compression_ratio"`
	CondEntropy      float64 `json:"cond_entropy"`
	Patterns         int     `json:"patterns"`
	MultiLeaf        int     `json:"multi_leaf"`
	Iterations       int     `json:"iterations"`
	GainEvals        int     `json:"gain_evals"`
	CacheHits        int     `json:"cache_hits"`
	CacheMisses      int     `json:"cache_misses"`
	CacheEvictions   int     `json:"cache_evictions"`
	RemoteJobs       int     `json:"remote_jobs"`
	RemoteRetries    int     `json:"remote_retries"`
	LocalFallbacks   int     `json:"local_fallbacks"`
}

// CompleteRequest is the POST /v1/complete payload: vertices to score, how
// many candidates to return per vertex, and optionally per-vertex external
// model score rows (dense, length |A|, keyed by decimal vertex id) to fuse
// with the CSPM scores as in Fig. 7.
type CompleteRequest struct {
	Vertices    []graph.VertexID     `json:"vertices"`
	TopK        int                  `json:"top_k,omitempty"`
	ModelScores map[string][]float64 `json:"model_scores,omitempty"`
}

// CandidateJSON is one scored attribute value.
type CandidateJSON struct {
	Value string  `json:"value"`
	Score float64 `json:"score"`
}

// CompleteVertexJSON is one vertex's ranked completion candidates.
type CompleteVertexJSON struct {
	Vertex graph.VertexID  `json:"vertex"`
	Values []CandidateJSON `json:"values"`
}

// CompleteResponse is the POST /v1/complete payload. Generation names the
// snapshot every score in Results came from.
type CompleteResponse struct {
	Generation uint64               `json:"generation"`
	Results    []CompleteVertexJSON `json:"results"`
}

// MutationsRequest is the POST /v1/mutations payload.
type MutationsRequest struct {
	Mutations []Mutation `json:"mutations"`
}

// MutationsResponse acknowledges an accepted batch: how many mutations were
// appended, the total backlog the served snapshot does not cover yet, and
// the generation still being served (the re-mine is asynchronous). Batch and
// TraceID (PR 10) identify the batch for /debug/trace/{seq}: Batch is the
// WAL sequence on durable servers, and TraceID echoes the request's
// X-Request-Id (server-minted when the client sent none).
type MutationsResponse struct {
	Accepted   int    `json:"accepted"`
	Pending    int    `json:"pending"`
	Generation uint64 `json:"generation"`
	Batch      uint64 `json:"batch"`
	TraceID    string `json:"trace_id"`
}

// HealthResponse is the GET /v1/healthz payload.
type HealthResponse struct {
	Status             string  `json:"status"`
	Generation         uint64  `json:"generation"`
	SnapshotAgeSeconds float64 `json:"snapshot_age_seconds"`
	PendingMutations   int     `json:"pending_mutations"`
}

const (
	defaultPageLimit = 50
	maxPageLimit     = 1000
	defaultTopK      = 10
	maxTopK          = 1000
	// maxCompleteVertices bounds one completion request's scoring work.
	maxCompleteVertices = 1000
	// maxRequestBody bounds POST bodies: a long-running server must not
	// let one client materialise an unbounded JSON document in memory.
	maxRequestBody = 8 << 20
)

// tenantRoute is one endpoint of the per-namespace API surface. The table
// below is the single source of the route set: the host's /v2/graphs/{ns}
// surface and the deprecated /v1 alias both derive from it, so the two can
// never drift apart. handler is a method expression, so dispatch binds the
// tenant per request without allocating a closure.
type tenantRoute struct {
	method  string
	suffix  string // path under the mount prefix, e.g. "/patterns"
	ep      endpoint
	handler func(*Server, http.ResponseWriter, *http.Request)
}

// pattern renders the route as a ServeMux pattern under prefix.
func (rt tenantRoute) pattern(prefix string) string {
	return rt.method + " " + prefix + rt.suffix
}

var tenantRoutes = []tenantRoute{
	{"GET", "/patterns", epPatterns, (*Server).handlePatterns},
	{"POST", "/complete", epComplete, (*Server).handleComplete},
	{"GET", "/model", epModel, (*Server).handleModel},
	{"GET", "/healthz", epHealthz, (*Server).handleHealthz},
	{"GET", "/metrics", epMetrics, (*Server).handleMetrics},
	{"POST", "/mutations", epMutations, (*Server).handleMutations},
	{"GET", "/watch", epWatch, (*Server).handleWatch},
}

// timed runs the route's handler against s under the endpoint's latency
// histogram, so per-namespace metrics come for free. For /watch the recorded
// latency includes the long-poll wait by design — the histogram then doubles
// as a view of how long watchers actually hold their polls.
func (s *Server) timed(rt *tenantRoute, w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	rt.handler(s, w, r)
	s.met.latency[rt.ep].observe(time.Since(start))
}

// writeJSON emits one response object. Responses are small relative to the
// models behind them, so buffering through the encoder directly is fine.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// badRequest rejects a request with the unified error envelope.
func (s *Server) badRequest(w http.ResponseWriter, format string, args ...any) {
	s.met.badRequests.Add(1)
	writeError(w, http.StatusBadRequest, CodeBadRequest, format, args...)
}

// queryInt parses an integer query parameter with a default.
func queryInt(q url.Values, name string, def int) (int, error) {
	raw := q.Get(name)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, fmt.Errorf("bad %s %q: want an integer", name, raw)
	}
	return v, nil
}

// handlePatterns serves one page of the ranked pattern list, written by
// pageWriter into a pooled buffer and sent in one Write.
func (s *Server) handlePatterns(w http.ResponseWriter, r *http.Request) {
	s.met.patternsReqs.Add(1)
	q := r.URL.Query()
	offset, err := queryInt(q, "offset", 0)
	if err != nil || offset < 0 {
		s.badRequest(w, "bad offset: want a non-negative integer")
		return
	}
	limit, err := queryInt(q, "limit", defaultPageLimit)
	if err != nil || limit <= 0 || limit > maxPageLimit {
		s.badRequest(w, "bad limit: want an integer in [1,%d]", maxPageLimit)
		return
	}
	pw := pageWriters.Get().(*pageWriter)
	ok := pw.appendPage(s.snap.Load(), offset, limit, q.Get("multileaf") == "1")
	w.Header().Set("Content-Type", "application/json")
	if ok {
		w.Header().Set("Content-Length", strconv.Itoa(len(pw.buf)))
		_, _ = w.Write(pw.buf)
	} else {
		w.WriteHeader(http.StatusOK) // what writeJSON sends for a value json refuses
	}
	if cap(pw.buf) <= maxPooledPage {
		pageWriters.Put(pw)
	}
}

func (s *Server) handleComplete(w http.ResponseWriter, r *http.Request) {
	s.met.completeReqs.Add(1)
	var req CompleteRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody)).Decode(&req); err != nil {
		s.badRequest(w, "bad request body: %v", err)
		return
	}
	if len(req.Vertices) == 0 {
		s.badRequest(w, "vertices must name at least one vertex")
		return
	}
	if len(req.Vertices) > maxCompleteVertices {
		s.badRequest(w, "too many vertices: %d (max %d per request)", len(req.Vertices), maxCompleteVertices)
		return
	}
	topK := req.TopK
	if topK == 0 {
		topK = defaultTopK
	}
	if topK < 0 || topK > maxTopK {
		s.badRequest(w, "bad top_k: want an integer in [1,%d]", maxTopK)
		return
	}
	// One snapshot for the whole request: the generation answered below is
	// the generation every score was computed against, even if a re-mine
	// publishes mid-request.
	snap := s.snap.Load()
	n := snap.Graph.NumVertices()
	nA := snap.Graph.NumAttrValues()
	for _, v := range req.Vertices {
		if int(v) >= n {
			s.badRequest(w, "vertex %d outside range [0,%d)", v, n)
			return
		}
	}
	fuse, err := parseModelScores(req.ModelScores, n, nA)
	if err != nil {
		s.badRequest(w, "bad model_scores: %v", err)
		return
	}

	// Score and rank once per DISTINCT vertex; duplicated request entries
	// share the result. Fusion is row-granular (completion.FuseRows):
	// whole-graph matrices would cost |V|×|A| per request, and fusing a
	// duplicated vertex twice would square the CSPM weighting.
	vocab := snap.Graph.Vocab()
	ranked := make(map[graph.VertexID][]CandidateJSON, len(req.Vertices))
	for _, v := range req.Vertices {
		if _, done := ranked[v]; done {
			continue
		}
		row := snap.Scorer.ScoreNode(v)
		if mrow, ok := fuse[v]; ok {
			if f := completion.FuseRows(mrow, row); f != nil {
				row = f
			} else {
				row = mrow // no finite signal anywhere: rank the raw model row
			}
		}
		ranked[v] = rankRow(row, vocab, topK)
	}

	resp := CompleteResponse{Generation: snap.Generation}
	for _, v := range req.Vertices {
		resp.Results = append(resp.Results, CompleteVertexJSON{Vertex: v, Values: ranked[v]})
	}
	s.met.verticesScored.Add(uint64(len(req.Vertices)))
	writeJSON(w, http.StatusOK, resp)
}

// parseModelScores validates the optional fusion rows: decimal vertex keys
// in range, dense rows of exactly |A| finite scores (an Inf/NaN would slip
// through min-max normalisation and silently drop values from the ranking).
func parseModelScores(raw map[string][]float64, n, nA int) (map[graph.VertexID][]float64, error) {
	if len(raw) == 0 {
		return nil, nil
	}
	out := make(map[graph.VertexID][]float64, len(raw))
	for key, row := range raw {
		id, err := strconv.ParseUint(key, 10, 32)
		if err != nil || int(id) >= n {
			return nil, fmt.Errorf("key %q is not a vertex id in [0,%d)", key, n)
		}
		if len(row) != nA {
			return nil, fmt.Errorf("row for vertex %s has %d scores, want |A|=%d", key, len(row), nA)
		}
		for j, score := range row {
			if math.IsInf(score, 0) || math.IsNaN(score) {
				return nil, fmt.Errorf("row for vertex %s has non-finite score %v at %d", key, score, j)
			}
		}
		out[graph.VertexID(id)] = row
	}
	return out, nil
}

// rankRow returns the top-k finite scores of row as named candidates,
// ordered by descending score with ascending value name as the tie-break
// (deterministic across identical snapshots). A bounded heap keeps the k
// best value ids seen so far, so ranking a row costs O(|A|·log k) and only
// the winners become candidates.
func rankRow(row []float64, vocab *graph.Vocab, k int) []CandidateJSON {
	names := vocab.Names()
	order := func(i, j int32) int {
		if c := cmp.Compare(row[j], row[i]); c != 0 {
			return c
		}
		return strings.Compare(names[i], names[j])
	}
	ahead := func(i, j int32) bool { return order(i, j) < 0 }
	// top is a heap whose root top[0] is the worst candidate kept.
	top := make([]int32, 0, min(k, len(row)))
	for id, score := range row {
		if math.IsInf(score, 0) || math.IsNaN(score) {
			continue
		}
		c := int32(id)
		switch {
		case len(top) < k:
			top = append(top, c)
			for i := len(top) - 1; i > 0; {
				parent := (i - 1) / 2
				if !ahead(top[parent], top[i]) {
					break
				}
				top[parent], top[i] = top[i], top[parent]
				i = parent
			}
		case len(top) > 0 && ahead(c, top[0]):
			top[0] = c
			for i := 0; ; {
				worst, l, r := i, 2*i+1, 2*i+2
				if l < len(top) && ahead(top[worst], top[l]) {
					worst = l
				}
				if r < len(top) && ahead(top[worst], top[r]) {
					worst = r
				}
				if worst == i {
					break
				}
				top[i], top[worst] = top[worst], top[i]
				i = worst
			}
		}
	}
	slices.SortFunc(top, order)
	out := make([]CandidateJSON, len(top))
	for i, id := range top {
		out[i] = CandidateJSON{Value: names[id], Score: row[id]}
	}
	return out
}

func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	s.met.modelReqs.Add(1)
	snap := s.snap.Load()
	m := snap.Model
	writeJSON(w, http.StatusOK, ModelResponse{
		Generation:       snap.Generation,
		Vertices:         snap.Graph.NumVertices(),
		Edges:            snap.Graph.NumEdges(),
		AttrValues:       snap.Graph.NumAttrValues(),
		BaselineDL:       m.BaselineDL,
		FinalDL:          m.FinalDL,
		CompressionRatio: m.CompressionRatio(),
		CondEntropy:      m.CondEntropy,
		Patterns:         len(m.Patterns),
		MultiLeaf:        len(snap.multiLeaf),
		Iterations:       m.Iterations,
		GainEvals:        m.GainEvals,
		CacheHits:        m.CacheHits,
		CacheMisses:      m.CacheMisses,
		CacheEvictions:   m.CacheEvictions,
		RemoteJobs:       m.RemoteJobs,
		RemoteRetries:    m.RemoteRetries,
		LocalFallbacks:   m.LocalFallbacks,
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.met.healthReqs.Add(1)
	// One snapshot load for both fields: generation and age must describe
	// the SAME snapshot even if a re-mine publishes mid-request.
	snap := s.snap.Load()
	writeJSON(w, http.StatusOK, HealthResponse{
		Status:             "ok",
		Generation:         snap.Generation,
		SnapshotAgeSeconds: time.Since(snap.PublishedAt).Seconds(),
		PendingMutations:   s.PendingMutations(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.met.metricsReqs.Add(1)
	writeJSON(w, http.StatusOK, s.Metrics())
}

func (s *Server) handleMutations(w http.ResponseWriter, r *http.Request) {
	s.met.mutationReqs.Add(1)
	var req MutationsRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBody)).Decode(&req); err != nil {
		s.badRequest(w, "bad request body: %v", err)
		return
	}
	// Honor the client's request ID so its own logs join the trace; mint
	// one otherwise. Echoed on the 202 either way.
	traceID := r.Header.Get("X-Request-Id")
	if traceID == "" {
		traceID = obs.NewTraceID()
	}
	seq, err := s.submit(req.Mutations, traceID)
	if err != nil {
		if errors.Is(err, ErrUnavailable) {
			// The batch was well-formed but could not be made durable: the
			// client should retry against a recovered server, so this is a
			// 503, not a 400.
			writeUnavailable(w, "%v", err)
			return
		}
		if errors.Is(err, ErrNotLeader) {
			// Followers answer reads; writes belong to the leader the error
			// message names. 409: the request is fine, this server's role is
			// the conflict.
			writeError(w, http.StatusConflict, CodeNotLeader, "%v", err)
			return
		}
		s.badRequest(w, "%v", err)
		return
	}
	w.Header().Set("X-Request-Id", traceID)
	writeJSON(w, http.StatusAccepted, MutationsResponse{
		Accepted:   len(req.Mutations),
		Pending:    s.PendingMutations(),
		Generation: s.snap.Load().Generation,
		Batch:      seq,
		TraceID:    traceID,
	})
}
