package serve

import (
	"net/http"
	"strconv"
	"time"

	"cspm/internal/obs"
)

// Debug surface (PR 10): mutation lifecycle traces and re-mine stage
// profiles. Mounted ONLY under /v2/graphs/{ns} — like replication, this is
// fleet plumbing, not part of the frozen /v1 contract — and rides the
// shared registrar for envelope misses.

// TraceEventJSON is one lifecycle stage event on the wire.
type TraceEventJSON struct {
	Stage      string    `json:"stage"`
	At         time.Time `json:"at"`
	Generation uint64    `json:"generation,omitempty"`
	Note       string    `json:"note,omitempty"`
}

// TraceResponse is the GET /debug/trace/{seq} payload: one batch's recorded
// lifecycle on THIS server. Role tells a fleet-wide query which half of the
// story it is reading; the seq is the join key across leader and followers.
type TraceResponse struct {
	Seq       uint64           `json:"seq"`
	TraceID   string           `json:"trace_id,omitempty"`
	Role      string           `json:"role"`
	Mutations int              `json:"mutations"`
	Events    []TraceEventJSON `json:"events"`
}

// RemineSpanJSON is one timed phase of a re-mine pass.
type RemineSpanJSON struct {
	Stage   string  `json:"stage"`
	Seconds float64 `json:"seconds"`
}

// RemineGroupJSON is one component group's part in a re-mine pass: its
// index, its outcome (obs.GroupHit or obs.GroupMined) and, for a mined
// group, when its mine started (seconds into the shard_mine span), how
// long it took and how many gains it evaluated.
type RemineGroupJSON struct {
	Group        int     `json:"group"`
	Outcome      string  `json:"outcome"`
	StartSeconds float64 `json:"start_seconds"`
	MineSeconds  float64 `json:"mine_seconds"`
	GainEvals    int     `json:"gain_evals"`
}

// RemineProfileJSON is one background pass's stage breakdown.
type RemineProfileJSON struct {
	Generation   uint64            `json:"generation"`
	StartedAt    time.Time         `json:"started_at"`
	TotalSeconds float64           `json:"total_seconds"`
	Batches      int               `json:"batches"`
	Error        string            `json:"error,omitempty"`
	Spans        []RemineSpanJSON  `json:"spans"`
	Groups       []RemineGroupJSON `json:"groups,omitempty"`
}

// ReminesResponse is the GET /debug/remines payload: recent re-mine passes,
// newest first.
type ReminesResponse struct {
	Remines []RemineProfileJSON `json:"remines"`
}

// debugRoutes is the per-tenant debug surface, mounted v2-only.
var debugRoutes = []tenantRoute{
	{"GET", "/debug/trace/{seq}", epDebug, (*Server).handleDebugTrace},
	{"GET", "/debug/remines", epDebug, (*Server).handleDebugRemines},
}

func (s *Server) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	seq, err := strconv.ParseUint(r.PathValue("seq"), 10, 64)
	if err != nil {
		s.badRequest(w, "bad seq %q: want a batch sequence number", r.PathValue("seq"))
		return
	}
	t, ok := s.traces.Get(seq)
	if !ok {
		writeError(w, http.StatusNotFound, CodeTraceNotFound,
			"no trace for batch %d (never submitted here, or evicted from the %d-entry ring)", seq, s.traces.Cap())
		return
	}
	resp := TraceResponse{
		Seq:       t.Seq,
		TraceID:   t.TraceID,
		Role:      s.Role(),
		Mutations: t.Mutations,
		Events:    make([]TraceEventJSON, len(t.Events)),
	}
	for i, ev := range t.Events {
		resp.Events[i] = TraceEventJSON{Stage: ev.Stage, At: ev.At, Generation: ev.Generation, Note: ev.Note}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleDebugRemines(w http.ResponseWriter, r *http.Request) {
	profiles := s.profiles.Recent()
	resp := ReminesResponse{Remines: make([]RemineProfileJSON, len(profiles))}
	for i, p := range profiles {
		pj := RemineProfileJSON{
			Generation:   p.Generation,
			StartedAt:    p.StartedAt,
			TotalSeconds: p.Total.Seconds(),
			Batches:      p.Batches,
			Error:        p.Err,
			Spans:        make([]RemineSpanJSON, len(p.Spans)),
		}
		for j, sp := range p.Spans {
			pj.Spans[j] = RemineSpanJSON{Stage: sp.Stage, Seconds: sp.Duration.Seconds()}
		}
		for _, g := range p.Groups {
			pj.Groups = append(pj.Groups, RemineGroupJSON{Group: g.Group, Outcome: g.Outcome,
				StartSeconds: g.Start.Seconds(), MineSeconds: g.Mine.Seconds(), GainEvals: g.GainEvals})
		}
		resp.Remines[i] = pj
	}
	writeJSON(w, http.StatusOK, resp)
}

// Traces exposes the server's trace ring (embedders and tests).
func (s *Server) Traces() *obs.TraceRing { return s.traces }

// Remines exposes the server's re-mine profile ring (embedders and tests).
func (s *Server) Remines() *obs.ProfileRing { return s.profiles }
