package serve

import (
	"net/http"
	"strconv"
	"time"
)

// WatchResponse is the GET /watch payload. Generation and ModelSHA256
// describe ONE snapshot load, so a client can never observe a generation
// paired with another generation's model commitment, no matter how many
// swaps raced the poll. TimedOut marks a poll that returned at its bound
// (or at server drain) without the requested generation having published;
// the client long-polls again from the generation it now holds.
type WatchResponse struct {
	Generation  uint64 `json:"generation"`
	ModelSHA256 string `json:"model_sha256"`
	TimedOut    bool   `json:"timed_out"`
}

const (
	// defaultWatchTimeout bounds a poll that names no timeout_ms.
	defaultWatchTimeout = 30 * time.Second
	// maxWatchTimeout caps client-requested waits: a long-poll holds a
	// connection, and re-polling is cheap.
	maxWatchTimeout = 120 * time.Second
)

// handleWatch is GET /watch?generation=G&timeout_ms=T: a long-poll that
// resolves as soon as a snapshot with Generation >= G is published (G
// defaults to 0, so a bare watch resolves immediately with the current
// state — the idiom for learning the head generation before polling for the
// next one). The wait is bounded by timeout_ms and by the server's drain:
// both resolve the poll with the CURRENT state and timed_out=true rather
// than an error, so clients treat every 200 the same way. Failed re-mines
// do not resolve a poll — the generation a watcher waits for only ever
// arrives via a publish.
func (s *Server) handleWatch(w http.ResponseWriter, r *http.Request) {
	s.met.watchReqs.Add(1)
	gen, err := queryUint64(r, "generation", 0)
	if err != nil {
		s.badRequest(w, "bad generation: want a non-negative integer")
		return
	}
	timeoutMS, err := queryInt(r.URL.Query(), "timeout_ms", int(defaultWatchTimeout/time.Millisecond))
	if err != nil || timeoutMS < 0 {
		s.badRequest(w, "bad timeout_ms: want a non-negative integer")
		return
	}
	// Clamp in milliseconds BEFORE converting: a timeout_ms past ~9.2e12
	// would overflow the Duration multiply negative and fire at once.
	if max := int(maxWatchTimeout / time.Millisecond); timeoutMS > max {
		timeoutMS = max
	}
	timer := time.NewTimer(time.Duration(timeoutMS) * time.Millisecond)
	defer timer.Stop()
	for {
		// Grab the notify channel BEFORE checking the snapshot: a publish
		// between the check and the select then still wakes this poll.
		s.mu.Lock()
		ch := s.notify
		s.mu.Unlock()
		if snap := s.snap.Load(); snap.Generation >= gen {
			writeJSON(w, http.StatusOK, WatchResponse{
				Generation: snap.Generation, ModelSHA256: snap.ModelSHA256,
			})
			return
		}
		select {
		case <-ch:
			// Publish or failure broadcast; loop to re-check the snapshot.
		case <-timer.C:
			snap := s.snap.Load()
			writeJSON(w, http.StatusOK, WatchResponse{
				Generation: snap.Generation, ModelSHA256: snap.ModelSHA256, TimedOut: true,
			})
			return
		case <-s.draining:
			// Shutdown drain: release the watcher immediately with whatever is
			// being served, so graceful shutdown never waits out a poll.
			snap := s.snap.Load()
			writeJSON(w, http.StatusOK, WatchResponse{
				Generation: snap.Generation, ModelSHA256: snap.ModelSHA256, TimedOut: true,
			})
			return
		case <-r.Context().Done():
			// Client went away; nothing useful to write.
			return
		}
	}
}

// queryUint64 parses an unsigned integer query parameter with a default.
func queryUint64(r *http.Request, name string, def uint64) (uint64, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return def, nil
	}
	return strconv.ParseUint(raw, 10, 64)
}
