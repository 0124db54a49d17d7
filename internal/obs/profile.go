package obs

import (
	"sync"
	"time"
)

// Re-mine stage names recorded in profiles. rebuild/publish/checkpoint are
// measured by the serve loop; fingerprint/diff/shard_mine/merge come from
// inside the component-mining pipeline, whether the dirty groups mine
// in-process or over a shard-job transport.
const (
	SpanRebuild     = "rebuild"     // fold pending batches into a new graph
	SpanFingerprint = "fingerprint" // build each group's shard job and cache key
	SpanDiff        = "diff"        // cache lookup: split clean vs dirty groups
	SpanShardMine   = "shard_mine"  // mine the dirty groups
	SpanMerge       = "merge"       // merge shard models + DL accounting
	SpanPublish     = "publish"     // snapshot swap
	SpanCheckpoint  = "checkpoint"  // durable checkpoint write
)

// Span is one timed phase of a re-mine pass.
type Span struct {
	Stage    string        `json:"stage"`
	Duration time.Duration `json:"duration_ns"`
}

// Profile is the stage breakdown of one background re-mine pass.
type Profile struct {
	// Generation is the model generation the pass published (0 if the
	// pass failed before publishing).
	Generation uint64    `json:"generation"`
	StartedAt  time.Time `json:"started_at"`
	// Total is wall-clock for the whole pass, which can exceed the sum of
	// spans (budget wait, bookkeeping between stages).
	Total   time.Duration `json:"total_ns"`
	Batches int           `json:"batches"`
	Spans   []Span        `json:"spans"`
	// Err is the failure that aborted the pass, if any.
	Err string `json:"error,omitempty"`
}

// ProfileRing keeps the most recent re-mine profiles, newest first.
// Safe for concurrent use.
type ProfileRing struct {
	mu    sync.Mutex
	ring  []Profile
	next  int
	count int
}

// DefaultProfileCap is how many recent re-mines serve retains per tenant.
const DefaultProfileCap = 32

// NewProfileRing returns a ring holding the most recent capacity profiles.
// capacity <= 0 is normalised to DefaultProfileCap.
func NewProfileRing(capacity int) *ProfileRing {
	if capacity <= 0 {
		capacity = DefaultProfileCap
	}
	return &ProfileRing{ring: make([]Profile, capacity)}
}

// Add records a completed pass, evicting the oldest if full.
func (r *ProfileRing) Add(p Profile) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ring[r.next] = p
	r.next = (r.next + 1) % len(r.ring)
	if r.count < len(r.ring) {
		r.count++
	}
}

// Recent returns the retained profiles, newest first.
func (r *ProfileRing) Recent() []Profile {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Profile, 0, r.count)
	for k := 1; k <= r.count; k++ {
		i := (r.next - k + len(r.ring)) % len(r.ring)
		p := r.ring[i]
		p.Spans = append([]Span(nil), p.Spans...)
		out = append(out, p)
	}
	return out
}

// Recorder accumulates spans for one pass with a simple start/stop API.
// Zero value is not usable; create with NewRecorder. Not safe for
// concurrent use — one pass records from one goroutine.
type Recorder struct {
	prof  Profile
	start time.Time
	t0    time.Time
}

// NewRecorder starts timing a pass.
func NewRecorder() *Recorder {
	now := time.Now()
	return &Recorder{prof: Profile{StartedAt: now.UTC()}, t0: now}
}

// Observe records a span measured externally.
func (rec *Recorder) Observe(stage string, d time.Duration) {
	rec.prof.Spans = append(rec.prof.Spans, Span{Stage: stage, Duration: d})
}

// Time runs fn and records its duration under stage.
func (rec *Recorder) Time(stage string, fn func()) {
	t := time.Now()
	fn()
	rec.Observe(stage, time.Since(t))
}

// Finish stamps totals and returns the completed profile.
func (rec *Recorder) Finish(gen uint64, batches int, err error) Profile {
	rec.prof.Total = time.Since(rec.t0)
	rec.prof.Generation = gen
	rec.prof.Batches = batches
	if err != nil {
		rec.prof.Err = err.Error()
	}
	return rec.prof
}
