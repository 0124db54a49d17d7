package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

// --- TraceRing -------------------------------------------------------------

func TestTraceRingLifecycle(t *testing.T) {
	r := NewTraceRing(8)
	r.Start(1, "abc", 3, StageSubmitted, 0, "")
	r.Record(1, StageWALAppended, 0, "")
	r.Record(1, StageFolded, 2, "")

	tr, ok := r.Get(1)
	if !ok {
		t.Fatal("Get(1) missed a live trace")
	}
	if tr.Seq != 1 || tr.TraceID != "abc" || tr.Mutations != 3 {
		t.Fatalf("trace header = %+v", tr)
	}
	stages := make([]string, len(tr.Events))
	for i, ev := range tr.Events {
		stages[i] = ev.Stage
		if ev.At.IsZero() {
			t.Fatalf("event %d has zero timestamp", i)
		}
	}
	if want := []string{StageSubmitted, StageWALAppended, StageFolded}; strings.Join(stages, ",") != strings.Join(want, ",") {
		t.Fatalf("stages = %v, want %v", stages, want)
	}
	if tr.Events[2].Generation != 2 {
		t.Fatalf("folded generation = %d, want 2", tr.Events[2].Generation)
	}

	// Get returns a copy: mutating it must not corrupt the ring.
	tr.Events[0].Stage = "clobbered"
	if again, _ := r.Get(1); again.Events[0].Stage != StageSubmitted {
		t.Fatal("Get returned a view into ring memory, not a copy")
	}
}

// TestTraceRingEvictionUnderWrap drives sequences past the capacity so every
// slot is reused, and checks the direct-mapped eviction contract: only the
// newest cap sequences are retrievable, Records for evicted sequences are
// dropped rather than corrupting the newer occupant, and a stale Start
// cannot clobber a newer trace in the same slot.
func TestTraceRingEvictionUnderWrap(t *testing.T) {
	const cap = 8
	r := NewTraceRing(cap)
	if r.Cap() != cap {
		t.Fatalf("Cap() = %d, want %d", r.Cap(), cap)
	}
	const total = 3*cap + 5
	for seq := uint64(1); seq <= total; seq++ {
		r.Start(seq, "", 1, StageSubmitted, 0, "")
	}
	// Only the newest cap sequences survive.
	for seq := uint64(1); seq <= total; seq++ {
		_, ok := r.Get(seq)
		if want := seq > total-cap; ok != want {
			t.Fatalf("Get(%d) = %v, want %v (total %d, cap %d)", seq, ok, want, total, cap)
		}
	}
	// A Record for an evicted sequence must not touch the slot's new owner.
	victim, occupant := uint64(total-cap), uint64(total)
	if victim%cap != occupant%cap {
		t.Fatalf("test bug: %d and %d do not share a slot", victim, occupant)
	}
	r.Record(victim, StageFolded, 9, "")
	if tr, _ := r.Get(occupant); len(tr.Events) != 1 {
		t.Fatalf("evicted-seq Record leaked into the occupant: %+v", tr.Events)
	}
	// A stale Start (replay of an old sequence) must not evict a newer trace.
	r.Start(victim, "stale", 1, StageSubmitted, 0, "")
	tr, ok := r.Get(occupant)
	if !ok || tr.TraceID == "stale" {
		t.Fatalf("stale Start clobbered the newer occupant: ok=%v trace=%+v", ok, tr)
	}
	if _, ok := r.Get(victim); ok {
		t.Fatal("stale Start resurrected an evicted sequence")
	}
}

func TestTraceRingRecordRange(t *testing.T) {
	r := NewTraceRing(8)
	for seq := uint64(1); seq <= 5; seq++ {
		r.Start(seq, "", 1, StageSubmitted, 0, "")
	}
	// (2, 5] — half-open: 2 excluded, 3..5 stamped.
	r.RecordRange(2, 5, StageFolded, 7, "")
	for seq := uint64(1); seq <= 5; seq++ {
		tr, _ := r.Get(seq)
		want := 1
		if seq > 2 {
			want = 2
		}
		if len(tr.Events) != want {
			t.Fatalf("seq %d has %d events, want %d", seq, len(tr.Events), want)
		}
	}
	// Empty and inverted ranges are no-ops.
	r.RecordRange(5, 5, StageCheckpointed, 0, "")
	r.RecordRange(5, 2, StageCheckpointed, 0, "")
	if tr, _ := r.Get(5); len(tr.Events) != 2 {
		t.Fatalf("degenerate RecordRange mutated seq 5: %+v", tr.Events)
	}
}

// --- ProfileRing / Recorder ------------------------------------------------

func TestProfileRingNewestFirstAndEviction(t *testing.T) {
	r := NewProfileRing(3)
	for gen := uint64(1); gen <= 5; gen++ {
		r.Add(Profile{Generation: gen})
	}
	got := r.Recent()
	if len(got) != 3 {
		t.Fatalf("Recent() returned %d profiles, want 3", len(got))
	}
	for i, want := range []uint64{5, 4, 3} {
		if got[i].Generation != want {
			t.Fatalf("Recent()[%d].Generation = %d, want %d (newest first)", i, got[i].Generation, want)
		}
	}
}

func TestRecorder(t *testing.T) {
	rec := NewRecorder()
	rec.Observe(SpanFingerprint, 5*time.Millisecond)
	ran := false
	rec.Time(SpanPublish, func() { ran = true })
	p := rec.Finish(4, 2, errors.New("boom"))
	if !ran {
		t.Fatal("Time did not run its fn")
	}
	if p.Generation != 4 || p.Batches != 2 || p.Err != "boom" {
		t.Fatalf("profile = %+v", p)
	}
	if len(p.Spans) != 2 || p.Spans[0].Stage != SpanFingerprint || p.Spans[1].Stage != SpanPublish {
		t.Fatalf("spans = %+v", p.Spans)
	}
	if p.Spans[0].Duration != 5*time.Millisecond {
		t.Fatalf("observed duration = %v", p.Spans[0].Duration)
	}
	if p.Total <= 0 || p.StartedAt.IsZero() {
		t.Fatalf("totals not stamped: %+v", p)
	}
}

// TestRecorderGroups checks that group records land in the profile in the
// order observed, that Recent hands out copies of them, and that a nil
// recorder records nothing without panicking.
func TestRecorderGroups(t *testing.T) {
	var none *Recorder
	none.Observe(SpanDiff, time.Second)
	none.ObserveGroup(GroupRun{Group: 1})

	rec := NewRecorder()
	runs := []GroupRun{
		{Group: 0, Outcome: GroupMined, Start: time.Millisecond, Mine: 3 * time.Millisecond, GainEvals: 7},
		{Group: 1, Outcome: GroupHit},
	}
	for _, g := range runs {
		rec.ObserveGroup(g)
	}
	r := NewProfileRing(2)
	r.Add(rec.Finish(1, 1, nil))
	got := r.Recent()[0].Groups
	if !slices.Equal(got, runs) {
		t.Fatalf("groups = %+v, want %+v", got, runs)
	}
	got[0].GainEvals = 0
	if r.Recent()[0].Groups[0].GainEvals != 7 {
		t.Fatal("Recent shares its group records with the ring")
	}
}

// --- Logger ----------------------------------------------------------------

func TestParseLevel(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want string
	}{
		{"", "INFO"}, {"debug", "DEBUG"}, {"info", "INFO"},
		{"warn", "WARN"}, {"warning", "WARN"}, {"ERROR", "ERROR"},
	} {
		lv, err := ParseLevel(tc.in)
		if err != nil {
			t.Fatalf("ParseLevel(%q): %v", tc.in, err)
		}
		if lv.String() != tc.want {
			t.Fatalf("ParseLevel(%q) = %v, want %s", tc.in, lv, tc.want)
		}
	}
	if _, err := ParseLevel("verbose"); err == nil {
		t.Fatal("ParseLevel accepted an unknown level")
	}
}

func TestNewLoggerFormatsAndLevels(t *testing.T) {
	var buf bytes.Buffer
	lg, err := NewLogger(&buf, "warn", LogJSON)
	if err != nil {
		t.Fatal(err)
	}
	lg.Info("dropped")
	lg.Warn("kept", "ns", "prod")
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("json log line undecodable: %v (%q)", err, buf.String())
	}
	if rec["msg"] != "kept" || rec["ns"] != "prod" {
		t.Fatalf("json record = %v", rec)
	}
	if strings.Contains(buf.String(), "dropped") {
		t.Fatal("level filter let an info record through at warn")
	}

	buf.Reset()
	lg, err = NewLogger(&buf, "", "")
	if err != nil {
		t.Fatal(err)
	}
	lg.Debug("hidden")
	lg.Info("shown")
	if out := buf.String(); strings.Contains(out, "hidden") || !strings.Contains(out, "msg=shown") {
		t.Fatalf("default text logger output = %q", out)
	}

	if _, err := NewLogger(&buf, "", "xml"); err == nil {
		t.Fatal("NewLogger accepted an unknown format")
	}
	if _, err := NewLogger(&buf, "loud", ""); err == nil {
		t.Fatal("NewLogger accepted an unknown level")
	}
}

func TestNopLoggerDiscards(t *testing.T) {
	// Must not panic, allocate handlers per call, or write anywhere.
	lg := Nop()
	lg.Info("into the void", "k", "v")
	lg.With("ns", "x").Error("still nothing")
}

// --- Trace IDs -------------------------------------------------------------

func TestNewTraceID(t *testing.T) {
	hex := regexp.MustCompile(`^[0-9a-f]{16}$`)
	seen := map[string]bool{}
	for i := 0; i < 64; i++ {
		id := NewTraceID()
		if !hex.MatchString(id) {
			t.Fatalf("NewTraceID() = %q, want 16 hex chars", id)
		}
		if seen[id] {
			t.Fatalf("NewTraceID() repeated %q", id)
		}
		seen[id] = true
	}
}

// --- Prometheus writer -----------------------------------------------------

func TestWriteFamilies(t *testing.T) {
	var buf bytes.Buffer
	err := WriteFamilies(&buf, []Family{
		{Name: "empty_family", Help: "skipped entirely", Type: "counter"},
		{Name: "cspm_up", Help: `has "quotes" and \slashes` + "\nand newline", Type: "gauge",
			Samples: []Sample{{Value: 1}}},
		{Name: "cspm_reqs_total", Help: "requests", Type: "counter", Samples: []Sample{
			{Labels: []Label{{Name: "ns", Value: `we"ird\va` + "\nlue"}, {Name: "role", Value: "leader"}}, Value: 42},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	want := "# HELP cspm_up has \"quotes\" and \\\\slashes\\nand newline\n" +
		"# TYPE cspm_up gauge\n" +
		"cspm_up 1\n" +
		"# HELP cspm_reqs_total requests\n" +
		"# TYPE cspm_reqs_total counter\n" +
		`cspm_reqs_total{ns="we\"ird\\va\nlue",role="leader"} 42` + "\n"
	if got != want {
		t.Fatalf("exposition:\n got: %q\nwant: %q", got, want)
	}
}

func TestHistogramSamples(t *testing.T) {
	base := []Label{{Name: "endpoint", Value: "patterns"}}
	bounds := []float64{0.001, 0.01, 0.1}
	counts := []uint64{2, 3, 0, 1} // last = overflow
	samples := HistogramSamples(base, bounds, counts, 0.25)
	var buf bytes.Buffer
	if err := WriteFamilies(&buf, []Family{{Name: "lat", Help: "h", Type: "histogram", Samples: samples}}); err != nil {
		t.Fatal(err)
	}
	want := "# HELP lat h\n# TYPE lat histogram\n" +
		`lat_bucket{endpoint="patterns",le="0.001"} 2` + "\n" +
		`lat_bucket{endpoint="patterns",le="0.01"} 5` + "\n" +
		`lat_bucket{endpoint="patterns",le="0.1"} 5` + "\n" +
		`lat_bucket{endpoint="patterns",le="+Inf"} 6` + "\n" +
		`lat_sum{endpoint="patterns"} 0.25` + "\n" +
		`lat_count{endpoint="patterns"} 6` + "\n"
	if got := buf.String(); got != want {
		t.Fatalf("histogram exposition:\n got: %q\nwant: %q", got, want)
	}
	// The shared base labels must not be aliased across samples.
	samples[0].Labels[0].Value = "clobbered"
	if samples[1].Labels[0].Value != "patterns" {
		t.Fatal("HistogramSamples aliased base labels across samples")
	}
}
