package serve

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	icspm "cspm/internal/cspm"
	"cspm/internal/wal"
)

// Canonical fixture values: every field non-zero (encoding/json emits all
// exported fields, but a zero value would leave that field's FORMAT — float
// rendering, array-vs-null — unpinned) and floats that exercise shortest
// round-trip rendering.

func goldenModelResponse() ModelResponse {
	return ModelResponse{
		Generation:       7,
		Vertices:         1200,
		Edges:            5400,
		AttrValues:       37,
		BaselineDL:       10240.5,
		FinalDL:          8191.25,
		CompressionRatio: 0.7999267578125,
		CondEntropy:      0.4375,
		Patterns:         96,
		MultiLeaf:        23,
		Iterations:       73,
		GainEvals:        15321,
		CacheHits:        11,
		CacheMisses:      1,
		CacheEvictions:   2,
		RemoteJobs:       12,
		RemoteRetries:    3,
		LocalFallbacks:   1,
	}
}

func goldenPatternsResponse() PatternsResponse {
	return PatternsResponse{
		Generation: 7,
		Total:      96,
		Offset:     10,
		Limit:      2,
		Patterns: []PatternJSON{
			{Core: []string{"ICDM"}, Leaf: []string{"EDBT", "PODS"}, FL: 41, FC: 52,
				Confidence: 0.7884615384615384, CodeLen: 9.53125},
			{Core: []string{"smoker"}, Leaf: []string{"cancer"}, FL: 7, FC: 21,
				Confidence: 0.3333333333333333, CodeLen: 12.125},
		},
	}
}

func goldenWatchResponse() WatchResponse {
	return WatchResponse{
		Generation:  42,
		ModelSHA256: "9f2c5e1a7b3d4086c1d2e3f405162738495a6b7c8d9e0f1a2b3c4d5e6f708192",
		// TimedOut true: the zero value would leave the field's rendering
		// unpinned, and the timed-out shape is the one retrying clients parse.
		TimedOut: true,
	}
}

// TestResponseWireFormatGolden pins the JSON bytes of the /v1/model,
// /v1/patterns and /v1/watch responses: the committed fixtures must decode into exactly
// the canonical values, and re-encoding those values through the same
// encoder the handlers use must reproduce the committed bytes byte for
// byte, as must the /patterns page writer. A renamed/reordered/retyped field breaks every deployed client, so
// it must arrive as a NEW endpoint version with new fixtures — never by
// mutating these. Regenerate deliberately with
// UPDATE_WIRE_GOLDEN=1 go test ./internal/serve -run WireFormat.
func TestResponseWireFormatGolden(t *testing.T) {
	cases := []struct {
		name string
		path string
		val  any
		dest func() any
	}{
		{"model", "testdata/model_v1.json", goldenModelResponse(),
			func() any { return &ModelResponse{} }},
		{"patterns", "testdata/patterns_v1.json", goldenPatternsResponse(),
			func() any { return &PatternsResponse{} }},
		{"watch", "testdata/watch_v1.json", goldenWatchResponse(),
			func() any { return &WatchResponse{} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// writeJSON streams through json.NewEncoder, which appends a
			// trailing newline; the fixture pins those exact bytes.
			var buf bytes.Buffer
			if err := json.NewEncoder(&buf).Encode(tc.val); err != nil {
				t.Fatal(err)
			}
			if os.Getenv("UPDATE_WIRE_GOLDEN") != "" {
				if err := os.MkdirAll(filepath.Dir(tc.path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(tc.path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %d bytes to %s", buf.Len(), tc.path)
			}
			committed, err := os.ReadFile(tc.path)
			if err != nil {
				t.Fatalf("read fixture: %v (regenerate with UPDATE_WIRE_GOLDEN=1)", err)
			}
			if !bytes.Equal(committed, buf.Bytes()) {
				t.Errorf("encoding %s diverged from the committed wire format:\n got: %s\nwant: %s",
					tc.name, buf.Bytes(), committed)
			}
			dest := tc.dest()
			if err := json.Unmarshal(committed, dest); err != nil {
				t.Fatalf("decode fixture: %v", err)
			}
			got := reflect.ValueOf(dest).Elem().Interface()
			if !reflect.DeepEqual(got, tc.val) {
				t.Errorf("fixture decoded to\n%+v\nwant\n%+v", got, tc.val)
			}
		})
	}
	// /patterns is not encoded by encoding/json but written by the page
	// writer: a snapshot holding the canonical page must produce the
	// committed bytes through it too.
	t.Run("patterns_page_writer", func(t *testing.T) {
		var pw pageWriter
		if !pw.appendPage(goldenPatternsSnapshot(t), 10, 2, false) {
			t.Fatal("page writer refused the golden snapshot")
		}
		committed, err := os.ReadFile("testdata/patterns_v1.json")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pw.buf, committed) {
			t.Errorf("page writer diverged from the committed wire format:\n got: %s\nwant: %s", pw.buf, committed)
		}
	})
}

// goldenWALBatchV1 is a fixed-|V|-era batch: attribute and edge ops only,
// the only ops a version-1 (PR 6) binary could ever have appended.
func goldenWALBatchV1() []Mutation {
	return []Mutation{
		{Op: OpAddAttr, U: 0, Value: "cancer"},
		{Op: OpDelAttr, U: 1, Value: "smoker"},
		{Op: OpAddEdge, U: 0, V: 3},
		{Op: OpDelEdge, U: 1, V: 2},
	}
}

// goldenWALBatchV2 exercises every op, including the vertex add/remove ops
// only the version-2 framing may carry.
func goldenWALBatchV2() []Mutation {
	return append(goldenWALBatchV1(),
		Mutation{Op: OpAddVertex},
		Mutation{Op: OpAddEdge, U: 8, V: 4},
		Mutation{Op: OpAddAttr, U: 8, Value: "vldb"},
		Mutation{Op: OpDelVertex, U: 2},
	)
}

// TestWALBatchWireFormatGolden pins the WAL payload bytes the way the JSON
// test pins the HTTP bytes: the committed v2 fixture must be byte-identical
// to what encodeBatch writes today, and the committed v1 fixture (a bare gob
// stream, byte-identical to what a PR 6 binary wrote) must still DECODE into
// exactly the canonical batch — old segments on disk outlive the binaries
// that wrote them. Regenerate deliberately with
// UPDATE_WIRE_GOLDEN=1 go test ./internal/serve -run WireFormat.
func TestWALBatchWireFormatGolden(t *testing.T) {
	const (
		v1Path = "testdata/wal_batch_v1.bin"
		v2Path = "testdata/wal_batch_v2.bin"
	)
	var v1 bytes.Buffer
	if err := gob.NewEncoder(&v1).Encode(goldenWALBatchV1()); err != nil {
		t.Fatal(err)
	}
	v2, err := encodeBatch(goldenWALBatchV2())
	if err != nil {
		t.Fatal(err)
	}
	if os.Getenv("UPDATE_WIRE_GOLDEN") != "" {
		for path, data := range map[string][]byte{v1Path: v1.Bytes(), v2Path: v2} {
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("wrote %d bytes to %s", len(data), path)
		}
	}

	// v2: byte-identical encode, exact decode.
	committed2, err := os.ReadFile(v2Path)
	if err != nil {
		t.Fatalf("read fixture: %v (regenerate with UPDATE_WIRE_GOLDEN=1)", err)
	}
	if !bytes.Equal(committed2, v2) {
		t.Errorf("encodeBatch diverged from the committed v2 payload bytes")
	}
	dec2, err := decodeBatch(committed2)
	if err != nil {
		t.Fatalf("decode committed v2 payload: %v", err)
	}
	if !reflect.DeepEqual(dec2, goldenWALBatchV2()) {
		t.Errorf("v2 fixture decoded to %+v, want %+v", dec2, goldenWALBatchV2())
	}

	// v1: the committed bytes ARE the legacy format (pin them so the fixture
	// cannot silently drift into something no old binary ever wrote), and the
	// current reader must accept them unframed.
	committed1, err := os.ReadFile(v1Path)
	if err != nil {
		t.Fatalf("read fixture: %v (regenerate with UPDATE_WIRE_GOLDEN=1)", err)
	}
	if !bytes.Equal(committed1, v1.Bytes()) {
		t.Errorf("the v1 fixture no longer matches a bare gob of the canonical batch")
	}
	dec1, err := decodeBatch(committed1)
	if err != nil {
		t.Fatalf("decode committed v1 payload: %v", err)
	}
	if !reflect.DeepEqual(dec1, goldenWALBatchV1()) {
		t.Errorf("v1 fixture decoded to %+v, want %+v", dec1, goldenWALBatchV1())
	}
	// The encode direction never resurrects v1: a re-encoded legacy batch
	// comes back framed as the current version.
	re, err := encodeBatch(dec1)
	if err != nil {
		t.Fatal(err)
	}
	if ver, _, err := wal.DecodePayload(re); err != nil || ver != walBatchVersion {
		t.Errorf("re-encoded legacy batch framed as v%d (err=%v), want v%d", ver, err, walBatchVersion)
	}
}

// TestV1WALSegmentRecoversUnderV2Reader writes the committed v1 payload into
// a real WAL segment — exactly what a dead PR 6 server would leave on disk —
// and recovers a current server over it: the batch must replay and the
// recovered model must equal mining the mutated graph offline.
func TestV1WALSegmentRecoversUnderV2Reader(t *testing.T) {
	committed, err := os.ReadFile("testdata/wal_batch_v1.bin")
	if err != nil {
		t.Fatalf("read fixture: %v (regenerate with UPDATE_WIRE_GOLDEN=1)", err)
	}
	dir := t.TempDir()
	_, logDir := wal.TenantDirs(dir)
	wl, _, err := wal.Open(logDir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := wl.Append(committed); err != nil {
		t.Fatal(err)
	}
	if err := wl.Close(); err != nil {
		t.Fatal(err)
	}

	g := testGraph(t)
	s := newTestServer(t, g, Options{Dir: dir})
	rec := s.Recovery()
	if rec.ReplayedBatches != 1 || rec.ReplayedMutations != len(goldenWALBatchV1()) {
		t.Fatalf("v1 segment recovery replayed %d batches / %d mutations, want 1/%d",
			rec.ReplayedBatches, rec.ReplayedMutations, len(goldenWALBatchV1()))
	}
	requireModelEqual(t, s.Snapshot().Model, icspm.Mine(Rebuild(g, goldenWALBatchV1())))
}
