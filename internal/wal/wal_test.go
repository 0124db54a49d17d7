package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// appendAll appends payloads and fails the test on any error.
func appendAll(t *testing.T, l *Log, payloads ...[]byte) []uint64 {
	t.Helper()
	var seqs []uint64
	for _, p := range payloads {
		seq, err := l.Append(p)
		if err != nil {
			t.Fatalf("Append(%q): %v", p, err)
		}
		seqs = append(seqs, seq)
	}
	return seqs
}

func requireRecords(t *testing.T, recs []Record, want ...string) {
	t.Helper()
	if len(recs) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(recs), len(want))
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Fatalf("record %d has seq %d, want %d (sequences must be dense)", i, r.Seq, i+1)
		}
		if string(r.Payload) != want[i] {
			t.Fatalf("record %d payload %q, want %q", i, r.Payload, want[i])
		}
	}
}

func TestOpenEmptyDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "wal")
	l, recs, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if len(recs) != 0 || l.TornTail() || l.NextSeq() != 1 {
		t.Fatalf("fresh log: recs=%d torn=%v next=%d, want 0/false/1", len(recs), l.TornTail(), l.NextSeq())
	}
}

func TestAppendReplayRoundtrip(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	seqs := appendAll(t, l, []byte("alpha"), []byte("beta"), []byte(""), []byte("gamma"))
	for i, s := range seqs {
		if s != uint64(i+1) {
			t.Fatalf("append %d returned seq %d", i, s)
		}
	}
	l.Close()

	l2, recs, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	requireRecords(t, recs, "alpha", "beta", "", "gamma")
	if l2.TornTail() {
		t.Fatal("clean log reported a torn tail")
	}
	// The reopened log resumes the sequence.
	if got := appendAll(t, l2, []byte("delta"))[0]; got != 5 {
		t.Fatalf("resumed append got seq %d, want 5", got)
	}
}

func TestSegmentRotationAndCompaction(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments: every record rotates.
	l, _, err := Open(dir, Options{SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, []byte("a"), []byte("b"), []byte("c"), []byte("d"))
	if n := l.Segments(); n != 4 {
		t.Fatalf("after 4 appends at 1-byte segments: %d segments, want 4", n)
	}
	// Compacting up to 2 removes the two closed segments fully covered; the
	// segment holding record 4 is active and must survive even if covered.
	if err := l.Compact(2); err != nil {
		t.Fatal(err)
	}
	if n := l.Segments(); n != 2 {
		t.Fatalf("after Compact(2): %d segments, want 2", n)
	}
	if err := l.Compact(99); err != nil {
		t.Fatal(err)
	}
	if n := l.Segments(); n != 1 {
		t.Fatalf("Compact past the end must keep the active segment: %d segments", n)
	}
	l.Close()

	l2, recs, err := Open(dir, Options{SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	// Records 1-3 are gone (compacted); replay resumes mid-sequence.
	if len(recs) != 1 || recs[0].Seq != 4 || string(recs[0].Payload) != "d" {
		t.Fatalf("replay after compaction: %+v, want only seq 4 %q", recs, "d")
	}
	if got := appendAll(t, l2, []byte("e"))[0]; got != 5 {
		t.Fatalf("append after compacted reopen got seq %d, want 5", got)
	}
}

func TestTornTailTruncated(t *testing.T) {
	for _, cut := range []int{1, recordHeader - 1, recordHeader + 2} {
		t.Run(fmt.Sprintf("cut=%d", cut), func(t *testing.T) {
			dir := t.TempDir()
			l, _, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			appendAll(t, l, []byte("keep-me"), []byte("torn-record"))
			l.Close()
			// Tear the tail: drop the last cut bytes of the final record.
			seg := filepath.Join(dir, segName(1))
			data, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(seg, data[:len(data)-cut], 0o644); err != nil {
				t.Fatal(err)
			}

			l2, recs, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("torn tail must recover, got %v", err)
			}
			defer l2.Close()
			if !l2.TornTail() {
				t.Fatal("TornTail() = false after truncating a damaged tail")
			}
			requireRecords(t, recs, "keep-me")
			// The torn record's sequence is reused: it was never acknowledged.
			if got := appendAll(t, l2, []byte("reborn"))[0]; got != 2 {
				t.Fatalf("append after torn-tail recovery got seq %d, want 2", got)
			}
		})
	}
}

func TestCorruptPayloadTailTruncated(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, []byte("good"), []byte("flipped"))
	l.Close()
	seg := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF // flip a payload bit in the last record
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	l2, recs, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("CRC-failing tail must truncate, got %v", err)
	}
	defer l2.Close()
	if !l2.TornTail() {
		t.Fatal("bit flip in the final record must report a torn tail")
	}
	requireRecords(t, recs, "good")
}

func TestMidLogCorruptionRefused(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{SegmentBytes: 1}) // one record per segment
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, []byte("one"), []byte("two"), []byte("three"))
	l.Close()
	// Damage the MIDDLE segment: records after it are intact, so truncating
	// would silently lose acknowledged data — Open must refuse.
	seg := filepath.Join(dir, segName(2))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[recordHeader] ^= 0xFF
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{SegmentBytes: 1}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open over mid-log damage = %v, want ErrCorrupt", err)
	}
}

func TestSegmentGapRefused(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, []byte("one"), []byte("two"), []byte("three"))
	l.Close()
	// Remove the middle segment: a whole file of acknowledged records gone.
	if err := os.Remove(filepath.Join(dir, segName(2))); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{SegmentBytes: 1}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open over a segment gap = %v, want ErrCorrupt", err)
	}
}

func TestOversizeRecordRejected(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append(make([]byte, MaxRecordBytes+1)); err == nil {
		t.Fatal("oversize append succeeded")
	}
	// The bound check happens before any write: the log is NOT wedged.
	if _, err := l.Append([]byte("still-fine")); err != nil {
		t.Fatalf("log wedged by an oversize append: %v", err)
	}
}

// failSyncFile wraps the OS file, failing the Nth Sync across the whole FS.
type failSyncFS struct {
	FS
	calls *int
	at    int
}

type failSyncFile struct {
	File
	fs *failSyncFS
}

func (f *failSyncFS) Create(name string) (File, error) {
	inner, err := f.FS.Create(name)
	return &failSyncFile{File: inner, fs: f}, err
}

func (f *failSyncFS) OpenAppend(name string) (File, error) {
	inner, err := f.FS.OpenAppend(name)
	return &failSyncFile{File: inner, fs: f}, err
}

func (f *failSyncFile) Sync() error {
	*f.fs.calls++
	if *f.fs.calls == f.fs.at {
		return errors.New("injected sync failure")
	}
	return f.File.Sync()
}

func TestFailedFsyncWedgesLog(t *testing.T) {
	dir := t.TempDir()
	calls := 0
	fs := &failSyncFS{FS: OS(), calls: &calls, at: 2}
	l, _, err := Open(dir, Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendAll(t, l, []byte("durable"))
	if _, err := l.Append([]byte("lost")); err == nil {
		t.Fatal("append with failed fsync succeeded — the caller would ack volatile data")
	}
	// Every later append fails with the same sticky error: the on-disk tail
	// is no longer trusted until a fresh Open re-establishes it.
	if _, err := l.Append([]byte("after")); err == nil || !strings.Contains(err.Error(), "wedged") {
		t.Fatalf("append after wedge = %v, want the sticky wedged error", err)
	}
	// Recovery via Open sees exactly the acknowledged prefix.
	l2, recs, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(recs) < 1 || string(recs[0].Payload) != "durable" {
		t.Fatalf("acknowledged record lost after wedge: %+v", recs)
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	appendAll(t, l, []byte("x"))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("y")); err == nil {
		t.Fatal("append on a closed log succeeded")
	}
}

func TestNonSegmentFilesIgnored(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "MANIFEST"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, recs, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if len(recs) != 0 {
		t.Fatalf("non-segment files replayed as records: %+v", recs)
	}
}

func TestLargePayloadRoundtrip(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	big := bytes.Repeat([]byte{0xAB}, 1<<18)
	appendAll(t, l, big)
	l.Close()
	_, recs, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || !bytes.Equal(recs[0].Payload, big) {
		t.Fatal("large payload did not survive the roundtrip")
	}
}

func TestCompactEdgeCases(t *testing.T) {
	t.Run("upTo=0 removes nothing", func(t *testing.T) {
		dir := t.TempDir()
		l, _, err := Open(dir, Options{SegmentBytes: 1})
		if err != nil {
			t.Fatal(err)
		}
		appendAll(t, l, []byte("a"), []byte("b"), []byte("c"))
		if err := l.Compact(0); err != nil {
			t.Fatal(err)
		}
		if n := l.Segments(); n != 3 {
			t.Fatalf("Compact(0) left %d segments, want all 3", n)
		}
		l.Close()
		_, recs, err := Open(dir, Options{SegmentBytes: 1})
		if err != nil {
			t.Fatal(err)
		}
		requireRecords(t, recs, "a", "b", "c")
	})

	t.Run("upTo beyond last sealed segment keeps the active one", func(t *testing.T) {
		dir := t.TempDir()
		l, _, err := Open(dir, Options{SegmentBytes: 1})
		if err != nil {
			t.Fatal(err)
		}
		appendAll(t, l, []byte("a"), []byte("b"), []byte("c"))
		// upTo far past NextSeq-1: every sealed segment is covered, but the
		// active segment (holding record 3) must never be removed — a wedge
		// or crash before the next roll would otherwise lose its records.
		if err := l.Compact(1 << 40); err != nil {
			t.Fatal(err)
		}
		if n := l.Segments(); n != 1 {
			t.Fatalf("Compact far past the end left %d segments, want 1 (active)", n)
		}
		l.Close()
		_, recs, err := Open(dir, Options{SegmentBytes: 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 1 || recs[0].Seq != 3 || string(recs[0].Payload) != "c" {
			t.Fatalf("active-segment record lost: %+v, want only seq 3 %q", recs, "c")
		}
	})

	t.Run("only the active segment exists", func(t *testing.T) {
		dir := t.TempDir()
		l, _, err := Open(dir, Options{}) // default size: nothing ever rolls
		if err != nil {
			t.Fatal(err)
		}
		appendAll(t, l, []byte("a"), []byte("b"))
		for _, upTo := range []uint64{0, 1, 2, 99} {
			if err := l.Compact(upTo); err != nil {
				t.Fatalf("Compact(%d): %v", upTo, err)
			}
			if n := l.Segments(); n != 1 {
				t.Fatalf("Compact(%d) with only an active segment left %d segments, want 1", upTo, n)
			}
		}
		l.Close()
		_, recs, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		requireRecords(t, recs, "a", "b")
	})

	t.Run("partially covered sealed segment survives", func(t *testing.T) {
		dir := t.TempDir()
		// Two records per segment: seg1={1,2} seg2={3,4} seg3={5} (active).
		l, _, err := Open(dir, Options{SegmentBytes: 2 * (recordHeader + 1)})
		if err != nil {
			t.Fatal(err)
		}
		appendAll(t, l, []byte("1"), []byte("2"), []byte("3"), []byte("4"), []byte("5"))
		// upTo=3 covers seg1 fully but only half of seg2: record 4 is
		// unacknowledged by the caller's fold, so seg2 must survive.
		if err := l.Compact(3); err != nil {
			t.Fatal(err)
		}
		if n := l.Segments(); n != 2 {
			t.Fatalf("Compact(3) left %d segments, want 2 (half-covered + active)", n)
		}
		l.Close()
		_, recs, err := Open(dir, Options{SegmentBytes: 2 * (recordHeader + 1)})
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 3 || recs[0].Seq != 3 {
			t.Fatalf("replay after partial compaction: %+v, want seqs 3..5", recs)
		}
	})
}

// appendAt asserts a single AppendAt call's outcome.
func appendAt(t *testing.T, l *Log, seq uint64, payload string, wantWrote bool) {
	t.Helper()
	wrote, err := l.AppendAt(seq, []byte(payload))
	if err != nil {
		t.Fatalf("AppendAt(%d, %q): %v", seq, payload, err)
	}
	if wrote != wantWrote {
		t.Fatalf("AppendAt(%d, %q) wrote=%v, want %v", seq, payload, wrote, wantWrote)
	}
}

func TestAppendAtMirrorsExplicitSequences(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// A fresh mirror may start mid-stream: the leader's checkpoint folded
	// everything below 7, so the first shipped record is 7.
	appendAt(t, l, 7, "seven", true)
	appendAt(t, l, 8, "eight", true)
	// Re-shipping an already-held record is a silent no-op, not an error.
	appendAt(t, l, 7, "seven-again", false)
	appendAt(t, l, 8, "eight-again", false)
	appendAt(t, l, 9, "nine", true)
	// A gap would fabricate a hole recovery must refuse as acknowledged loss.
	if _, err := l.AppendAt(11, []byte("gap")); err == nil {
		t.Fatal("AppendAt with a sequence gap succeeded")
	}
	if _, err := l.AppendAt(0, []byte("zero")); err == nil {
		t.Fatal("AppendAt(0) succeeded; sequences are 1-based")
	}
	if next := l.NextSeq(); next != 10 {
		t.Fatalf("NextSeq() = %d, want 10", next)
	}
	l.Close()

	l2, recs, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	want := []struct {
		seq uint64
		pay string
	}{{7, "seven"}, {8, "eight"}, {9, "nine"}}
	if len(recs) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(recs), len(want))
	}
	for i, w := range want {
		if recs[i].Seq != w.seq || string(recs[i].Payload) != w.pay {
			t.Fatalf("record %d = {%d %q}, want {%d %q}", i, recs[i].Seq, recs[i].Payload, w.seq, w.pay)
		}
	}
	// The sequence jump is only legal on a COMPLETELY empty log: after the
	// reopen the log holds records, so a jump is now a gap.
	if _, err := l2.AppendAt(20, []byte("jump")); !errors.Is(err, ErrGap) {
		t.Fatalf("AppendAt jump on a non-empty log = %v, want ErrGap", err)
	}
	// Normal Append interoperates: it continues the mirrored sequence.
	if got := appendAll(t, l2, []byte("ten"))[0]; got != 10 {
		t.Fatalf("Append after mirroring got seq %d, want 10", got)
	}
}

func TestAppendAtJumpOnlyWhenEmpty(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendAll(t, l, []byte("first"))
	// nextSeq is 2; 3 would leave a gap even though the log was "almost" new.
	if _, err := l.AppendAt(3, []byte("gap")); !errors.Is(err, ErrGap) {
		t.Fatalf("AppendAt(3) after one append = %v, want ErrGap", err)
	}
	// seq == NextSeq appends normally.
	appendAt(t, l, 2, "second", true)
	// Oversize payloads are rejected without wedging, same as Append.
	if _, err := l.AppendAt(3, make([]byte, MaxRecordBytes+1)); err == nil {
		t.Fatal("oversize AppendAt succeeded")
	}
	appendAt(t, l, 3, "third", true)
}
