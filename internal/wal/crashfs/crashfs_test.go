package crashfs

import (
	"bytes"
	"errors"
	"io"
	"path/filepath"
	"testing"

	"cspm/internal/wal"
)

// durableBytes returns a copy of name's durable content (nil, false if the
// file does not exist).
func durableBytes(d *Dir, name string) ([]byte, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	f, ok := d.files[filepath.Clean(name)]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), f.durable...), true
}

// write is a helper: create name, write data, optionally sync, close.
func write(t *testing.T, d *Dir, name string, data []byte, sync bool) error {
	t.Helper()
	f, err := d.Create(name)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		return err
	}
	if sync {
		if err := f.Sync(); err != nil {
			return err
		}
	}
	return f.Close()
}

func TestPendingBytesDieInCrash(t *testing.T) {
	d := New(Config{CrashAtOp: 3}) // Create(1), Write(2), Create(3) crashes
	if err := write(t, d, "/x/a", []byte("doomed"), false); err != nil {
		t.Fatal(err)
	}
	// Crash on an op that touches a DIFFERENT file: /x/a's unsynced bytes
	// must die with the page cache. (A crash during a write to the same
	// file flushes its earlier pending bytes first — see TestTornWrite.)
	if _, err := d.Create("/x/b"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("crash-point create = %v, want ErrCrashed", err)
	}
	if !d.Crashed() {
		t.Fatal("Crashed() = false after the injected crash")
	}
	data, ok := durableBytes(d.Recover(), "/x/a")
	if !ok || len(data) != 0 {
		t.Fatalf("recovered %q (exists=%v), want empty file: pending bytes must die", data, ok)
	}
}

func TestSyncPromotesToDurable(t *testing.T) {
	d := New(Config{CrashAtOp: 4}) // Create, Write, Sync, then crash on next op
	if err := write(t, d, "/x/a", []byte("committed"), true); err != nil {
		t.Fatal(err)
	}
	if err := d.Remove("/x/a"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("op 4 = %v, want ErrCrashed", err)
	}
	data, ok := durableBytes(d.Recover(), "/x/a")
	if !ok || string(data) != "committed" {
		t.Fatalf("recovered %q, want %q: synced bytes must survive", data, "committed")
	}
}

func TestTornWrite(t *testing.T) {
	d := New(Config{CrashAtOp: 4, TornBytes: 3})
	if err := write(t, d, "/x/a", []byte("old-"), true); err != nil { // ops 1-3
		t.Fatal(err)
	}
	f, err := d.OpenAppend("/x/a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("torn-write")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("crashing write = %v, want ErrCrashed", err)
	}
	data, _ := durableBytes(d.Recover(), "/x/a")
	if string(data) != "old-tor" {
		t.Fatalf("recovered %q, want %q: a torn write leaves a contiguous 3-byte prefix", data, "old-tor")
	}
}

func TestTornSyncFlushesPrefixOfPending(t *testing.T) {
	d := New(Config{CrashAtOp: 3, TornBytes: 2}) // Create(1), Write(2), Sync(3) crashes
	f, err := d.Create("/x/a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("pending")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("crashing sync = %v, want ErrCrashed", err)
	}
	data, _ := durableBytes(d.Recover(), "/x/a")
	if string(data) != "pe" {
		t.Fatalf("recovered %q, want %q", data, "pe")
	}
}

func TestFailSyncAtSurvives(t *testing.T) {
	d := New(Config{FailSyncAt: 1})
	f, err := d.Create("/x/a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("volatile")); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); !errors.Is(err, ErrSyncFailed) {
		t.Fatalf("injected sync failure = %v, want ErrSyncFailed", err)
	}
	if d.Crashed() {
		t.Fatal("a failed fsync is not a crash: the process survives")
	}
	// The failed sync promoted nothing; a later crash-free sync still works.
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	data, _ := durableBytes(d.Recover(), "/x/a")
	if string(data) != "volatile" {
		t.Fatalf("recovered %q after the retried sync", data)
	}
}

func TestEveryOpFailsAfterCrash(t *testing.T) {
	d := New(Config{CrashAtOp: 1})
	if _, err := d.Create("/x/a"); !errors.Is(err, ErrCrashed) {
		t.Fatalf("crash-point create = %v", err)
	}
	if _, err := d.Create("/x/b"); !errors.Is(err, ErrCrashed) {
		t.Fatal("post-crash Create succeeded")
	}
	if _, err := d.List("/x"); !errors.Is(err, ErrCrashed) {
		t.Fatal("post-crash List succeeded")
	}
	if _, err := d.Open("/x/a"); !errors.Is(err, ErrCrashed) {
		t.Fatal("post-crash Open succeeded")
	}
	if err := d.SyncDir("/x"); !errors.Is(err, ErrCrashed) {
		t.Fatal("post-crash SyncDir succeeded")
	}
}

func TestListIsDirScopedAndSorted(t *testing.T) {
	d := New(Config{})
	for _, name := range []string{"/w/b.wal", "/w/a.wal", "/other/c.wal", "/w/sub/d.wal"} {
		if err := write(t, d, name, nil, false); err != nil {
			t.Fatal(err)
		}
	}
	names, err := d.List("/w")
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 || names[0] != "a.wal" || names[1] != "b.wal" {
		t.Fatalf("List(/w) = %v, want [a.wal b.wal] (sorted, non-recursive)", names)
	}
	empty, err := d.List("/nope")
	if err != nil || len(empty) != 0 {
		t.Fatalf("List of a missing dir = %v, %v; want empty, nil", empty, err)
	}
}

func TestShortReads(t *testing.T) {
	d := New(Config{MaxReadChunk: 3})
	payload := []byte("0123456789")
	if err := write(t, d, "/x/a", payload, true); err != nil {
		t.Fatal(err)
	}
	f, err := d.Open("/x/a")
	if err != nil {
		t.Fatal(err)
	}
	// Every read returns at most 3 bytes; io.ReadFull-style callers must
	// loop. Read it all through io.ReadAll and one big ReadFull.
	got, err := io.ReadAll(f)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("chunked ReadAll = %q, %v", got, err)
	}
	f2, _ := d.Open("/x/a")
	buf := make([]byte, len(payload))
	if _, err := io.ReadFull(f2, buf); err != nil || !bytes.Equal(buf, payload) {
		t.Fatalf("chunked ReadFull = %q, %v", buf, err)
	}
}

func TestTruncate(t *testing.T) {
	d := New(Config{})
	if err := write(t, d, "/x/a", []byte("durable"), true); err != nil {
		t.Fatal(err)
	}
	f, _ := d.OpenAppend("/x/a")
	f.Write([]byte("-pending"))
	if err := d.Truncate("/x/a", 9); err != nil { // cuts into pending
		t.Fatal(err)
	}
	f.Sync()
	data, _ := durableBytes(d.Recover(), "/x/a")
	if string(data) != "durable-p" {
		t.Fatalf("after truncate-into-pending: %q", data)
	}
	if err := d.Truncate("/x/a", 3); err != nil { // cuts into durable
		t.Fatal(err)
	}
	data, _ = durableBytes(d.Recover(), "/x/a")
	if string(data) != "dur" {
		t.Fatalf("after truncate-into-durable: %q", data)
	}
}

func TestOpsCountIsDeterministic(t *testing.T) {
	workload := func(d *Dir) {
		write(t, d, "/x/a", []byte("one"), true)
		write(t, d, "/x/b", []byte("two"), false)
		d.SyncDir("/x")
		d.Remove("/x/b")
	}
	d1, d2 := New(Config{}), New(Config{})
	workload(d1)
	workload(d2)
	if d1.Ops() != d2.Ops() || d1.Ops() == 0 {
		t.Fatalf("identical workloads counted %d and %d ops", d1.Ops(), d2.Ops())
	}
	// Every op index in [1, N] is reachable as a crash point.
	for k := 1; k <= d1.Ops(); k++ {
		dk := New(Config{CrashAtOp: k})
		workload(dk)
		if !dk.Crashed() {
			t.Fatalf("crash at op %d/%d never fired", k, d1.Ops())
		}
	}
}

// TestDriveWAL wires crashfs under the real WAL as a smoke check of the FS
// contract: a clean (fault-free) crashfs run must behave exactly like disk.
func TestDriveWAL(t *testing.T) {
	d := New(Config{})
	dir := filepath.Join("/w", "wal")
	l, recs, err := wal.Open(dir, wal.Options{FS: d})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh crashfs WAL replayed %d records", len(recs))
	}
	for _, p := range []string{"a", "b", "c"} {
		if _, err := l.Append([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	l.Close()
	l2, recs, err := wal.Open(dir, wal.Options{FS: d.Recover()})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(recs) != 3 || string(recs[2].Payload) != "c" {
		t.Fatalf("recovered %d records %+v, want the 3 synced appends", len(recs), recs)
	}
}

// TestWALResetThroughFS: Log.Reset removes every segment through the log's
// own FS (never the real disk behind it), leaves other files alone, and
// restarts the log so a mirror can resume at any sequence.
func TestWALResetThroughFS(t *testing.T) {
	d := New(Config{})
	dir := filepath.Join("/w", "wal")
	if err := write(t, d, filepath.Join(dir, "NOTES"), []byte("keep"), true); err != nil {
		t.Fatal(err)
	}
	// Tiny segments: the three appends span several files.
	l, _, err := wal.Open(dir, wal.Options{FS: d, SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"a", "b", "c"} {
		if _, err := l.Append([]byte(p)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Reset(); err != nil {
		t.Fatal(err)
	}
	names, err := d.List(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 1 || names[0] != "NOTES" {
		t.Fatalf("after Reset the shim holds %v, want only NOTES", names)
	}
	if l.NextSeq() != 1 || l.Segments() != 0 {
		t.Fatalf("after Reset: next=%d segments=%d, want 1/0", l.NextSeq(), l.Segments())
	}
	if wrote, err := l.AppendAt(7, []byte("seven")); err != nil || !wrote {
		t.Fatalf("AppendAt(7) after Reset = (%v, %v), want a write", wrote, err)
	}
	l.Close()
	if err := l.Reset(); err == nil {
		t.Fatal("Reset revived a closed log")
	}
	l2, recs, err := wal.Open(dir, wal.Options{FS: d.Recover()})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if len(recs) != 1 || recs[0].Seq != 7 || string(recs[0].Payload) != "seven" {
		t.Fatalf("recovered %+v, want only {7 seven}", recs)
	}
}
