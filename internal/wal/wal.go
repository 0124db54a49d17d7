// Package wal implements the segmented, fsync'd write-ahead log behind the
// serving subsystem's durability contract (DESIGN.md "Durability & crash
// recovery"). Records are opaque payloads framed with a CRC and a dense
// sequence number; Append returns only after the record is durable, so the
// caller may acknowledge exactly what Append has returned for. Open replays
// every intact record, truncating a torn tail (a crash mid-append) instead
// of failing, and refusing with ErrCorrupt when damage sits in front of
// later intact records — that would mean losing acknowledged data, which
// recovery must never do silently. Segments rotate at a size threshold and
// Compact drops segments whose records have been folded into a durable
// checkpoint.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
)

const (
	// DefaultSegmentBytes is the rotation threshold when Options leaves it 0.
	DefaultSegmentBytes = 1 << 20
	// MaxRecordBytes bounds one record's payload; a framing length beyond it
	// is treated as tail damage, not an allocation request.
	MaxRecordBytes = 64 << 20
	// recordHeader is the on-disk frame prefix: uint32 payload length,
	// uint32 CRC-32C over (seq || payload), uint64 sequence number, all
	// little-endian, followed by the payload bytes.
	recordHeader = 16
	segSuffix    = ".wal"
)

// ErrCorrupt reports damage in front of later intact records (or a broken
// segment chain): acknowledged data is unreadable, so recovery refuses to
// continue rather than silently dropping it. A damaged final tail is NOT
// this error — torn tails are truncated and reported via TornTail.
var ErrCorrupt = errors.New("wal: corrupt record before log tail")

// ErrGap reports an AppendAt whose sequence would leave a hole after the
// log's last record. A replica mirroring a leader's log treats it as "the
// leader compacted past me" and restarts its mirror with Reset.
var ErrGap = errors.New("wal: sequence gap")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Record is one replayed log entry: a dense 1-based sequence number and the
// payload bytes exactly as appended.
type Record struct {
	Seq     uint64
	Payload []byte
}

// Options configures Open. The zero value uses the real filesystem and the
// default segment size.
type Options struct {
	// FS is the filesystem the log runs on (nil = the real one). Tests
	// inject crashfs here to drive recovery through deterministic faults.
	FS FS
	// SegmentBytes rotates the active segment once it reaches this many
	// bytes (0 = DefaultSegmentBytes).
	SegmentBytes int64
}

// segment is one closed (no longer appended-to) log file.
type segment struct {
	name  string
	first uint64
	last  uint64 // 0 = empty segment
}

// Log is an append-only record log over segmented files. Append and Compact
// are safe for concurrent use; a Log is single-writer by construction (Open
// owns the directory).
type Log struct {
	fs       FS
	dir      string
	segBytes int64

	mu      sync.Mutex
	closed  []segment // fully scanned or rotated-away segments, oldest first
	cur     File      // active segment handle, nil until the first Append
	curName string    // "" = no active segment yet
	curSize int64
	nextSeq uint64 // seq the next Append assigns
	torn    bool   // Open truncated a torn tail
	err     error  // first append failure or close; sticky
}

// segName is the segment file name for the first sequence it holds.
func segName(first uint64) string { return fmt.Sprintf("%020d%s", first, segSuffix) }

// parseSegName extracts the first-sequence number a segment file was created
// for; ok is false for files that are not WAL segments.
func parseSegName(name string) (uint64, bool) {
	if !strings.HasSuffix(name, segSuffix) {
		return 0, false
	}
	n, err := strconv.ParseUint(strings.TrimSuffix(name, segSuffix), 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// Open opens (creating if needed) the log under dir and replays every intact
// record in sequence order. A torn tail — a partial or checksum-failing
// record at the very end of the final segment — is truncated away and
// reported by TornTail; damage anywhere else returns ErrCorrupt. The
// returned records alias freshly allocated memory and are the caller's.
func Open(dir string, opts Options) (*Log, []Record, error) {
	fs := opts.FS
	if fs == nil {
		fs = OS()
	}
	segBytes := opts.SegmentBytes
	if segBytes <= 0 {
		segBytes = DefaultSegmentBytes
	}
	if err := fs.MkdirAll(dir); err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	names, err := fs.List(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{fs: fs, dir: dir, segBytes: segBytes, nextSeq: 1}
	var segs []segment
	for _, name := range names {
		if first, ok := parseSegName(name); ok {
			segs = append(segs, segment{name: name, first: first})
		}
	}
	var recs []Record
	for i := range segs {
		seg := &segs[i]
		if i > 0 {
			// Each segment must pick up exactly where the previous ended: a
			// gap means a whole file of acknowledged records vanished.
			if prev := segs[i-1]; seg.first != prev.last+1 {
				return nil, nil, fmt.Errorf("%w: segment %s does not continue %s",
					ErrCorrupt, seg.name, prev.name)
			}
		}
		path := filepath.Join(dir, seg.name)
		f, err := fs.Open(path)
		if err != nil {
			return nil, nil, fmt.Errorf("wal: %w", err)
		}
		segRecs, good, torn, err := scanSegment(f, seg.first)
		f.Close()
		if err != nil {
			return nil, nil, err
		}
		last := seg.first - 1 + uint64(len(segRecs))
		if torn {
			if i != len(segs)-1 {
				// Damage with intact segments after it: acknowledged records
				// would be lost if we truncated here.
				return nil, nil, fmt.Errorf("%w: segment %s is damaged mid-log", ErrCorrupt, seg.name)
			}
			if err := fs.Truncate(path, good); err != nil {
				return nil, nil, fmt.Errorf("wal: truncating torn tail of %s: %w", seg.name, err)
			}
			l.torn = true
		}
		seg.last = last
		recs = append(recs, segRecs...)
	}
	if n := len(segs); n > 0 {
		active := segs[n-1]
		l.closed = segs[:n-1]
		l.curName = active.name
		l.curSize = sizeOf(recs, active)
		// For an empty trailing segment (crash between rotation and the first
		// append) last is first-1, so this still resumes at the sequence the
		// segment was created for.
		l.nextSeq = active.last + 1
	}
	return l, recs, nil
}

// sizeOf computes the byte size of the active segment from its replayed
// records (framing plus payload).
func sizeOf(all []Record, active segment) int64 {
	var size int64
	for _, r := range all {
		if r.Seq >= active.first {
			size += recordHeader + int64(len(r.Payload))
		}
	}
	return size
}

// scanSegment reads records starting at sequence want until the file ends or
// a frame fails to parse. good is the byte offset of the last intact record's
// end; torn reports whether damaged bytes follow it.
func scanSegment(f File, want uint64) (recs []Record, good int64, torn bool, err error) {
	var hdr [recordHeader]byte
	for {
		_, rerr := io.ReadFull(f, hdr[:])
		if rerr == io.EOF {
			return recs, good, false, nil
		}
		if rerr != nil { // ErrUnexpectedEOF or a real read error: partial header
			return recs, good, true, nil
		}
		length := binary.LittleEndian.Uint32(hdr[0:4])
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		seq := binary.LittleEndian.Uint64(hdr[8:16])
		if length > MaxRecordBytes || seq != want {
			return recs, good, true, nil
		}
		payload := make([]byte, length)
		if _, rerr := io.ReadFull(f, payload); rerr != nil {
			return recs, good, true, nil
		}
		crc := crc32.Update(crc32.Checksum(hdr[8:16], crcTable), crcTable, payload)
		if crc != sum {
			return recs, good, true, nil
		}
		recs = append(recs, Record{Seq: seq, Payload: payload})
		good += recordHeader + int64(length)
		want++
	}
}

// TornTail reports whether Open truncated a torn tail (a crash mid-append;
// the damaged record was never acknowledged).
func (l *Log) TornTail() bool { return l.torn }

// NextSeq returns the sequence number the next Append will assign.
func (l *Log) NextSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq
}

// Segments reports how many segment files the log currently spans.
func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.closed)
	if l.curName != "" {
		n++
	}
	return n
}

// Append frames payload, writes it to the active segment and fsyncs before
// returning the record's sequence number — the caller may acknowledge the
// record if and only if Append returned nil. Any write or sync failure
// wedges the log permanently (the on-disk tail is no longer trusted); every
// later Append returns the same error, and recovery via a fresh Open is the
// only way forward.
func (l *Log) Append(payload []byte) (uint64, error) {
	if len(payload) > MaxRecordBytes {
		return 0, fmt.Errorf("wal: record of %d bytes exceeds the %d byte bound", len(payload), MaxRecordBytes)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return 0, l.err
	}
	return l.appendLocked(payload)
}

// AppendAt appends payload under an EXPLICIT sequence number — the API a
// replica mirrors a leader's log through, where the leader already assigned
// every sequence and the mirror must reproduce it exactly (promotion replays
// the mirror against a checkpoint whose folded-batch count lives in the
// leader's numbering). seq == NextSeq appends normally; seq < NextSeq is a
// record the mirror already holds and is skipped (false, nil); seq > NextSeq
// is permitted only on a completely empty log — a fresh replica whose first
// shipped record continues the leader's checkpoint, not sequence 1 — because
// anywhere else the jump would write a gap that recovery must refuse as lost
// acknowledged data.
func (l *Log) AppendAt(seq uint64, payload []byte) (bool, error) {
	if seq == 0 {
		return false, fmt.Errorf("wal: sequence numbers are 1-based")
	}
	if len(payload) > MaxRecordBytes {
		return false, fmt.Errorf("wal: record of %d bytes exceeds the %d byte bound", len(payload), MaxRecordBytes)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return false, l.err
	}
	switch {
	case seq < l.nextSeq:
		return false, nil
	case seq == l.nextSeq:
	case l.nextSeq == 1 && l.curName == "" && len(l.closed) == 0:
		l.nextSeq = seq
	default:
		return false, fmt.Errorf("%w: append at sequence %d would leave a gap after %d", ErrGap, seq, l.nextSeq-1)
	}
	if _, err := l.appendLocked(payload); err != nil {
		return false, err
	}
	return true, nil
}

// appendLocked frames payload under l.nextSeq, writes and fsyncs it. Caller
// holds l.mu and has checked the sticky error and the payload bound.
func (l *Log) appendLocked(payload []byte) (uint64, error) {
	if l.cur == nil || l.curSize >= l.segBytes {
		if err := l.rollLocked(); err != nil {
			return 0, l.fail(err)
		}
	}
	buf := make([]byte, recordHeader+len(payload))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint64(buf[8:16], l.nextSeq)
	copy(buf[recordHeader:], payload)
	crc := crc32.Update(crc32.Checksum(buf[8:16], crcTable), crcTable, payload)
	binary.LittleEndian.PutUint32(buf[4:8], crc)
	if _, err := l.cur.Write(buf); err != nil {
		return 0, l.fail(err)
	}
	if err := l.cur.Sync(); err != nil {
		return 0, l.fail(err)
	}
	seq := l.nextSeq
	l.nextSeq++
	l.curSize += int64(len(buf))
	return seq, nil
}

// fail wedges the log with its first error. Caller holds l.mu.
func (l *Log) fail(err error) error {
	l.err = fmt.Errorf("wal: log wedged: %w", err)
	return l.err
}

// rollLocked makes an active segment handle available: it reopens a resumable
// segment left by Open, or closes the full one and starts the next file
// (fsyncing the directory so the new entry survives a crash). Caller holds
// l.mu.
func (l *Log) rollLocked() error {
	if l.cur == nil && l.curName != "" && l.curSize < l.segBytes {
		f, err := l.fs.OpenAppend(filepath.Join(l.dir, l.curName))
		if err != nil {
			return err
		}
		l.cur = f
		return nil
	}
	if l.cur != nil {
		l.cur.Close()
		l.cur = nil
	}
	if l.curName != "" {
		first, _ := parseSegName(l.curName)
		l.closed = append(l.closed, segment{name: l.curName, first: first, last: l.nextSeq - 1})
		l.curName = ""
	}
	name := segName(l.nextSeq)
	f, err := l.fs.Create(filepath.Join(l.dir, name))
	if err != nil {
		return err
	}
	if err := l.fs.SyncDir(l.dir); err != nil {
		f.Close()
		return err
	}
	l.cur = f
	l.curName = name
	l.curSize = 0
	return nil
}

// Compact removes every closed segment whose records are all folded into a
// durable checkpoint (last sequence <= upTo). The active segment is never
// removed. Compact must only be called after the checkpoint covering upTo is
// itself durable — otherwise a crash would strand acknowledged batches with
// neither a checkpoint nor a log to recover them from.
func (l *Log) Compact(upTo uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	var keep []segment
	var errs []error
	removed := false
	for _, seg := range l.closed {
		if seg.last > 0 && seg.last <= upTo {
			if err := l.fs.Remove(filepath.Join(l.dir, seg.name)); err != nil {
				errs = append(errs, err)
				keep = append(keep, seg)
				continue
			}
			removed = true
			continue
		}
		keep = append(keep, seg)
	}
	l.closed = keep
	if removed {
		if err := l.fs.SyncDir(l.dir); err != nil {
			errs = append(errs, err)
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("wal: compact: %w", errors.Join(errs...))
	}
	return nil
}

// Reset discards the whole log: it removes every segment through the log's
// FS, fsyncs the directory and restarts at sequence 1, so the next AppendAt
// may resume at any sequence. Callers must hold a durable copy of every
// record dropped (a replica installs its leader's newer checkpoint first).
// A wedged or closed log refuses with its sticky error, and a failed Reset
// wedges the log.
func (l *Log) Reset() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	if l.cur != nil {
		l.cur.Close() // every record in it was fsync'd; the file goes next
		l.cur = nil
	}
	names, err := l.fs.List(l.dir)
	if err != nil {
		return l.fail(err)
	}
	for _, name := range names {
		if _, ok := parseSegName(name); ok {
			if err := l.fs.Remove(filepath.Join(l.dir, name)); err != nil {
				return l.fail(err)
			}
		}
	}
	if err := l.fs.SyncDir(l.dir); err != nil {
		return l.fail(err)
	}
	l.closed, l.curName, l.curSize, l.nextSeq = nil, "", 0, 1
	return nil
}

// Close releases the active segment and wedges the log: every later Append
// fails. Close the log only after the final Compact.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	var err error
	if l.cur != nil {
		err = l.cur.Close()
		l.cur = nil
	}
	if l.err == nil {
		l.err = errors.New("wal: log closed")
	}
	return err
}
