// Package crashfs is a deterministic fault-injecting implementation of
// wal.FS for recovery testing: an in-memory filesystem that models the page
// cache explicitly. Written bytes are *pending* until Sync promotes them to
// *durable*; a simulated crash drops every pending byte (optionally keeping
// a configurable torn prefix of the crashing operation, modelling a
// partially flushed write) and makes all further operations fail with
// ErrCrashed. Recover then exposes exactly the durable state — what a real
// process would find on disk after the kill — so a test can restart the
// system under test on it and assert recovery invariants at every injected
// crash point.
package crashfs

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"cspm/internal/wal"
)

// ErrCrashed is returned by every operation after the injected crash point.
var ErrCrashed = errors.New("crashfs: simulated crash")

// ErrSyncFailed is the injected fsync failure: the sync does not happen,
// but the process survives (the caller must treat the data as volatile).
var ErrSyncFailed = errors.New("crashfs: injected fsync failure")

// Config selects the injected fault. The zero value injects nothing.
// Mutating operations — Create, Write, Sync, Truncate, Rename, Remove,
// SyncDir — are counted across the whole Dir in call order, which is what
// makes a crash point reproducible: the Nth op of a deterministic workload
// is always the same op.
type Config struct {
	// CrashAtOp crashes on the Nth mutating operation, 1-based (0 = never).
	// The crashing operation does not take effect, except for the TornBytes
	// prefix of a crashing Write or Sync.
	CrashAtOp int
	// TornBytes is how many bytes of the crashing Write (or of the pending
	// data a crashing Sync was flushing) still reach durable state — a torn
	// write. 0 models a clean kill between operations.
	TornBytes int
	// FailSyncAt makes the Nth Sync call (1-based) return ErrSyncFailed
	// without syncing; the process survives (0 = never).
	FailSyncAt int
	// MaxReadChunk caps the bytes returned per Read call (0 = unlimited),
	// exercising short-read handling in the code under test.
	MaxReadChunk int
}

// file models one file: durable content (what survives a crash) plus
// pending bytes written but not yet fsynced.
type file struct {
	durable []byte
	pending []byte
}

func (f *file) view() []byte { // what the live process reads
	out := make([]byte, 0, len(f.durable)+len(f.pending))
	out = append(out, f.durable...)
	return append(out, f.pending...)
}

// Dir is an in-memory filesystem rooted at nothing in particular: names are
// the full paths the caller uses (wal joins dir + segment name). It
// implements wal.FS.
type Dir struct {
	mu      sync.Mutex
	cfg     Config
	files   map[string]*file
	ops     int
	syncs   int
	crashed bool
}

// New returns an empty Dir injecting cfg's fault.
func New(cfg Config) *Dir {
	return &Dir{cfg: cfg, files: make(map[string]*file)}
}

// Ops reports how many mutating operations have run (run a workload with a
// zero Config first to size a crash matrix).
func (d *Dir) Ops() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.ops
}

// Crashed reports whether the injected crash point was reached.
func (d *Dir) Crashed() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.crashed
}

// Recover returns the post-crash filesystem: every file's durable content,
// with no pending bytes and no faults configured — what a restarted process
// finds. The receiver keeps its crashed state; the returned Dir is
// independent.
func (d *Dir) Recover() *Dir {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := New(Config{})
	for name, f := range d.files {
		out.files[name] = &file{durable: append([]byte(nil), f.durable...)}
	}
	return out
}

// step counts one mutating operation and reports whether it is the crash
// point. Caller holds d.mu.
func (d *Dir) step() bool {
	d.ops++
	return d.cfg.CrashAtOp > 0 && d.ops == d.cfg.CrashAtOp
}

// crash drops every pending byte. Caller holds d.mu and has already
// promoted any torn prefix.
func (d *Dir) crash() {
	d.crashed = true
	for _, f := range d.files {
		f.pending = nil
	}
}

func (d *Dir) MkdirAll(dir string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.crashed {
		return ErrCrashed
	}
	return nil
}

func (d *Dir) List(dir string) ([]string, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.crashed {
		return nil, ErrCrashed
	}
	prefix := filepath.Clean(dir) + string(filepath.Separator)
	var names []string
	for name := range d.files {
		if rest, ok := strings.CutPrefix(name, prefix); ok && !strings.ContainsRune(rest, filepath.Separator) {
			names = append(names, rest)
		}
	}
	sort.Strings(names)
	return names, nil
}

func (d *Dir) Open(name string) (wal.File, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.crashed {
		return nil, ErrCrashed
	}
	f, ok := d.files[filepath.Clean(name)]
	if !ok {
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	}
	return &handle{d: d, f: f}, nil
}

func (d *Dir) Create(name string) (wal.File, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.crashed {
		return nil, ErrCrashed
	}
	if d.step() {
		d.crash()
		return nil, ErrCrashed
	}
	f := &file{}
	d.files[filepath.Clean(name)] = f
	return &handle{d: d, f: f, writable: true}, nil
}

func (d *Dir) OpenAppend(name string) (wal.File, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.crashed {
		return nil, ErrCrashed
	}
	f, ok := d.files[filepath.Clean(name)]
	if !ok {
		if d.step() { // creating counts like Create
			d.crash()
			return nil, ErrCrashed
		}
		f = &file{}
		d.files[filepath.Clean(name)] = f
	}
	return &handle{d: d, f: f, writable: true}, nil
}

func (d *Dir) Truncate(name string, size int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.crashed {
		return ErrCrashed
	}
	if d.step() {
		d.crash()
		return ErrCrashed
	}
	f, ok := d.files[filepath.Clean(name)]
	if !ok {
		return &fs.PathError{Op: "truncate", Path: name, Err: fs.ErrNotExist}
	}
	if combined := f.view(); int64(len(combined)) > size {
		if int64(len(f.durable)) > size {
			f.durable = f.durable[:size]
			f.pending = nil
		} else {
			f.pending = f.pending[:size-int64(len(f.durable))]
		}
	}
	return nil
}

func (d *Dir) Remove(name string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.crashed {
		return ErrCrashed
	}
	if d.step() {
		d.crash()
		return ErrCrashed
	}
	name = filepath.Clean(name)
	if _, ok := d.files[name]; !ok {
		return &fs.PathError{Op: "remove", Path: name, Err: fs.ErrNotExist}
	}
	delete(d.files, name)
	return nil
}

func (d *Dir) SyncDir(dir string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.crashed {
		return ErrCrashed
	}
	if d.step() {
		d.crash()
		return ErrCrashed
	}
	return nil
}

// handle is one open file. Read position is per handle; writes append, as
// every writer in the system under test does.
type handle struct {
	d        *Dir
	f        *file
	pos      int
	writable bool
}

func (h *handle) Read(p []byte) (int, error) {
	h.d.mu.Lock()
	defer h.d.mu.Unlock()
	if h.d.crashed {
		return 0, ErrCrashed
	}
	data := h.f.view()
	if h.pos >= len(data) {
		return 0, io.EOF
	}
	if m := h.d.cfg.MaxReadChunk; m > 0 && len(p) > m {
		p = p[:m]
	}
	n := copy(p, data[h.pos:])
	h.pos += n
	return n, nil
}

func (h *handle) Write(p []byte) (int, error) {
	h.d.mu.Lock()
	defer h.d.mu.Unlock()
	if h.d.crashed {
		return 0, ErrCrashed
	}
	if !h.writable {
		return 0, fmt.Errorf("crashfs: write to read-only handle")
	}
	if h.d.step() {
		// Torn write: everything previously pending flushes (it was ahead of
		// this write in the file), plus the first TornBytes of this write —
		// a contiguous durable prefix, as a real partial page flush leaves.
		tear := min(h.d.cfg.TornBytes, len(p))
		h.f.durable = append(h.f.durable, h.f.pending...)
		h.f.durable = append(h.f.durable, p[:tear]...)
		h.f.pending = nil
		h.d.crash()
		return 0, ErrCrashed
	}
	h.f.pending = append(h.f.pending, p...)
	return len(p), nil
}

func (h *handle) Sync() error {
	h.d.mu.Lock()
	defer h.d.mu.Unlock()
	if h.d.crashed {
		return ErrCrashed
	}
	h.d.syncs++
	if h.d.cfg.FailSyncAt > 0 && h.d.syncs == h.d.cfg.FailSyncAt {
		h.d.ops++ // the attempt still counts as a mutating op
		return ErrSyncFailed
	}
	if h.d.step() {
		tear := min(h.d.cfg.TornBytes, len(h.f.pending))
		h.f.durable = append(h.f.durable, h.f.pending[:tear]...)
		h.f.pending = nil
		h.d.crash()
		return ErrCrashed
	}
	h.f.durable = append(h.f.durable, h.f.pending...)
	h.f.pending = nil
	return nil
}

func (h *handle) Close() error {
	h.d.mu.Lock()
	defer h.d.mu.Unlock()
	if h.d.crashed {
		return ErrCrashed
	}
	return nil
}
