// Package shardcache stores per-shard mining results keyed by the digest of
// their input, turning repeated component-pipeline runs over
// mostly-unchanged graphs into incremental jobs that only re-mine dirty
// component groups (see DESIGN.md "Shard-result cache").
//
// A cache entry holds exactly what the exact merge path consumes: the
// shard's line stats before any merge (baseline terms) and after its search
// (final terms), plus the run's iteration diagnostics. Both patterns and all
// canonical description lengths are pure functions of those line multisets,
// so replaying an entry is bit-identical to re-mining the group.
//
// Memory holds an entry while the current run or the run before it used it
// (see EndRun), so an undo of the latest edit still replays from memory and
// older states stop costing memory. An optional on-disk layer keeps one gob
// blob per key under a directory, written atomically, loaded back on memory
// misses, surviving evictions and restarts; the blob format doubles as the
// shard-result wire format for distributed fan-out.
package shardcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"cspm/internal/graph"
	"cspm/internal/invdb"
)

// Key identifies one cached shard result: a 256-bit digest covering
// everything the result is a function of. The component pipeline derives
// it from the group's shard job and the graph's value counts (see
// DESIGN.md "Cache key derivation").
type Key [sha256.Size]byte

// filename is the on-disk blob name of the key (64 hex chars + extension).
func (k Key) filename() string { return hex.EncodeToString(k[:]) + ".gob" }

// Entry is one cached shard result. Callers must treat a returned entry and
// everything it references as read-only: entries are shared across lookups.
type Entry struct {
	Init       []invdb.LineStat // lines before any merge
	Final      []invdb.LineStat // lines after the shard's search
	Iterations int              // merges the shard's search applied
	GainEvals  int              // gain evaluations the search performed
}

// clone deep-copies e so cached state never aliases caller-owned slices
// (AppendLineStats leaf slices alias a DB's leafset table).
func (e *Entry) clone() *Entry {
	cp := &Entry{Iterations: e.Iterations, GainEvals: e.GainEvals}
	cp.Init = cloneStats(e.Init)
	cp.Final = cloneStats(e.Final)
	return cp
}

func cloneStats(stats []invdb.LineStat) []invdb.LineStat {
	out := make([]invdb.LineStat, len(stats))
	for i, s := range stats {
		out[i] = invdb.LineStat{Core: s.Core, Leaf: append([]graph.AttrID(nil), s.Leaf...), FL: s.FL}
	}
	return out
}

// Stats is a snapshot of the cache's lifetime counters.
type Stats struct {
	Hits          uint64 // lookups served from memory or disk
	Misses        uint64 // lookups that found nothing
	Evictions     uint64 // entries dropped from memory by EndRun
	PersistErrors uint64 // entries a Persist/PersistManifest failed to write
	Entries       int    // entries currently resident in memory
}

// Cache is a digest-keyed shard-result cache: an in-memory map bounded
// by run (see EndRun) with an optional on-disk layer. All methods are safe
// for concurrent use; blob encode/decode and file I/O run outside the
// mutex, so lookups of resident entries never stall behind another
// goroutine's disk traffic.
type Cache struct {
	mu        sync.Mutex
	byKey     map[Key]*resident
	run       uint64 // number of the current run; EndRun advances it
	dir       string // "" = memory only; immutable after Open
	hits      uint64
	misses    uint64
	evictions uint64
	perErrs   uint64 // Persist/PersistManifest entry-write failures
}

// resident is one entry held in memory, with its key. used is the number of
// the last run that got or put it. sum is the SHA-256 (hex) of the entry's
// blob in the cache's own directory, recorded when the cache wrote that
// blob; "" when the cache has not written it there.
type resident struct {
	key   Key
	entry *Entry
	sum   string
	used  uint64
}

// New returns a memory-only cache.
func New() *Cache {
	return &Cache{byKey: make(map[Key]*resident)}
}

// Open returns a cache backed by one gob blob per key under dir, creating
// the directory if needed. Disk blobs survive evictions from memory and
// process restarts.
func Open(dir string) (*Cache, error) {
	if dir == "" {
		return nil, fmt.Errorf("shardcache: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("shardcache: %w", err)
	}
	c := New()
	c.dir = dir
	return c, nil
}

// Stats returns a snapshot of the lifetime counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions,
		PersistErrors: c.perErrs, Entries: len(c.byKey)}
}

// Get returns the entry stored under k, consulting memory first and then the
// disk layer, and marks it used in the current run. A disk hit is
// re-admitted to memory. The returned entry is shared: callers must not
// mutate it.
func (c *Cache) Get(k Key) (*Entry, bool) {
	c.mu.Lock()
	if r, ok := c.byKey[k]; ok {
		r.used = c.run
		c.hits++
		c.mu.Unlock()
		return r.entry, true
	}
	c.mu.Unlock()
	if c.dir != "" {
		if e, ok := c.loadDisk(k); ok {
			c.mu.Lock()
			// If another goroutine admitted the key while we read disk, the
			// resident entry wins so all holders share one copy.
			e = c.admit(k, e).entry
			c.hits++
			c.mu.Unlock()
			return e, true
		}
	}
	c.mu.Lock()
	c.misses++
	c.mu.Unlock()
	return nil, false
}

// Put stores a deep copy of e under k in memory, marked used in the current
// run, and, when a directory is configured, as a gob blob on disk.
func (c *Cache) Put(k Key, e *Entry) error {
	cp := e.clone()
	c.mu.Lock()
	r := c.admit(k, cp)
	r.entry, r.sum = cp, ""
	c.mu.Unlock()
	if c.dir != "" {
		// cp is shared read-only once admitted, so encoding it unlocked is
		// safe.
		sum, err := storeBlob(c.dir, k, cp)
		if err != nil {
			return err
		}
		c.noteSum(k, cp, sum)
	}
	return nil
}

// noteSum records sum as the checksum of e's blob in the cache's own
// directory, if e is still the entry resident under k.
func (c *Cache) noteSum(k Key, e *Entry, sum string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if r, ok := c.byKey[k]; ok && r.entry == e {
		r.sum = sum
	}
}

// EndRun closes the current run: it drops from memory every entry that
// neither this run nor the one before it got or put, counts them in the
// Evictions stat, starts the next run and returns how many it dropped. The
// component pipeline calls it once per run, after storing the run's fresh
// entries, so memory (and with it every checkpoint manifest) holds at most
// the groups of the last two mined states: the current one, and the one an
// undo of the latest edit returns to. Disk blobs are untouched, so a
// dir-backed cache still serves an evicted entry from disk.
func (c *Cache) EndRun() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for k, r := range c.byKey {
		if r.used+1 < c.run {
			delete(c.byKey, k)
			n++
		}
	}
	c.evictions += uint64(n)
	c.run++
	return n
}

// persistEntries makes every entry currently resident in memory a blob in
// the cache's directory, in the atomic one-gob-blob-per-key format of the
// disk layer (temp file + rename, so a crash mid-write leaves either the
// old blob or none), and returns each blob's SHA-256 (hex) keyed by file
// name. An entry whose blob the cache already wrote is not written again:
// its recorded sum is returned. A failed entry is non-fatal: the rest still
// persist, the failure is counted in the PersistErrors stat, skipped in the
// sums, and aggregated into the returned error.
func (c *Cache) persistEntries() (map[string]string, error) {
	// Snapshot the resident set under the mutex, write outside it: entries
	// are shared read-only once admitted, so encoding unlocked is safe and
	// concurrent lookups never stall behind the flush.
	c.mu.Lock()
	snapshot := make([]resident, 0, len(c.byKey))
	for _, r := range c.byKey {
		snapshot = append(snapshot, *r)
	}
	c.mu.Unlock()
	sums := make(map[string]string, len(snapshot))
	var errs []error
	for _, r := range snapshot {
		if r.sum != "" {
			sums[r.key.filename()] = r.sum
			continue
		}
		sum, err := storeBlob(c.dir, r.key, r.entry)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		sums[r.key.filename()] = sum
		c.noteSum(r.key, r.entry, sum)
	}
	if len(errs) > 0 {
		c.mu.Lock()
		c.perErrs += uint64(len(errs))
		c.mu.Unlock()
		return sums, fmt.Errorf("shardcache: %d of %d entries failed to persist: %w",
			len(errs), len(snapshot), errors.Join(errs...))
	}
	return sums, nil
}

// Purge drops every entry resident in memory. Disk blobs are untouched (use
// QuarantineDir to distrust those); the next lookups repopulate from disk or
// miss. Purge is how a server discards a cache whose recovered state failed
// checksum verification.
func (c *Cache) Purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	clear(c.byKey)
}

// Remove invalidates k in both layers, reporting whether anything existed.
func (c *Cache) Remove(k Key) bool {
	c.mu.Lock()
	_, removed := c.byKey[k]
	delete(c.byKey, k)
	c.mu.Unlock()
	if c.dir != "" {
		if err := os.Remove(filepath.Join(c.dir, k.filename())); err == nil {
			removed = true
		}
	}
	return removed
}

// admit returns the resident of k, inserting e if k has none, and marks it
// used in the current run. Caller holds c.mu.
func (c *Cache) admit(k Key, e *Entry) *resident {
	r, ok := c.byKey[k]
	if !ok {
		r = &resident{key: k, entry: e}
		c.byKey[k] = r
	}
	r.used = c.run
	return r
}

// loadDisk decodes the blob of k, treating any read or decode failure as a
// miss: a truncated or tampered blob must never poison a mining run with a
// partial entry. Runs unlocked (c.dir is immutable).
func (c *Cache) loadDisk(k Key) (*Entry, bool) {
	f, err := os.Open(filepath.Join(c.dir, k.filename()))
	if err != nil {
		return nil, false
	}
	defer f.Close()
	e := &Entry{}
	if err := gob.NewDecoder(f).Decode(e); err != nil {
		return nil, false
	}
	return e, true
}

// storeBlob writes the blob of k under dir atomically (temp file + rename),
// so a crash mid-write leaves either the old blob or none, and concurrent
// writers of one key leave one winner. It returns the blob's SHA-256 (hex).
func storeBlob(dir string, k Key, e *Entry) (string, error) {
	blob, err := encodeEntry(e)
	if err != nil {
		return "", err
	}
	if err := WriteFileAtomic(dir, k.filename(), blob, false); err != nil {
		return "", err
	}
	return hashHex(blob), nil
}

// encodeEntry gob-encodes e into a byte slice, so callers can checksum the
// exact bytes that hit disk.
func encodeEntry(e *Entry) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(e); err != nil {
		return nil, fmt.Errorf("shardcache: %w", err)
	}
	return buf.Bytes(), nil
}

// WriteFileAtomic writes data as dir/name via temp file + rename. With sync
// set it fsyncs the temp file before the rename and the directory after, so
// the rename is a durable commit point and not just an atomic one.
func WriteFileAtomic(dir, name string, data []byte, sync bool) error {
	tmp, err := os.CreateTemp(dir, "put-*.tmp")
	if err != nil {
		return fmt.Errorf("shardcache: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("shardcache: %w", err)
	}
	if sync {
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return fmt.Errorf("shardcache: %w", err)
		}
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("shardcache: %w", err)
	}
	if err := os.Rename(tmp.Name(), filepath.Join(dir, name)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("shardcache: %w", err)
	}
	if sync {
		if err := syncDir(dir); err != nil {
			return fmt.Errorf("shardcache: %w", err)
		}
	}
	return nil
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
