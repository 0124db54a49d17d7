package shardcache

import (
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"cspm/internal/graph"
	"cspm/internal/invdb"
)

func key(b byte) Key {
	var k Key
	k[0] = b
	k[31] = 0xee
	return k
}

func entry(n int) *Entry {
	e := &Entry{Iterations: n, GainEvals: 10 * n}
	for i := 0; i < n; i++ {
		e.Final = append(e.Final, invdb.LineStat{
			Core: invdb.CoresetID(i), Leaf: []graph.AttrID{graph.AttrID(i), graph.AttrID(i + 1)}, FL: i + 1,
		})
	}
	e.Init = cloneStats(e.Final)
	return e
}

// TestRunBoundEviction pins the memory bound: an entry used in run r
// survives EndRun at r and r+1, is evicted at r+2 and counted, and a
// dir-backed cache still serves it from disk afterwards once persisted. A
// Get in a later run renews the entry like a Put.
func TestRunBoundEviction(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c.Put(key(1), entry(1)) // run r
	c.Put(key(2), entry(2))
	mustPersist(t, c)
	c.EndRun()
	if st := c.Stats(); st.Entries != 2 || st.Evictions != 0 {
		t.Fatalf("after EndRun at r: %+v, want both entries resident", st)
	}
	if _, ok := c.Get(key(2)); !ok { // run r+1 uses entry 2 only
		t.Fatal("missing entry 2")
	}
	c.EndRun()
	if st := c.Stats(); st.Entries != 2 || st.Evictions != 0 {
		t.Fatalf("after EndRun at r+1: %+v, want both entries resident", st)
	}
	c.EndRun() // run r+2 uses nothing
	if st := c.Stats(); st.Entries != 1 || st.Evictions != 1 {
		t.Fatalf("after EndRun at r+2: %+v, want entry 1 evicted, entry 2 resident", st)
	}
	c.EndRun()
	if st := c.Stats(); st.Entries != 0 || st.Evictions != 2 {
		t.Fatalf("after EndRun at r+3: %+v, want entry 2 evicted too", st)
	}
	got, ok := c.Get(key(1))
	if !ok || got.Iterations != 1 {
		t.Fatalf("evicted entry not served from disk: %+v, %v", got, ok)
	}
	if st := c.Stats(); st.Entries != 1 || st.Hits != 2 || st.Misses != 0 {
		t.Fatalf("disk hit stats %+v, want the entry re-admitted", st)
	}

	// A memory-only cache has nothing to fall back on.
	mem := New()
	mem.Put(key(3), entry(3))
	for range 3 {
		mem.EndRun()
	}
	if _, ok := mem.Get(key(3)); ok {
		t.Fatal("memory-only cache served an evicted entry")
	}
	if st := mem.Stats(); st.Evictions != 1 || st.Misses != 1 {
		t.Fatalf("memory-only stats %+v, want one eviction and one miss", st)
	}
}

func TestPutCopiesAndGetShares(t *testing.T) {
	c := New()
	e := entry(2)
	c.Put(key(9), e)
	e.Final[0].FL = 999
	e.Final[0].Leaf[0] = 999 // caller mutates its own slices after Put
	got, ok := c.Get(key(9))
	if !ok {
		t.Fatal("missing entry")
	}
	if got.Final[0].FL == 999 || got.Final[0].Leaf[0] == 999 {
		t.Fatal("Put aliased the caller's slices")
	}
}

func TestOverwriteSameKey(t *testing.T) {
	c := New()
	c.Put(key(1), entry(1))
	c.EndRun()
	c.EndRun()
	c.Put(key(1), entry(5)) // an overwrite is a use: the entry lives on
	c.EndRun()
	got, _ := c.Get(key(1))
	if got == nil || got.Iterations != 5 {
		t.Fatalf("overwrite not visible: %+v", got)
	}
	if st := c.Stats(); st.Evictions != 0 || st.Entries != 1 {
		t.Fatalf("overwrite evicted or duplicated: %+v", st)
	}
}

func TestRemove(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c.Put(key(1), entry(1))
	mustPersist(t, c)
	if !c.Remove(key(1)) {
		t.Fatal("Remove found nothing")
	}
	if _, ok := c.Get(key(1)); ok {
		t.Fatal("entry survived Remove")
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "*.gob")); len(files) != 0 {
		t.Fatalf("disk blob survived Remove: %v", files)
	}
	if c.Remove(key(1)) {
		t.Fatal("second Remove claimed success")
	}
}

func TestDiskRoundTripAndEvictionSurvival(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := entry(3)
	c.Put(key(1), want)
	c.EndRun()
	c.Put(key(2), entry(4))
	mustPersist(t, c)
	c.EndRun()
	c.EndRun() // evicts 1 from memory; disk blob remains
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("stats %+v, want one eviction", st)
	}
	got, ok := c.Get(key(1)) // served from disk, re-admitted
	if !ok {
		t.Fatal("evicted entry not recovered from disk")
	}
	if got.Iterations != want.Iterations || len(got.Final) != len(want.Final) ||
		got.Final[2].FL != want.Final[2].FL || got.Final[2].Leaf[1] != want.Final[2].Leaf[1] {
		t.Fatalf("disk round-trip mangled the entry: %+v", got)
	}

	// A second cache over the same directory sees the blobs (restart).
	c2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c2.Get(key(2)); !ok {
		t.Fatal("fresh cache missed a persisted blob")
	}
	if st := c2.Stats(); st.Hits != 1 || st.Entries != 1 {
		t.Fatalf("fresh cache stats %+v", st)
	}
}

func TestCorruptBlobIsAMiss(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c.Put(key(7), entry(2))
	mustPersist(t, c)
	files, _ := filepath.Glob(filepath.Join(dir, "*.gob"))
	if len(files) != 1 {
		t.Fatalf("expected one blob, got %v", files)
	}
	if err := os.WriteFile(files[0], []byte("not a gob"), 0o644); err != nil {
		t.Fatal(err)
	}
	c2, _ := Open(dir)
	if _, ok := c2.Get(key(7)); ok {
		t.Fatal("corrupt blob served as a hit")
	}
	if st := c2.Stats(); st.Misses != 1 {
		t.Fatalf("stats %+v, want one miss", st)
	}
}

func TestOpenRejectsEmptyDirAndCreatesMissing(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Fatal("Open accepted an empty directory")
	}
	nested := filepath.Join(t.TempDir(), "a", "b")
	if _, err := Open(nested); err != nil {
		t.Fatalf("Open did not create %s: %v", nested, err)
	}
	if fi, err := os.Stat(nested); err != nil || !fi.IsDir() {
		t.Fatalf("cache dir not created: %v", err)
	}
}

// TestRunBoundKeepsWholeRun pins that the bound is by run, not by count:
// every entry a run used stays resident however many there are.
func TestRunBoundKeepsWholeRun(t *testing.T) {
	c := New()
	for i := 0; i < 100; i++ {
		c.Put(key(byte(i)), entry(1))
	}
	c.EndRun()
	c.EndRun()
	if st := c.Stats(); st.Entries != 100 || st.Evictions != 0 {
		t.Fatalf("run-bound cache evicted entries of the previous run: %+v", st)
	}
}

// TestRunBoundConcurrentUse drives lookups, stores, flushes, EndRun and a
// manifest flush from several goroutines at once (run it under -race);
// afterwards every stored key is still served, from disk once evicted.
func TestRunBoundConcurrentUse(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 50 {
				k := key(byte(w*50 + i))
				c.Put(k, entry(1))
				if _, err := c.Persist(); err != nil {
					t.Error(err)
				}
				if _, ok := c.Get(k); !ok {
					t.Errorf("key %d missing right after Put", w*50+i)
				}
				if i%10 == 0 {
					c.EndRun()
					if err := c.PersistManifest(&Manifest{}); err != nil {
						t.Error(err)
					}
				}
			}
		}()
	}
	wg.Wait()
	for range 3 {
		c.EndRun()
	}
	if st := c.Stats(); st.Hits != 200 || st.Misses != 0 || st.Entries != 0 || st.Evictions < 200 {
		t.Fatalf("stats %+v, want 200 hits and every entry evicted", st)
	}
	for i := range 200 {
		if _, ok := c.Get(key(byte(i))); !ok {
			t.Fatalf("key %d not served from disk", i)
		}
	}
}

// TestPersistFlushesMemoryToDisk pins where PersistManifest writes: a
// memory-only cache has no directory and refuses, a dir-backed one lists
// every resident entry's blob in its own directory, where a fresh cache
// serves them.
func TestPersistFlushesMemoryToDisk(t *testing.T) {
	mem := New()
	mem.Put(key(1), entry(1))
	if err := mem.PersistManifest(&Manifest{}); err == nil {
		t.Fatal("a memory-only cache persisted")
	}
	if _, err := mem.Persist(); err == nil {
		t.Fatal("a memory-only cache persisted its blobs")
	}
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := byte(1); i <= 3; i++ {
		c.Put(key(i), entry(int(i)))
	}
	man := &Manifest{}
	if err := c.PersistManifest(man); err != nil {
		t.Fatal(err)
	}
	if q, err := VerifyBlobs(dir, man); err != nil || len(q) != 0 || len(man.Blobs) != 3 {
		t.Fatalf("%d blobs listed, VerifyBlobs = %v, %v", len(man.Blobs), q, err)
	}
	warm, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := byte(1); i <= 3; i++ {
		got, ok := warm.Get(key(i))
		if !ok {
			t.Fatalf("entry %d missing after persist", i)
		}
		if got.Iterations != int(i) || len(got.Final) != int(i) {
			t.Fatalf("entry %d round-tripped wrong: %+v", i, got)
		}
	}
}

// rawEntry returns an entry whose lines are out of the canonical order:
// reversed, as an older binary could have stored them.
func rawEntry() *Entry {
	e := entry(4)
	slices.Reverse(e.Init)
	slices.Reverse(e.Final)
	return e
}

// TestAdmittedEntriesAreNormalized pins that every way into the cache
// leaves an entry's lines in the canonical order: Put normalizes its copy,
// and the disk layer normalizes a blob written in raw line order.
func TestAdmittedEntriesAreNormalized(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	c.Put(key(1), rawEntry())
	got, _ := c.Get(key(1))
	if !invdb.IsNormalized(got.Init) || !invdb.IsNormalized(got.Final) {
		t.Fatal("Put stored lines out of the canonical order")
	}
	if !reflect.DeepEqual(got.Final, entry(4).Final) {
		t.Fatalf("normalized lines %v, want %v", got.Final, entry(4).Final)
	}

	blob, err := encodeEntry(rawEntry())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, key(2).filename()), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, ok := c.Get(key(2))
	if !ok {
		t.Fatal("raw blob did not load")
	}
	if !reflect.DeepEqual(loaded.Init, entry(4).Init) || !reflect.DeepEqual(loaded.Final, entry(4).Final) {
		t.Fatal("a blob in raw line order loaded unnormalized")
	}
}

// TestPutReturnsStoredCopyAndSlabsLeaves pins Put's copy: Put returns the
// entry it stored, the one later hits get (so an order built on it is
// reused), and it cuts every leafset from one slab with its capacity
// capped, so appending to one leafset cannot clobber the next.
func TestPutReturnsStoredCopyAndSlabsLeaves(t *testing.T) {
	c := New()
	e := entry(3)
	stored := c.Put(key(1), e)
	got, _ := c.Get(key(1))
	if got != stored {
		t.Fatal("Put returned an entry other than the one a hit gets")
	}
	if got == e {
		t.Fatal("Put stored the caller's entry, not a copy")
	}
	for i, s := range got.Final {
		if cap(s.Leaf) != len(s.Leaf) {
			t.Fatalf("line %d leaf has spare capacity %d", i, cap(s.Leaf)-len(s.Leaf))
		}
	}
	if &got.Final[0].Leaf[0] == &e.Final[0].Leaf[0] {
		t.Fatal("copy aliases the caller's leafsets")
	}
}

// TestOrderConcurrentFirstUse races first uses of one entry's merge order:
// every caller must get the one order that won.
func TestOrderConcurrentFirstUse(t *testing.T) {
	e := entry(3)
	got := make([]*Order, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = e.Order(func() *Order { return &Order{Patterns: []int32{int32(i)}} })
		}()
	}
	wg.Wait()
	for i, o := range got {
		if o != got[0] {
			t.Fatalf("caller %d got order %v, caller 0 got %v", i, o, got[0])
		}
	}
}

// mustPersist writes c's resident entries to its directory.
func mustPersist(t *testing.T, c *Cache) {
	t.Helper()
	if _, err := c.Persist(); err != nil {
		t.Fatal(err)
	}
}

// TestPersistCountsEveryFailedWrite pins that a blob write that fails is
// never silent: with the cache directory replaced by a regular file,
// Persist fails for every resident entry, counts each one in the
// PersistErrors stat, and every entry keeps serving from memory. Put,
// which writes nothing, is unaffected.
func TestPersistCountsEveryFailedWrite(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cache")
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	for i := byte(1); i <= 3; i++ {
		c.Put(key(i), entry(int(i)))
	}
	sums, err := c.Persist()
	if err == nil || !strings.Contains(err.Error(), "3 of 3 entries failed to persist") {
		t.Fatalf("Persist into a file = %v, want every entry failed", err)
	}
	if len(sums) != 0 {
		t.Fatalf("Persist listed %d blobs it could not write", len(sums))
	}
	if got := c.Stats().PersistErrors; got != 3 {
		t.Fatalf("PersistErrors stat = %d, want 3", got)
	}
	// Nothing was recorded as written, so the next flush tries (and counts)
	// every entry again.
	if err := c.PersistManifest(&Manifest{}); err == nil {
		t.Fatal("PersistManifest into a file succeeded")
	}
	if got := c.Stats().PersistErrors; got != 6 {
		t.Fatalf("PersistErrors stat after a second flush = %d, want 6", got)
	}
	for i := byte(1); i <= 3; i++ {
		got, ok := c.Get(key(i))
		if !ok || got.Iterations != int(i) {
			t.Fatalf("entry %d not served from memory after failed writes: %+v, %v", i, got, ok)
		}
	}
}
