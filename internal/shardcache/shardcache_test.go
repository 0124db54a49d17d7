package shardcache

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"cspm/internal/graph"
	"cspm/internal/invdb"
)

func key(b byte) Key {
	var k Key
	k.Component[0] = b
	k.Global[31] = 0xee
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
// dir-backed cache still serves it from disk afterwards. A Get in a later
// run renews the entry like a Put.
func TestRunBoundEviction(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	c.Put(key(1), entry(1)) // run r
	c.Put(key(2), entry(2))
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

// TestRunBoundConcurrentUse drives lookups, stores, EndRun and a manifest
// flush from several goroutines at once (run it under -race); afterwards
// every stored key is still served, from disk once evicted.
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
				if err := c.Put(k, entry(1)); err != nil {
					t.Error(err)
				}
				if _, ok := c.Get(k); !ok {
					t.Errorf("key %d missing right after Put", w*50+i)
				}
				if i%10 == 0 {
					c.EndRun()
					if err := c.PersistManifest(dir, &Manifest{}); err != nil {
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

func TestPersistFlushesMemoryToDisk(t *testing.T) {
	mem := New()
	for i := byte(1); i <= 3; i++ {
		if err := mem.Put(key(i), entry(int(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := mem.PersistManifest("", &Manifest{}); err == nil {
		t.Fatal("PersistManifest accepted an empty directory")
	}
	dir := filepath.Join(t.TempDir(), "nested", "cache") // PersistManifest must mkdir
	if err := mem.PersistManifest(dir, &Manifest{}); err != nil {
		t.Fatal(err)
	}
	blobs, err := filepath.Glob(filepath.Join(dir, "*.gob"))
	if err != nil {
		t.Fatal(err)
	}
	if len(blobs) != 3 {
		t.Fatalf("persisted %d blobs, want 3", len(blobs))
	}
	// A dir-backed cache over the flushed directory serves every entry.
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
	// Persisting a dir-backed cache to its own directory is an idempotent
	// rewrite of identical bytes.
	before, err := os.ReadFile(blobs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := warm.PersistManifest(dir, &Manifest{}); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(blobs[0])
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Fatal("self-persist rewrote a blob with different bytes")
	}
}
