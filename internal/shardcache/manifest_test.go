package shardcache

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestManifestRoundtripAndVerify(t *testing.T) {
	dir := t.TempDir()
	c := openCache(t, dir)
	for i := byte(1); i <= 3; i++ {
		c.Put(key(i), entry(int(i)))
	}
	man := &Manifest{
		Generation:      7,
		FoldedBatches:   4,
		FoldedMutations: 9,
		ModelSHA256:     strings.Repeat("a", 64),
		GraphSHA256:     strings.Repeat("b", 64),
		Vocab:           []string{"smoker", "cancer"},
	}
	if err := c.PersistManifest(man); err != nil {
		t.Fatal(err)
	}
	if len(man.Blobs) != 3 {
		t.Fatalf("manifest lists %d blobs, want 3", len(man.Blobs))
	}

	got, err := LoadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got.Generation != 7 || got.FoldedBatches != 4 || got.FoldedMutations != 9 ||
		got.ModelSHA256 != man.ModelSHA256 || got.GraphSHA256 != man.GraphSHA256 ||
		len(got.Vocab) != 2 || got.Vocab[0] != "smoker" || len(got.Blobs) != 3 {
		t.Fatalf("manifest did not roundtrip: %+v", got)
	}

	// All blobs intact: nothing quarantined.
	q, err := VerifyBlobs(dir, got)
	if err != nil || len(q) != 0 {
		t.Fatalf("clean dir verified as %v, %v", q, err)
	}
	// Flip a byte in one blob: exactly that blob is quarantined, by rename.
	var victim string
	for name := range got.Blobs {
		victim = name
		break
	}
	path := filepath.Join(dir, victim)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	q, err = VerifyBlobs(dir, got)
	if err != nil || len(q) != 1 || q[0] != victim {
		t.Fatalf("tampered blob verification = %v, %v; want [%s]", q, err, victim)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("quarantined blob still present under its original name")
	}
	if _, err := os.Stat(path + QuarantineSuffix); err != nil {
		t.Fatalf("quarantined blob not preserved for post-mortem: %v", err)
	}
	// A quarantined (now missing) blob is a future miss, not an error.
	q, err = VerifyBlobs(dir, got)
	if err != nil || len(q) != 0 {
		t.Fatalf("re-verification over the missing blob = %v, %v", q, err)
	}
}

func TestLoadManifestMissingAndInvalid(t *testing.T) {
	dir := t.TempDir()
	if m, err := LoadManifest(dir); m != nil || err != nil {
		t.Fatalf("missing manifest = %v, %v; want nil, nil", m, err)
	}
	path := filepath.Join(dir, ManifestName)
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadManifest(dir); err == nil {
		t.Fatal("malformed manifest loaded")
	}
	if err := os.WriteFile(path, []byte(`{"version": 99}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadManifest(dir); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("future-version manifest = %v, want a version error", err)
	}
}

func TestQuarantineDir(t *testing.T) {
	dir := t.TempDir()
	c := openCache(t, dir)
	for i := byte(1); i <= 2; i++ {
		c.Put(key(i), entry(int(i)))
	}
	if err := c.PersistManifest(&Manifest{}); err != nil {
		t.Fatal(err)
	}
	// Non-blob files are untouched by the sweep.
	if err := os.WriteFile(filepath.Join(dir, ManifestName), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	n, err := QuarantineDir(dir)
	if err != nil || n != 2 {
		t.Fatalf("QuarantineDir = %d, %v; want 2, nil", n, err)
	}
	left, err := filepath.Glob(filepath.Join(dir, "*.gob"))
	if err != nil || len(left) != 0 {
		t.Fatalf("blobs left unquarantined: %v", left)
	}
	if _, err := os.Stat(filepath.Join(dir, ManifestName)); err != nil {
		t.Fatalf("non-blob file swept away: %v", err)
	}
	// An absent directory quarantines nothing rather than failing.
	if n, err := QuarantineDir(filepath.Join(dir, "nope")); n != 0 || err != nil {
		t.Fatalf("QuarantineDir on a missing dir = %d, %v", n, err)
	}
}

// TestPersistAggregatesPerEntryErrors: one unwritable entry must not abort
// the flush — every other entry persists, the error names the failure count,
// the PersistErrors stat records it, and the manifest commits only the
// healthy blobs.
func TestPersistAggregatesPerEntryErrors(t *testing.T) {
	dir := t.TempDir()
	c := openCache(t, dir)
	// Occupy one entry's blob name with a directory: the atomic rename onto
	// it fails for that entry alone, in the flush (Put writes no blob).
	blocked := key(2).filename()
	if err := os.MkdirAll(filepath.Join(dir, blocked), 0o755); err != nil {
		t.Fatal(err)
	}
	for i := byte(1); i <= 3; i++ {
		c.Put(key(i), entry(int(i)))
	}
	man := &Manifest{}
	err := c.PersistManifest(man)
	if err == nil || !strings.Contains(err.Error(), "1 of 3 entries failed to persist") {
		t.Fatalf("PersistManifest over a blocked entry = %v, want the aggregated count", err)
	}
	if got := c.Stats().PersistErrors; got != 1 {
		t.Fatalf("PersistErrors stat = %d, want 1", got)
	}
	blobs, err := filepath.Glob(filepath.Join(dir, "*.gob"))
	if err != nil {
		t.Fatal(err)
	}
	persisted := 0
	for _, b := range blobs {
		if fi, err := os.Stat(b); err == nil && !fi.IsDir() {
			persisted++
		}
	}
	if persisted != 2 {
		t.Fatalf("persisted %d healthy entries, want 2", persisted)
	}
	if _, listed := man.Blobs[blocked]; listed || len(man.Blobs) != 2 {
		t.Fatalf("manifest lists %d blobs (blocked listed=%v), want 2 healthy", len(man.Blobs), listed)
	}
}

// TestPersistManifestWritesOnlyNewBlobs pins the checkpoint cost of a
// cache's flush: a blob the cache already wrote is listed with its recorded
// checksum, not written again. Each write is a temp file renamed into
// place, so a rewritten blob is a new file; os.SameFile tells the two
// apart.
func TestPersistManifestWritesOnlyNewBlobs(t *testing.T) {
	dir := t.TempDir()
	c := openCache(t, dir)
	for i := byte(1); i <= 3; i++ {
		c.Put(key(i), entry(int(i)))
	}
	stat := func() map[string]os.FileInfo {
		t.Helper()
		out := make(map[string]os.FileInfo)
		for i := byte(1); i <= 4; i++ {
			if fi, err := os.Stat(filepath.Join(dir, key(i).filename())); err == nil {
				out[key(i).filename()] = fi
			}
		}
		return out
	}
	persist := func() *Manifest {
		t.Helper()
		man := &Manifest{Generation: 1}
		if err := c.PersistManifest(man); err != nil {
			t.Fatal(err)
		}
		if q, err := VerifyBlobs(dir, man); err != nil || len(q) != 0 {
			t.Fatalf("VerifyBlobs = %v, %v", q, err)
		}
		return man
	}
	if len(stat()) != 0 {
		t.Fatal("Put wrote a blob")
	}
	if man := persist(); len(man.Blobs) != 3 {
		t.Fatalf("manifest lists %d blobs, want 3", len(man.Blobs))
	}
	before := stat()
	persist()
	for name, fi := range stat() {
		if !os.SameFile(before[name], fi) {
			t.Errorf("PersistManifest rewrote %s, which the first flush had written", name)
		}
	}

	// An entry loaded back from disk was not written by this cache: the
	// next flush writes it once and records its checksum.
	other := openCache(t, dir)
	if _, ok := other.Get(key(1)); !ok {
		t.Fatal("blob 1 did not load")
	}
	c = other
	if man := persist(); len(man.Blobs) != 1 {
		t.Fatalf("manifest lists %d blobs, want 1", len(man.Blobs))
	}
	written := stat()
	if os.SameFile(before[key(1).filename()], written[key(1).filename()]) {
		t.Error("the flush did not write the loaded entry's blob")
	}
	persist()
	if !os.SameFile(written[key(1).filename()], stat()[key(1).filename()]) {
		t.Error("the second flush rewrote the blob the first one wrote")
	}
}

// openCache opens a dir-backed cache on dir.
func openCache(t *testing.T, dir string) *Cache {
	t.Helper()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return c
}
