package shardcache

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// ManifestName is the file a checkpointed cache directory is committed
// under. The manifest is written last, fsync'd and atomically renamed, so it
// is the durable commit point of a checkpoint (see DESIGN.md "Durability &
// crash recovery"). The blobs it lists are renamed into place atomically but
// not fsync'd: a crash can still lose or tear one, which VerifyBlobs then
// finds missing (a cache miss) or quarantines, and the group is re-mined.
const ManifestName = "MANIFEST"

// QuarantineSuffix is appended to a blob whose content no longer matches its
// manifest checksum. Quarantined blobs are never loaded; they are kept for
// post-mortem inspection instead of deleted.
const QuarantineSuffix = ".quarantined"

// Manifest is the checksummed commitment a serve checkpoint writes next to
// the cache blobs. Recovered state is verified against it and never trusted
// merely because it was on disk.
type Manifest struct {
	Version int `json:"version"`
	// Generation is the published snapshot generation the checkpoint captured.
	Generation uint64 `json:"generation"`
	// FoldedBatches is the highest WAL batch sequence folded into the
	// checkpointed graph; recovery replays WAL records after it.
	FoldedBatches uint64 `json:"folded_batches"`
	// FoldedMutations counts individual mutations folded, for observability.
	FoldedMutations uint64 `json:"folded_mutations"`
	// ModelSHA256 commits to the mined model (hashed by attribute name, so it
	// is invariant under re-interning).
	ModelSHA256 string `json:"model_sha256"`
	// GraphSHA256 commits to the checkpointed graph file's exact bytes.
	GraphSHA256 string `json:"graph_sha256"`
	// Vocab is the attribute vocabulary in interning-id order. Recovery
	// re-interns the checkpoint graph in this order so every group's shard
	// job names its values by the same global ids — and so has the same
	// cache key — as when its blob was written.
	Vocab []string `json:"vocab"`
	// Blobs maps cache blob file names to the SHA-256 (hex) of their bytes.
	Blobs map[string]string `json:"blobs"`
}

// ManifestVersion is the current manifest schema version.
const ManifestVersion = 1

// PersistManifest flushes every entry resident in memory to the cache's
// own directory as a blob and then commits m — with m.Blobs listing every
// resident entry's blob and checksum — as MANIFEST there via fsync'd temp
// file + rename, making the manifest a durable commit point. Only blobs the
// cache has not written there yet are written; the others are listed with
// the checksums recorded when they were written. A memory-only cache has
// no directory and returns an error. Entry failures are non-fatal: the rest
// still persist, the PersistErrors stat counts them, they are absent from
// m.Blobs, and their aggregated error is returned after the manifest
// commits. A manifest write failure is fatal, since without the commitment
// the checkpoint must not be trusted.
func (c *Cache) PersistManifest(m *Manifest) error {
	if c.dir == "" {
		return fmt.Errorf("shardcache: a memory-only cache has no directory to persist to")
	}
	sums, perr := c.persistEntries()
	m.Version = ManifestVersion
	m.Blobs = sums
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("shardcache: encode manifest: %w", err)
	}
	if err := WriteFileAtomic(c.dir, ManifestName, append(data, '\n'), true); err != nil {
		return fmt.Errorf("shardcache: commit manifest: %w", err)
	}
	return perr
}

// LoadManifest reads dir/MANIFEST. A missing manifest is (nil, nil): the
// directory predates checkpointing or was never committed, which callers
// treat as "no durable checkpoint", not as corruption.
func LoadManifest(dir string) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("shardcache: read manifest: %w", err)
	}
	m := &Manifest{}
	if err := json.Unmarshal(data, m); err != nil {
		return nil, fmt.Errorf("shardcache: decode manifest: %w", err)
	}
	if m.Version != ManifestVersion {
		return nil, fmt.Errorf("shardcache: manifest version %d, want %d", m.Version, ManifestVersion)
	}
	return m, nil
}

// VerifyBlobs checks every blob listed in m against its recorded checksum
// and quarantines (renames with QuarantineSuffix) each mismatch so it can
// never be loaded. A listed blob that is missing is skipped — it simply
// becomes a future cache miss, which is safe. It returns the quarantined
// file names; an error only for I/O failures that prevent verification.
func VerifyBlobs(dir string, m *Manifest) ([]string, error) {
	var quarantined []string
	for name, want := range m.Blobs {
		path := filepath.Join(dir, name)
		data, err := os.ReadFile(path)
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return quarantined, fmt.Errorf("shardcache: verify %s: %w", name, err)
		}
		if hashHex(data) == want {
			continue
		}
		if err := os.Rename(path, path+QuarantineSuffix); err != nil {
			return quarantined, fmt.Errorf("shardcache: quarantine %s: %w", name, err)
		}
		quarantined = append(quarantined, name)
	}
	return quarantined, nil
}

// QuarantineDir quarantines every cache blob under dir, listed in a
// manifest or not — the degrade path when the checkpoint as a whole fails
// verification and no individual blob can be trusted. Returns how many blobs
// were quarantined.
func QuarantineDir(dir string) (int, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("shardcache: %w", err)
	}
	n := 0
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".gob") {
			continue
		}
		path := filepath.Join(dir, name)
		if err := os.Rename(path, path+QuarantineSuffix); err != nil {
			return n, fmt.Errorf("shardcache: quarantine %s: %w", name, err)
		}
		n++
	}
	return n, nil
}

func hashHex(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}
