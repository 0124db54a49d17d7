package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
)

// Namespace layout of a multi-tenant persist root. Every tenant owns an
// isolated subtree keyed by its namespace name:
//
//	<root>/<ns>/wal        — the tenant's mutation WAL segments
//	<root>/<ns>/checkpoint — the tenant's GRAPH / MANIFEST / cache blobs
//	<root>/.quarantine/    — namespace trees set aside, never unlinked
//
// The quarantine dir starts with a dot, so it can never collide with a live
// namespace (names are validated by ValidNamespace, which rejects leading
// dots). Deleting a namespace RENAMES its subtree under .quarantine instead
// of unlinking it: an acknowledged WAL record must survive an operator
// mistake the same way it survives a crash.

const (
	walSubdir        = "wal"
	checkpointSubdir = "checkpoint"
	// QuarantineDir is the subdirectory of the root that holds quarantined
	// namespace trees.
	QuarantineDir = ".quarantine"
	// MaxNamespaceLen bounds namespace names (they become directory names
	// and URL path segments).
	MaxNamespaceLen = 64
)

// namespaceRE is the shape of a valid namespace name: lowercase
// alphanumerics, dashes and underscores, starting with an alphanumeric.
// Lowercase-only sidesteps case-insensitive-filesystem aliasing ("Prod" and
// "prod" silently sharing a subtree); the leading-alphanumeric rule keeps
// names out of the dotfile and flag namespaces.
var namespaceRE = regexp.MustCompile(`^[a-z0-9][a-z0-9_-]*$`)

// ValidNamespace reports whether ns may name a tenant: it must match
// namespaceRE and fit MaxNamespaceLen. The rules are deliberately stricter
// than what the filesystem allows — a namespace is also a URL path segment
// and a log token.
func ValidNamespace(ns string) error {
	if ns == "" {
		return fmt.Errorf("wal: empty namespace")
	}
	if len(ns) > MaxNamespaceLen {
		return fmt.Errorf("wal: namespace %q longer than %d bytes", ns, MaxNamespaceLen)
	}
	if !namespaceRE.MatchString(ns) {
		return fmt.Errorf("wal: bad namespace %q (want lowercase [a-z0-9][a-z0-9_-]*)", ns)
	}
	return nil
}

// Layout derives the per-namespace directory tree under a persist root. The
// zero Root is invalid; callers gate on it before deriving paths.
type Layout struct {
	Root string
}

// NamespaceDir is the tenant's whole subtree.
func (l Layout) NamespaceDir(ns string) string { return filepath.Join(l.Root, ns) }

// TenantDirs maps one tenant directory to the two directories its durable
// state lives in: the checkpoint (GRAPH, MANIFEST and shard-cache blobs) and
// the mutation log. It is the only place the subdirectory names are spelled,
// so a standalone server's directory and a host namespace's subtree are the
// same layout.
func TenantDirs(dir string) (checkpoint, log string) {
	return filepath.Join(dir, checkpointSubdir), filepath.Join(dir, walSubdir)
}

// Namespaces scans the root for tenant subtrees: directories whose names
// pass ValidNamespace, sorted. A missing root is an empty fleet, not an
// error (the first create materialises it). Entries that fail validation —
// the quarantine dir, strays — are skipped, never touched.
func (l Layout) Namespaces() ([]string, error) {
	entries, err := os.ReadDir(l.Root)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("wal: scan namespace root: %w", err)
	}
	var out []string
	for _, e := range entries {
		if !e.IsDir() || ValidNamespace(e.Name()) != nil {
			continue
		}
		out = append(out, e.Name())
	}
	sort.Strings(out)
	return out, nil
}

// Quarantine renames the namespace's subtree under <root>/.quarantine,
// picking the first free <ns>.<n> suffix so repeated create/delete cycles
// never clobber an earlier quarantined tree. It returns the destination
// path. Nothing is ever unlinked: a quarantined WAL still holds every
// acknowledged batch, and un-quarantining is a rename back.
func (l Layout) Quarantine(ns string) (string, error) {
	if err := ValidNamespace(ns); err != nil {
		return "", err
	}
	qdir := filepath.Join(l.Root, QuarantineDir)
	if err := os.MkdirAll(qdir, 0o755); err != nil {
		return "", fmt.Errorf("wal: quarantine dir: %w", err)
	}
	src := l.NamespaceDir(ns)
	for n := 1; ; n++ {
		dst := filepath.Join(qdir, fmt.Sprintf("%s.%d", ns, n))
		if _, err := os.Stat(dst); err == nil {
			continue
		} else if !os.IsNotExist(err) {
			return "", fmt.Errorf("wal: quarantine probe: %w", err)
		}
		if err := os.Rename(src, dst); err != nil {
			return "", fmt.Errorf("wal: quarantine %s: %w", ns, err)
		}
		return dst, nil
	}
}
