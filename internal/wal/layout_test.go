package wal

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestValidNamespace(t *testing.T) {
	good := []string{"default", "a", "0", "prod-eu-1", "tenant_42", strings.Repeat("x", MaxNamespaceLen)}
	for _, ns := range good {
		if err := ValidNamespace(ns); err != nil {
			t.Errorf("ValidNamespace(%q) = %v, want nil", ns, err)
		}
	}
	bad := []string{
		"", ".", "..", ".hidden", "-lead", "_lead",
		"Upper", "sp ace", "sl/ash", "dot.ted", "back\\slash",
		strings.Repeat("x", MaxNamespaceLen+1),
		QuarantineDir,
	}
	for _, ns := range bad {
		if err := ValidNamespace(ns); err == nil {
			t.Errorf("ValidNamespace(%q) accepted", ns)
		}
	}
}

func TestLayoutPaths(t *testing.T) {
	l := Layout{Root: "/srv/cspm"}
	if got := l.NamespaceDir("prod"); got != filepath.Join("/srv/cspm", "prod") {
		t.Errorf("NamespaceDir = %q", got)
	}
	ckpt, log := TenantDirs(l.NamespaceDir("prod"))
	if ckpt != filepath.Join("/srv/cspm", "prod", "checkpoint") {
		t.Errorf("checkpoint dir = %q", ckpt)
	}
	if log != filepath.Join("/srv/cspm", "prod", "wal") {
		t.Errorf("log dir = %q", log)
	}
}

// walDir is a namespace's log directory under l.
func walDir(l Layout, ns string) string {
	_, log := TenantDirs(l.NamespaceDir(ns))
	return log
}

func TestLayoutNamespacesScan(t *testing.T) {
	l := Layout{Root: filepath.Join(t.TempDir(), "missing")}
	// A missing root is an empty fleet.
	if got, err := l.Namespaces(); err != nil || got != nil {
		t.Fatalf("missing root: (%v, %v), want (nil, nil)", got, err)
	}

	root := t.TempDir()
	l = Layout{Root: root}
	for _, ns := range []string{"beta", "alpha", "z9"} {
		if err := os.MkdirAll(walDir(l, ns), 0o755); err != nil {
			t.Fatal(err)
		}
	}
	// Strays that must be skipped: the quarantine dir, invalid names, files.
	if err := os.MkdirAll(filepath.Join(root, QuarantineDir, "alpha.1"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(root, "Not-Valid"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(root, "afile"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := l.Namespaces()
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"alpha", "beta", "z9"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Namespaces() = %v, want %v", got, want)
	}
}

// TestLayoutQuarantine pins the never-unlink contract: deleting renames the
// whole subtree (WAL bytes intact) and repeated delete cycles pick fresh
// suffixes instead of clobbering earlier trees.
func TestLayoutQuarantine(t *testing.T) {
	l := Layout{Root: t.TempDir()}
	payload := []byte("acked-batch-bytes")
	mkNS := func() {
		if err := os.MkdirAll(walDir(l, "prod"), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(walDir(l, "prod"), "00000000000000000001.wal"), payload, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	mkNS()
	dst1, err := l.Quarantine("prod")
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(dst1) != "prod.1" {
		t.Errorf("first quarantine at %q, want suffix .1", dst1)
	}
	if _, err := os.Stat(l.NamespaceDir("prod")); !os.IsNotExist(err) {
		t.Error("namespace dir still present after quarantine")
	}
	got, err := os.ReadFile(filepath.Join(dst1, "wal", "00000000000000000001.wal"))
	if err != nil || string(got) != string(payload) {
		t.Fatalf("quarantined WAL bytes = (%q, %v), want the acked payload intact", got, err)
	}

	// Second cycle: a re-created namespace quarantines beside, not over,
	// the first tree.
	mkNS()
	dst2, err := l.Quarantine("prod")
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(dst2) != "prod.2" {
		t.Errorf("second quarantine at %q, want suffix .2", dst2)
	}
	if _, err := os.Stat(dst1); err != nil {
		t.Errorf("first quarantined tree gone after second quarantine: %v", err)
	}

	// Quarantining a namespace that has no subtree fails cleanly.
	if _, err := l.Quarantine("ghost"); err == nil {
		t.Error("quarantine of a missing namespace succeeded")
	}
	if _, err := l.Quarantine("Bad Name"); err == nil {
		t.Error("quarantine accepted an invalid namespace")
	}
}
