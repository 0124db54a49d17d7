package cspm_test

// Dead-package guard: every internal package must be reachable from a
// shipped entry point (the root package, cmd/... or examples/...) through
// non-test imports, or serve as test support for another directory. A
// package nothing reaches is dead weight that still costs review, CI time
// and coverage gates, so deleting it must not be silently undone.

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

const modulePath = "cspm"

// moduleImports records, for every package directory of the module, the
// in-module packages its non-test files import and the ones its _test.go
// files import.
type moduleImports struct {
	code  map[string][]string // package path → in-module imports of .go files
	tests map[string][]string // package path → in-module imports of _test.go files
}

// buildImportGraph parses the import blocks of every Go file under the
// module root, skipping nested modules (directories with their own go.mod),
// testdata and hidden directories.
func buildImportGraph(t *testing.T, root string) moduleImports {
	t.Helper()
	g := moduleImports{code: map[string][]string{}, tests: map[string][]string{}}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root {
				if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
					return filepath.SkipDir
				}
				if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
					return filepath.SkipDir
				}
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		pkg := modulePath
		if rel != "." {
			pkg += "/" + filepath.ToSlash(rel)
		}
		into := g.code
		if strings.HasSuffix(path, "_test.go") {
			into = g.tests
		}
		if _, ok := into[pkg]; !ok {
			into[pkg] = nil
		}
		for _, spec := range f.Imports {
			imp, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				return err
			}
			if imp == modulePath || strings.HasPrefix(imp, modulePath+"/") {
				into[pkg] = append(into[pkg], imp)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// isEntryPoint reports whether pkg ships to users: the root package, a
// command or an example.
func isEntryPoint(pkg string) bool {
	return pkg == modulePath ||
		strings.HasPrefix(pkg, modulePath+"/cmd/") ||
		strings.HasPrefix(pkg, modulePath+"/examples/")
}

// unreachableInternal returns the internal packages that no entry point
// reaches through non-test imports and no _test.go file outside their own
// directory imports, sorted.
func unreachableInternal(g moduleImports) []string {
	reached := map[string]bool{}
	var queue []string
	for pkg := range g.code {
		if isEntryPoint(pkg) {
			reached[pkg] = true
			queue = append(queue, pkg)
		}
	}
	for len(queue) > 0 {
		pkg := queue[0]
		queue = queue[1:]
		for _, imp := range g.code[pkg] {
			if !reached[imp] {
				reached[imp] = true
				queue = append(queue, imp)
			}
		}
	}
	for pkg, imps := range g.tests {
		for _, imp := range imps {
			if imp != pkg {
				reached[imp] = true
			}
		}
	}
	var dead []string
	for pkg := range g.code {
		if strings.HasPrefix(pkg, modulePath+"/internal/") && !reached[pkg] {
			dead = append(dead, pkg)
		}
	}
	sort.Strings(dead)
	return dead
}

func TestNoUnreachableInternalPackages(t *testing.T) {
	g := buildImportGraph(t, ".")
	if len(g.code) == 0 {
		t.Fatal("found no Go packages under the module root")
	}
	for _, pkg := range unreachableInternal(g) {
		t.Errorf("%s is imported by no entry point (root, cmd/..., examples/...) and by no test outside its own directory; delete it or wire it in", pkg)
	}
}

func TestUnreachableInternalFlagsOrphans(t *testing.T) {
	g := moduleImports{
		code: map[string][]string{
			"cspm":                   {"cspm/internal/used"},
			"cspm/cmd/tool":          {"cspm/internal/deep"},
			"cspm/internal/used":     nil,
			"cspm/internal/deep":     {"cspm/internal/leaf"},
			"cspm/internal/leaf":     nil,
			"cspm/internal/support":  nil,
			"cspm/internal/orphan":   nil,
			"cspm/internal/selftest": nil,
		},
		tests: map[string][]string{
			"cspm/internal/used":     {"cspm/internal/support"},
			"cspm/internal/selftest": {"cspm/internal/selftest"},
			"cspm/internal/orphan":   {"cspm/internal/orphan"},
		},
	}
	got := unreachableInternal(g)
	want := []string{"cspm/internal/orphan", "cspm/internal/selftest"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("unreachable = %v, want %v", got, want)
	}
}
