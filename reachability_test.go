package cspm_test

// Dead-package guard: every internal package must be reachable from a
// shipped entry point (the root package, cmd/... or examples/...) through
// non-test imports, or serve as test support for another directory. A
// package nothing reaches is dead weight that still costs review, CI time
// and coverage gates, so deleting it must not be silently undone.

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
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

// walkGoFiles calls fn for every Go file under the module root, skipping
// nested modules (directories with their own go.mod), testdata and hidden
// directories, and files the default build context excludes.
func walkGoFiles(root string, fn func(path string) error) error {
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
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
		if ok, err := build.Default.MatchFile(filepath.Dir(path), d.Name()); err != nil || !ok {
			return err
		}
		return fn(path)
	})
}

// packagePath returns the import path of the package in dir, a directory
// of the module rooted at root whose module path is mod.
func packagePath(mod, root, dir string) (string, error) {
	rel, err := filepath.Rel(root, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return mod, nil
	}
	return mod + "/" + filepath.ToSlash(rel), nil
}

// buildImportGraph parses the import blocks of every Go file under the
// module root.
func buildImportGraph(t *testing.T, root string) moduleImports {
	t.Helper()
	g := moduleImports{code: map[string][]string{}, tests: map[string][]string{}}
	fset := token.NewFileSet()
	err := walkGoFiles(root, func(path string) error {
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		pkg, err := packagePath(modulePath, root, filepath.Dir(path))
		if err != nil {
			return err
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

// Dead-export guard: the package rule above, applied to identifiers. An
// exported package-level func, type, var or const of an internal package,
// and an exported method of any named type declared there, must be
// referenced by non-test code of the module, by non-test code of a consumer
// module (benchmark/, which imports the serving packages through a replace
// directive), or by a _test.go file in another directory. Tests in the
// identifier's own directory do not count: an export only its own tests
// call is dead API. Exempt are methods that satisfy an interface of the
// module's non-test code (inline ones included) or of an imported
// standard-library package, and the methods of types the root package
// re-exports by alias. Struct fields are never flagged, since wire formats
// read them by reflection.

// goPackage is one directory's parsed files, split the way go test builds
// them.
type goPackage struct {
	consumer bool        // from a consumer module: its uses count, its exports are not checked
	files    []*ast.File // non-test files
	inTests  []*ast.File // _test.go files of the package itself
	xTests   []*ast.File // _test.go files of the external <name>_test package
	types    *types.Package
}

// exportChecker type-checks a module and its consumers from source, with
// the standard library imported from compiler export data, and records
// every object a file refers to and every interface that can exempt a
// method.
type exportChecker struct {
	fset   *token.FileSet
	std    types.Importer
	pkgs   map[string]*goPackage
	used   map[types.Object]bool
	ifaces map[*types.Interface]bool
}

// readModulePath returns the module path declared in dir/go.mod.
func readModulePath(dir string) (string, error) {
	data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("%s/go.mod declares no module", dir)
}

// load parses every Go file of the module rooted at dir.
func (c *exportChecker) load(dir string, consumer bool) (string, error) {
	mod, err := readModulePath(dir)
	if err != nil {
		return "", err
	}
	err = walkGoFiles(dir, func(path string) error {
		f, err := parser.ParseFile(c.fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkgPath, err := packagePath(mod, dir, filepath.Dir(path))
		if err != nil {
			return err
		}
		p := c.pkgs[pkgPath]
		if p == nil {
			p = &goPackage{consumer: consumer}
			c.pkgs[pkgPath] = p
		}
		switch {
		case !strings.HasSuffix(path, "_test.go"):
			p.files = append(p.files, f)
		case strings.HasSuffix(f.Name.Name, "_test"):
			p.xTests = append(p.xTests, f)
		default:
			p.inTests = append(p.inTests, f)
		}
		return nil
	})
	return mod, err
}

// Import resolves module packages by checking their non-test files, and
// everything else through the standard-library importer. Both record the
// interfaces they declare; test files declare none that count.
func (c *exportChecker) Import(path string) (*types.Package, error) {
	p := c.pkgs[path]
	if p == nil {
		pkg, err := c.std.Import(path)
		if err != nil {
			return nil, err
		}
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
				continue
			}
			if iface, ok := tn.Type().Underlying().(*types.Interface); ok && iface.NumMethods() > 0 {
				c.ifaces[iface] = true
			}
		}
		return pkg, nil
	}
	if p.types == nil {
		pkg, info, err := c.check(path, p.files, "")
		if err != nil {
			return nil, err
		}
		// Declared and inline interfaces alike appear as type expressions.
		for _, tv := range info.Types {
			if iface, ok := tv.Type.Underlying().(*types.Interface); ok && iface.NumMethods() > 0 {
				c.ifaces[iface] = true
			}
		}
		p.types = pkg
	}
	return p.types, nil
}

// check type-checks files as package path and records what they use,
// except objects of package skip.
func (c *exportChecker) check(path string, files []*ast.File, skip string) (*types.Package, *types.Info, error) {
	var errs []error
	conf := types.Config{Importer: c, Error: func(err error) { errs = append(errs, err) }}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
	pkg, _ := conf.Check(path, c.fset, files, info)
	if len(errs) > 0 {
		return nil, nil, fmt.Errorf("type-checking %s: %w", path, errors.Join(errs...))
	}
	for _, obj := range info.Uses {
		// An instantiated generic method is a copy; credit its origin.
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		if obj.Pkg() == nil || obj.Pkg().Path() != skip {
			c.used[obj] = true
		}
	}
	return pkg, info, nil
}

// satisfiesInterface reports whether m, a method of named, implements a
// method of a recorded interface that named or *named satisfies.
func (c *exportChecker) satisfiesInterface(named *types.Named, m *types.Func) bool {
	if named.TypeParams().Len() > 0 {
		return false
	}
	for iface := range c.ifaces {
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() != m.Name() {
				continue
			}
			if types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
				return true
			}
		}
	}
	return false
}

// unusedExports type-checks the module at root together with its consumer
// modules (directories under root with their own go.mod) and returns the
// exported identifiers of root's internal packages that break the rule
// above, as "internal/pkg.Name" or "internal/pkg.Type.Method", sorted.
func unusedExports(t *testing.T, root string, consumers ...string) []string {
	t.Helper()
	c := &exportChecker{
		fset:   token.NewFileSet(),
		std:    importer.Default(),
		pkgs:   map[string]*goPackage{},
		used:   map[types.Object]bool{},
		ifaces: map[*types.Interface]bool{},
	}
	mod, err := c.load(root, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range consumers {
		if _, err := c.load(filepath.Join(root, dir), true); err != nil {
			t.Fatal(err)
		}
	}
	paths := make([]string, 0, len(c.pkgs))
	for path := range c.pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if len(c.pkgs[path].files) > 0 {
			if _, err := c.Import(path); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Own-directory tests: the package's internal tests are checked as a
	// fresh copy of it, so their uses of its objects land on the copy; the
	// external test package imports the checked package, so its uses of
	// that package are skipped by path.
	for _, path := range paths {
		p := c.pkgs[path]
		if p.consumer {
			continue
		}
		if len(p.inTests) > 0 {
			if _, _, err := c.check(path, append(slices.Clip(p.files), p.inTests...), ""); err != nil {
				t.Fatal(err)
			}
		}
		if len(p.xTests) > 0 {
			if _, _, err := c.check(path+"_test", p.xTests, path); err != nil {
				t.Fatal(err)
			}
		}
	}

	aliased := map[*types.Named]bool{}
	if rootPkg := c.pkgs[mod]; rootPkg != nil && rootPkg.types != nil {
		scope := rootPkg.types.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && tn.IsAlias() {
				if named, ok := types.Unalias(tn.Type()).(*types.Named); ok {
					aliased[named.Origin()] = true
				}
			}
		}
	}
	var unused []string
	for _, path := range paths {
		p := c.pkgs[path]
		if p.consumer || p.types == nil || !strings.HasPrefix(path, mod+"/internal/") {
			continue
		}
		rel := strings.TrimPrefix(path, mod+"/")
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() && !c.used[obj] {
				unused = append(unused, rel+"."+name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || aliased[named] {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if m.Exported() && !c.used[m] && !c.satisfiesInterface(named, m) {
					unused = append(unused, rel+"."+name+"."+m.Name())
				}
			}
		}
	}
	sort.Strings(unused)
	return unused
}

func TestNoUnusedInternalExports(t *testing.T) {
	for _, name := range unusedExports(t, ".", "benchmark") {
		t.Errorf("%s is referenced by no non-test code (this module or benchmark/) and by no test outside its own directory; delete it, or keep it unexported in its package's tests", name)
	}
}

func TestUnusedExportsFixture(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod": "module cspm\n\ngo 1.24\n",
		"root.go": `package cspm

import "cspm/internal/lib"

type Alias = lib.Aliased

func Use() int { return lib.Box[int]{}.Get() + lib.Used }
`,
		"internal/lib/lib.go": `package lib

import "fmt"

var Used = 1

func OwnTestOnly()  {}
func OtherTestUse() {}
func BenchUse()     {}
func Nowhere()      {}

type Box[T any] struct{ v T }

func (b Box[T]) Get() T    { return b.v }
func (b Box[T]) Unused() T { return b.v }

type Sizer interface{ Size() int }

type Thing struct{}

func (Thing) Size() int      { return 0 }
func (Thing) String() string { return "" }
func (Thing) Dead()          {}

var (
	_ fmt.Stringer = Thing{}
	_ Sizer        = Thing{}
)

type Aliased struct{}

func (Aliased) Method() {}
`,
		"internal/lib/lib_test.go":   "package lib\n\nvar _ = OwnTestOnly\n",
		"internal/lib/x_test.go":     "package lib_test\n\nimport \"cspm/internal/lib\"\n\nvar _ = lib.OwnTestOnly\n",
		"internal/other/other.go":    "package other\n",
		"internal/other/use_test.go": "package other\n\nimport \"cspm/internal/lib\"\n\nvar _ = lib.OtherTestUse\n",
		"benchmark/go.mod":           "module cspm/benchmark\n\ngo 1.24\n",
		"benchmark/main.go":          "package main\n\nimport \"cspm/internal/lib\"\n\nfunc main() { lib.BenchUse() }\n",
	}
	for name, src := range files {
		path := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// OwnTestOnly: only its own package's tests use it. Box.Unused: a
	// generic method nothing calls (Box.Get is credited through the
	// instantiated copy's origin). Thing.Dead: a method no interface names
	// (Size and String satisfy Sizer and fmt.Stringer). OtherTestUse,
	// BenchUse and Aliased.Method are used by another directory's test,
	// by the consumer module and by the root's alias.
	want := []string{"internal/lib.Box.Unused", "internal/lib.Nowhere", "internal/lib.OwnTestOnly", "internal/lib.Thing.Dead"}
	if got := unusedExports(t, root, "benchmark"); !slices.Equal(got, want) {
		t.Fatalf("unused = %v, want %v", got, want)
	}
	// Without the consumer module, its use no longer counts.
	want = []string{"internal/lib.BenchUse", "internal/lib.Box.Unused", "internal/lib.Nowhere", "internal/lib.OwnTestOnly", "internal/lib.Thing.Dead"}
	if got := unusedExports(t, root); !slices.Equal(got, want) {
		t.Fatalf("unused without benchmark/ = %v, want %v", got, want)
	}
}
