package cspm_test

// CI-selection guard: the workflow runs some suites by name (`go test -run
// 'A|B|…' pkgs`, race detector on) and fuzzes named targets. Renaming or
// deleting such a test silently drops it from that job, because a -run
// alternative that matches nothing is not an error to `go test`. This guard
// fails instead: every alternative must still match a Test or Fuzz function
// of the packages its command names, and every fuzz-smoke target must exist
// in its package.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

var (
	goTestRunRe = regexp.MustCompile(`go test .*-run '([^']*)'`)
	fuzzerRe    = regexp.MustCompile(`(?m)^\s*- fuzzer:\s*(\S+)\s*$`)
	fuzzPkgRe   = regexp.MustCompile(`(?m)^\s*package:\s*(\S+)\s*$`)
)

// testFuncs returns the Test and Fuzz function names declared in the
// _test.go files of the packages a `go test` package argument names
// ("." / "./dir", or "./dir/..." for the whole subtree), relative to root.
func testFuncs(t *testing.T, root, pkgArg string) []string {
	t.Helper()
	dir, recursive := strings.CutSuffix(pkgArg, "/...")
	dir = filepath.Join(root, filepath.FromSlash(dir))
	var names []string
	err := walkGoFiles(dir, func(path string) error {
		if !strings.HasSuffix(path, "_test.go") || (!recursive && filepath.Dir(path) != dir) {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil &&
				(strings.HasPrefix(fn.Name.Name, "Test") || strings.HasPrefix(fn.Name.Name, "Fuzz")) {
				names = append(names, fn.Name.Name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// staleCISelections returns one line per -run alternative of workflow that
// matches no Test/Fuzz function of its command's packages, and per
// fuzz-smoke entry whose fuzzer is not declared in its package.
func staleCISelections(t *testing.T, root, workflow string) []string {
	t.Helper()
	var stale []string
	var fuzzer string
	for _, line := range strings.Split(workflow, "\n") {
		if m := fuzzerRe.FindStringSubmatch(line); m != nil {
			fuzzer = m[1]
			continue
		}
		if m := fuzzPkgRe.FindStringSubmatch(line); m != nil && fuzzer != "" {
			if !slices.Contains(testFuncs(t, root, m[1]), fuzzer) {
				stale = append(stale, "fuzz-smoke: "+fuzzer+" in "+m[1])
			}
			fuzzer = ""
			continue
		}
		m := goTestRunRe.FindStringSubmatch(line)
		if m == nil || m[1] == "^$" {
			continue
		}
		var funcs []string
		for _, arg := range strings.Fields(strings.Replace(line, "'"+m[1]+"'", "", 1)) {
			if arg == "." || strings.HasPrefix(arg, "./") {
				funcs = append(funcs, testFuncs(t, root, arg)...)
			}
		}
		for _, alt := range strings.Split(m[1], "|") {
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Fatalf("-run alternative %q: %v", alt, err)
			}
			if !slices.ContainsFunc(funcs, re.MatchString) {
				stale = append(stale, "-run "+alt+" in: "+strings.TrimSpace(line))
			}
		}
	}
	return stale
}

func TestCIRunPatternsMatchTests(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	workflow := string(raw)
	if !goTestRunRe.MatchString(workflow) || !fuzzerRe.MatchString(workflow) {
		t.Fatal("ci.yml has no -run selection or fuzz-smoke entry: the guard's parser is out of date")
	}
	for _, s := range staleCISelections(t, ".", workflow) {
		t.Errorf("CI selects a test that does not exist: %s", s)
	}
}

// TestCIRunPatternsFlagMadeUpNames is the guard's own check: a made-up -run
// alternative and a made-up fuzzer are reported, real ones are not.
func TestCIRunPatternsFlagMadeUpNames(t *testing.T) {
	workflow := `
        run: go test -race -count=1 -run 'ShardedEquivalence|NoSuchSuiteAnywhere' . ./internal/cspm
        run: go test -run '^$' -bench 'Micro' .
          - fuzzer: FuzzGraphLoad
            package: ./internal/graph
          - fuzzer: FuzzNoSuchTarget
            package: ./internal/...
`
	got := staleCISelections(t, ".", workflow)
	if len(got) != 2 || !strings.Contains(got[0], "NoSuchSuiteAnywhere") || !strings.Contains(got[1], "FuzzNoSuchTarget") {
		t.Fatalf("stale selections = %q, want the made-up alternative and fuzzer only", got)
	}
}
