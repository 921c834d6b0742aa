package twolayer_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// runFlag finds a go test -run pattern and the arguments after it.
var runFlag = regexp.MustCompile(`-run '([^']*)'((?:[ \t]+[^\s'|;&]+)*)`)

// TestRunPatternsMatchTests: every '|'-alternative of every go test -run
// pattern in the CI workflow and the Makefile names at least one Test
// function of the packages the command lists, so a renamed or deleted test
// fails here instead of silently running nothing. '^$' (run no tests,
// beside -fuzz) is exempt.
func TestRunPatternsMatchTests(t *testing.T) {
	for _, file := range []string{".github/workflows/ci.yml", "Makefile"} {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		text := strings.ReplaceAll(string(data), "$$", "$") // make's escape
		matches := runFlag.FindAllStringSubmatch(text, -1)
		if len(matches) == 0 {
			t.Fatalf("%s: no -run patterns found", file)
		}
		for _, m := range matches {
			if m[1] == "^$" {
				continue
			}
			var tests []string
			for _, arg := range strings.Fields(m[2]) {
				if strings.HasPrefix(arg, "./") {
					tests = append(tests, testFuncs(t, arg)...)
				}
			}
			if len(tests) == 0 {
				t.Errorf("%s: -run '%s' lists no package with tests", file, m[1])
			}
			for _, alt := range strings.Split(m[1], "|") {
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("%s: -run alternative %q: %v", file, alt, err)
					continue
				}
				found := false
				for _, name := range tests {
					found = found || re.MatchString(name)
				}
				if !found {
					t.Errorf("%s: -run alternative %q matches no Test function in%s", file, alt, m[2])
				}
			}
		}
	}
}

// testFuncs parses the package directory's test files and returns the
// names of their top-level Test functions.
func testFuncs(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, f := range files {
		af, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range af.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Test") {
				names = append(names, fn.Name.Name)
			}
		}
	}
	return names
}
