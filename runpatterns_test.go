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

// runFlag and fuzzFlag find a go test -run or -fuzz pattern and the
// arguments after it.
var (
	runFlag  = regexp.MustCompile(`-run '([^']*)'((?:[ \t]+[^\s'|;&]+)*)`)
	fuzzFlag = regexp.MustCompile(`-fuzz '([^']*)'((?:[ \t]+[^\s'|;&]+)*)`)
)

// TestRunPatternsMatchTests: every '|'-alternative of every go test -run
// pattern in the CI workflow and the Makefile names at least one Test
// function of the packages the command lists, so a renamed or deleted test
// fails here instead of silently running nothing. '^$' (run no tests,
// beside -fuzz) is exempt. Every -fuzz pattern names exactly one Fuzz
// function of the one package its command lists, as go test -fuzz
// requires.
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
			for _, dir := range packages(m[2]) {
				tests = append(tests, testFuncs(t, dir, "Test")...)
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
		for _, m := range fuzzFlag.FindAllStringSubmatch(text, -1) {
			dirs := packages(m[2])
			if len(dirs) != 1 {
				t.Errorf("%s: -fuzz '%s' lists %d packages, want one", file, m[1], len(dirs))
				continue
			}
			re, err := regexp.Compile(m[1])
			if err != nil {
				t.Errorf("%s: -fuzz %q: %v", file, m[1], err)
				continue
			}
			var hits []string
			for _, name := range testFuncs(t, dirs[0], "Fuzz") {
				if re.MatchString(name) {
					hits = append(hits, name)
				}
			}
			if len(hits) != 1 {
				t.Errorf("%s: -fuzz '%s' matches %d Fuzz functions in %s %v, want exactly one", file, m[1], len(hits), dirs[0], hits)
			}
		}
	}
}

// packages returns the ./-relative package arguments of a go test command.
func packages(args string) []string {
	var dirs []string
	for _, arg := range strings.Fields(args) {
		if strings.HasPrefix(arg, "./") {
			dirs = append(dirs, arg)
		}
	}
	return dirs
}

// testFuncs parses the package directory's test files and returns the
// names of their top-level functions starting with prefix.
func testFuncs(t *testing.T, dir, prefix string) []string {
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
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, prefix) {
				names = append(names, fn.Name.Name)
			}
		}
	}
	return names
}
