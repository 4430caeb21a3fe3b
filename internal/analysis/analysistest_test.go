package analysis

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// This file is the repository's stdlib-only equivalent of
// golang.org/x/tools/go/analysis/analysistest: it loads a fixture
// package from testdata/src/<name>, runs one analyzer (with the
// //lint:allow suppression applied, so fixtures exercise the escape
// hatch too), and asserts the findings against // want comments:
//
//	s := fmt.Sprintf("k/%d", id) // want `fmt\.Sprintf in buildKey`
//
// Each want regex must be matched by a finding on its line, and each
// finding must be expected by a want on its line.

// RunFixture runs analyzer a over testdata/src/<name> and checks its
// findings against the fixture's want comments.
func RunFixture(t *testing.T, name string, a *Analyzer) {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("fixture dir: %v", err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatalf("parse fixture: %v", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		t.Fatalf("no fixture files in %s", dir)
	}

	// Fixtures import only the standard library, so the source
	// importer resolves everything offline from GOROOT.
	info := newInfo()
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	tpkg, err := conf.Check(name, fset, files, info)
	if err != nil {
		t.Fatalf("type-check fixture %s: %v", name, err)
	}

	pkg := &Package{Path: name, Fset: fset, Files: files, Types: tpkg, Info: info}
	findings, err := RunPackage(pkg, []*Analyzer{a})
	if err != nil {
		t.Fatalf("run %s: %v", a.Name, err)
	}

	wants := collectWants(t, fset, files)
	for _, f := range findings {
		if !wants.match(f) {
			t.Errorf("unexpected finding at %s:%d: %s", filepath.Base(f.Pos.Filename), f.Pos.Line, f.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("missing finding at %s:%d matching %q", filepath.Base(w.file), w.line, w.re.String())
		}
	}
}

type wantExp struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

type wantSet []*wantExp

func (ws wantSet) match(f Finding) bool {
	ok := false
	for _, w := range ws {
		if w.file == f.Pos.Filename && w.line == f.Pos.Line && w.re.MatchString(f.Message) {
			w.matched = true
			ok = true
		}
	}
	return ok
}

// wantPatternRe extracts backtick- or double-quoted regexes from the
// remainder of a want comment.
var wantPatternRe = regexp.MustCompile("`([^`]*)`" + `|"((?:[^"\\]|\\.)*)"`)

func collectWants(t *testing.T, fset *token.FileSet, files []*ast.File) wantSet {
	t.Helper()
	var ws wantSet
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				// A want may trail another line comment, such as an
				// allow directive that is itself expected to be reported.
				if i := strings.Index(text, "// want "); i >= 0 {
					text = text[i+len("// "):]
				}
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := fset.Position(c.Pos())
				matches := wantPatternRe.FindAllStringSubmatch(strings.TrimPrefix(text, "want "), -1)
				if len(matches) == 0 {
					t.Fatalf("%s:%d: want comment with no quoted pattern", pos.Filename, pos.Line)
				}
				for _, m := range matches {
					pat := m[1]
					if pat == "" {
						pat = m[2]
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pat, err)
					}
					ws = append(ws, &wantExp{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	return ws
}
