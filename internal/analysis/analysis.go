// Package analysis is the repository's invariant lint suite: a small
// go/ast + go/types analyzer framework (stdlib-only — the build
// environment has no network, so golang.org/x/tools/go/analysis is
// deliberately not a dependency) plus the four analyzers that
// mechanically enforce the load-bearing conventions the ROADMAP
// "Architecture anchors" section used to state only in prose:
//
//   - hotpath:       no fmt, encoding/json or string-concat key
//     building inside functions reachable from a hot-path root (the
//     append-builder/pooled-buffer idiom is the only sanctioned one).
//   - deterministic: no time.Now, no global math/rand, and no
//     map-iteration-ordered output in the fingerprint/identity
//     packages.
//   - ctxflow:       context.Background/TODO banned outside main and
//     tests in the serving layers, a received ctx must actually be
//     propagated downstream, and no package calls a sync/atomic
//     function (a shared word is a typed atomic).
//   - unlinked:      every function a non-main package declares is
//     linked by some program; runs when given the `make linked` set.
//
// The suite runs as `dlrmperf-lint ./...` (cmd/dlrmperf-lint, wired
// into `make lint` and CI). It names no package and no function of the
// code it checks: each scope is a directive at the code it governs.
//
//	//lint:hotpath root             last line of a function's doc: the
//	                                function and its callees are hot
//	//lint:hotpath stop <reason>    last line of a function's doc: the
//	                                walk from the roots does not enter it
//	//lint:deterministic            in a package doc comment
//	//lint:ctxflow                  in a package doc comment
//
// The escape hatch is a line comment
//
//	//lint:allow <analyzer> <reason>
//
// on the offending line or the line above it. A directive without a
// reason suppresses nothing, and one that suppresses nothing is itself
// reported, so no exemption outlives its finding; the same holds for a
// stop the walk never meets. A //lint: directive of any other kind, or
// one away from the place it belongs, is a finding too.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one invariant checker.
type Analyzer struct {
	// Name is the analyzer's identity: the tag reported with findings
	// and the token accepted by //lint:allow.
	Name string
	// Doc is the one-line contract the analyzer enforces.
	Doc string
	// Run reports findings on one package via pass.Reportf.
	Run func(pass *Pass) error
}

// Pass carries one analyzer run over one type-checked package.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	diags []Diagnostic
}

// Diagnostic is one raw finding before allow-comment suppression.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Inspect walks every file of the pass with ast.Inspect.
func (p *Pass) Inspect(fn func(ast.Node) bool) {
	for _, f := range p.Files {
		ast.Inspect(f, fn)
	}
}

// packageDirective reports whether a package doc comment carries
// //lint:<kind>, and reports every //lint:<kind> comment elsewhere,
// which would scope nothing.
func (p *Pass) packageDirective(kind string) bool {
	scoped := false
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if k, _, ok := parseDirective(c); !ok || k != kind {
					continue
				}
				if cg == f.Doc {
					scoped = true
					continue
				}
				p.Reportf(c.Pos(), "lint:%s outside a package doc comment scopes nothing; move it to the package doc", kind)
			}
		}
	}
	return scoped
}

// All returns the analyzer suite in reporting order. The unlinked
// analyzer joins it when linked, the symbol set ParseLinked reads, is
// non-nil.
func All(linked map[string]bool) []*Analyzer {
	as := []*Analyzer{Hotpath, Deterministic, Ctxflow}
	if linked != nil {
		as = append(as, Unlinked(linked))
	}
	return as
}

// Finding is one suppressed-and-positioned finding, ready to print.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the finding in the conventional file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s: %s [%s]", f.Pos, f.Message, f.Analyzer)
}

// directiveKinds are the //lint: directives the suite reads. "allow"
// is the escape hatch, "//lint:allow <analyzer> <reason>": it
// suppresses the named analyzer's findings on its own line and the
// line directly below it (so it can sit on the offending line or
// immediately above). The others set an analyzer's scope.
var directiveKinds = map[string]bool{"allow": true, "hotpath": true, "deterministic": true, "ctxflow": true}

// parseDirective splits a "//lint:<kind> <args>" comment into its kind
// and arguments; ok is false for any other comment.
func parseDirective(c *ast.Comment) (kind string, args []string, ok bool) {
	text, ok := strings.CutPrefix(c.Text, "//lint:")
	if !ok {
		return "", nil, false
	}
	kind, rest, _ := strings.Cut(text, " ")
	return kind, strings.Fields(rest), true
}

// allow is one escape-hatch directive and whether it suppressed a
// finding.
type allow struct {
	pos  token.Position
	used bool
}

// allowSet maps file -> line -> analyzer name -> the directive there.
type allowSet map[string]map[int]map[string]*allow

// collectDirectives scans every comment of the files for allow
// directives that name an analyzer and give a reason, and returns a
// finding for every directive of a kind the suite does not read.
func collectDirectives(fset *token.FileSet, files []*ast.File) (allowSet, []Finding) {
	out := allowSet{}
	var unknown []Finding
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				kind, fields, ok := parseDirective(c)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				if !directiveKinds[kind] {
					unknown = append(unknown, Finding{Analyzer: "lint", Pos: pos,
						Message: "unknown directive lint:" + kind + "; the suite reads lint:allow, lint:hotpath, lint:deterministic and lint:ctxflow"})
					continue
				}
				if kind != "allow" || len(fields) < 2 {
					continue
				}
				byLine := out[pos.Filename]
				if byLine == nil {
					byLine = map[int]map[string]*allow{}
					out[pos.Filename] = byLine
				}
				if byLine[pos.Line] == nil {
					byLine[pos.Line] = map[string]*allow{}
				}
				byLine[pos.Line][fields[0]] = &allow{pos: pos}
			}
		}
	}
	return out, unknown
}

// allowed reports whether a finding by analyzer at pos is suppressed
// (an allow directive for it sits on the same line or the line above)
// and marks that directive used.
func (a allowSet) allowed(analyzer string, pos token.Position) bool {
	byLine := a[pos.Filename]
	for _, line := range []int{pos.Line, pos.Line - 1} {
		if d := byLine[line][analyzer]; d != nil {
			d.used = true
			return true
		}
	}
	return false
}

// stale returns a finding for every directive naming analyzer that
// suppressed nothing.
func (a allowSet) stale(analyzer string) []Finding {
	var out []Finding
	for _, byLine := range a {
		for _, names := range byLine {
			if d := names[analyzer]; d != nil && !d.used {
				out = append(out, Finding{Analyzer: analyzer, Pos: d.pos,
					Message: "lint:allow " + analyzer + " suppresses nothing; delete it"})
			}
		}
	}
	return out
}

// RunPackage runs the analyzers over one loaded package, applies
// allow-comment suppression, reports the directives of those analyzers
// that suppressed nothing and every directive of an unknown kind, and
// returns position-sorted findings.
func RunPackage(pkg *Package, analyzers []*Analyzer) ([]Finding, error) {
	allows, out := collectDirectives(pkg.Fset, pkg.Files)
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
		}
		for _, d := range pass.diags {
			pos := pkg.Fset.Position(d.Pos)
			if allows.allowed(a.Name, pos) {
				continue
			}
			out = append(out, Finding{Analyzer: a.Name, Pos: pos, Message: d.Message})
		}
		out = append(out, allows.stale(a.Name)...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Analyzer < b.Analyzer
	})
	return out, nil
}
