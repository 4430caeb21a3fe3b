package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Hotpath forbids fmt calls, encoding/json calls and runtime string
// concatenation in every function reachable from a hot-path root.
//
// A root carries //lint:hotpath root as the last line of its doc
// comment; a cold boundary, reachable but allowed to format errors,
// carries //lint:hotpath stop <reason>. The analyzer builds the
// package's static call graph, walks it from the roots without
// entering a stop, and checks every function it reaches (reflection
// over a row is what a hand-written row codec exists to keep off this
// path). Key building there must use the append-builder/pooled-buffer
// idiom that holds a cached prediction at 0 allocs. A function reached
// only as a value (a method expression handed to a builder) has no
// call edge into it, so it carries its own root directive.
//
// A stop without a reason exempts nothing, and a stop the walk never
// meets is reported like a stale lint:allow. A lint:hotpath directive
// anywhere but a function's doc comment, in a form other than root or
// stop, or both on one function, is a finding.
var Hotpath = &Analyzer{
	Name: "hotpath",
	Doc:  "no fmt, encoding/json or +-concat key building in functions reachable from the steady-state predict path",
	Run:  runHotpath,
}

func runHotpath(pass *Pass) error {
	// Index this package's function declarations by object and by doc
	// comment.
	decls := map[*types.Func]*ast.FuncDecl{}
	docs := map[*ast.CommentGroup]*types.Func{}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			decls[fn] = fd
			if fd.Doc != nil {
				docs[fd.Doc] = fn
			}
		}
	}

	// Read the directives: a root or a stop in a function's doc
	// comment, a finding anywhere else.
	roots := map[*types.Func]bool{}
	stops := map[*types.Func]*ast.Comment{} // stop -> its directive
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				kind, args, ok := parseDirective(c)
				if !ok || kind != "hotpath" {
					continue
				}
				fn := docs[cg]
				switch {
				case fn == nil:
					pass.Reportf(c.Pos(), "lint:hotpath outside a function's doc comment marks nothing; move it to the doc of the function it governs")
				case len(args) > 0 && args[0] == "root":
					roots[fn] = true
				case len(args) > 1 && args[0] == "stop":
					stops[fn] = c
				case len(args) > 0 && args[0] == "stop":
					pass.Reportf(decls[fn].Name.Pos(), "lint:hotpath stop on %s gives no reason and exempts nothing; state why it is cold", funcDisplayName(fn))
				default:
					pass.Reportf(c.Pos(), "lint:hotpath takes root, or stop and a reason")
				}
			}
		}
	}

	// BFS over same-package static call edges from the roots.
	reached := map[*types.Func]bool{}
	met := map[*types.Func]bool{}
	var queue []*types.Func
	for fn := range roots {
		if stops[fn] != nil {
			pass.Reportf(decls[fn].Name.Pos(), "%s carries both lint:hotpath root and stop; keep one", funcDisplayName(fn))
			delete(stops, fn)
		}
		reached[fn] = true
		queue = append(queue, fn)
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		ast.Inspect(decls[fn].Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeFunc(pass.TypesInfo, call)
			if callee == nil || callee.Pkg() != pass.Pkg || reached[callee] {
				return true
			}
			if stops[callee] != nil {
				met[callee] = true
				return true
			}
			if _, hasBody := decls[callee]; !hasBody {
				return true // interface method or declared elsewhere
			}
			reached[callee] = true
			queue = append(queue, callee)
			return true
		})
	}
	for fn, c := range stops {
		if !met[fn] {
			pass.Reportf(c.Pos(), "lint:hotpath stop on %s is met by no walk from a root and exempts nothing; delete it", funcDisplayName(fn))
		}
	}

	// Check every reached body, in deterministic order.
	ordered := make([]*types.Func, 0, len(reached))
	for fn := range reached {
		ordered = append(ordered, fn)
	}
	sort.Slice(ordered, func(i, j int) bool {
		return decls[ordered[i]].Pos() < decls[ordered[j]].Pos()
	})
	for _, fn := range ordered {
		checkHotBody(pass, funcDisplayName(fn), decls[fn].Body)
	}
	return nil
}

// checkHotBody reports fmt calls, encoding/json calls and runtime
// string concatenation inside one hot function body.
func checkHotBody(pass *Pass, name string, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if fname, ok := pkgCall(pass.TypesInfo, n, "fmt"); ok {
				pass.Reportf(n.Pos(),
					"fmt.%s in %s, which is reachable from the steady-state predict path; build keys/messages with the append-builder idiom or strconv",
					fname, name)
			}
			if fname, ok := pkgCall(pass.TypesInfo, n, "encoding/json"); ok {
				pass.Reportf(n.Pos(),
					"json.%s in %s, which is reachable from the steady-state predict path; rows go through the hand-written row codec",
					fname, name)
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && pass.isRuntimeStringConcat(n) {
				pass.Reportf(n.Pos(),
					"string concatenation in %s, which is reachable from the steady-state predict path; use the pooled append-builder idiom",
					name)
				return false // one report per concat chain
			}
		case *ast.AssignStmt:
			if n.Tok == token.ADD_ASSIGN && len(n.Lhs) == 1 && isStringType(pass.TypesInfo.TypeOf(n.Lhs[0])) {
				pass.Reportf(n.Pos(),
					"string += in %s, which is reachable from the steady-state predict path; use the pooled append-builder idiom",
					name)
			}
		}
		return true
	})
}

// isRuntimeStringConcat reports whether e is a string + that survives
// to runtime (constant-folded concatenation of literals is free).
func (p *Pass) isRuntimeStringConcat(e *ast.BinaryExpr) bool {
	tv, ok := p.TypesInfo.Types[e]
	if !ok || !isStringType(tv.Type) {
		return false
	}
	return tv.Value == nil // non-constant result
}
