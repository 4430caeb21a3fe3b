package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Deterministic forbids ambient nondeterminism in the identity
// packages, those whose package doc carries //lint:deterministic: the
// bytes they produce are cache identities and routing keys, so they
// must be pure functions of their inputs. Wall-clock time, global
// math/rand, and map iteration order are the three ambient
// nondeterminism sources it bans; injected clocks and seeded random
// streams are the sanctioned substitutes.
var Deterministic = &Analyzer{
	Name: "deterministic",
	Doc:  "no time.Now, global math/rand, or map-iteration-ordered output in lint:deterministic (fingerprint/identity) packages",
	Run:  runDeterministic,
}

func runDeterministic(pass *Pass) error {
	if !pass.packageDirective("deterministic") {
		return nil
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkDeterministicFunc(pass, fd)
		}
	}
	return nil
}

func checkDeterministicFunc(pass *Pass, fd *ast.FuncDecl) {
	sorts := functionSorts(pass, fd)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if name, ok := pkgCall(pass.TypesInfo, n, "time"); ok && name == "Now" {
				pass.Reportf(n.Pos(),
					"time.Now in identity package %s; inject a clock (or derive from inputs) so fingerprints and keys stay deterministic",
					pass.Pkg.Name())
			}
		case *ast.SelectorExpr:
			if id, ok := unparen(n.X).(*ast.Ident); ok {
				if pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName); ok {
					p := pn.Imported().Path()
					if p == "math/rand" || p == "math/rand/v2" {
						pass.Reportf(n.Pos(),
							"math/rand in identity package %s; use an injected, seeded random stream instead",
							pass.Pkg.Name())
					}
				}
			}
		case *ast.RangeStmt:
			checkMapRange(pass, n, sorts)
		}
		return true
	})
}

// functionSorts reports whether fd calls into package sort, or a
// slices.Sort* function, anywhere in its body. A map range whose
// collected output is later sorted is the sanctioned
// collect-then-sort idiom.
func functionSorts(pass *Pass, fd *ast.FuncDecl) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if _, ok := pkgCall(pass.TypesInfo, call, "sort"); ok {
			found = true
		}
		if name, ok := pkgCall(pass.TypesInfo, call, "slices"); ok && strings.HasPrefix(name, "Sort") {
			found = true
		}
		return !found
	})
	return found
}

// checkMapRange flags ranges over maps, in a function without a sort,
// whose bodies append the iteration key or value to a slice, or add
// into (+=, -=) a float variable declared outside the body. The
// slice's order is randomized per run, so any output derived from it
// (fingerprints, canonical listings, reports) is nondeterministic; and
// float addition is not associative, so a sum taken in map order
// differs in its last bits from run to run. Writes into other maps,
// integer counters, and collect-then-sort all pass.
func checkMapRange(pass *Pass, rng *ast.RangeStmt, sorts bool) {
	if sorts {
		return
	}
	t := pass.TypesInfo.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	iterVars := map[types.Object]bool{}
	for _, e := range []ast.Expr{rng.Key, rng.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := pass.TypesInfo.Defs[id]; obj != nil {
				iterVars[obj] = true
			}
		}
	}
	if len(iterVars) == 0 {
		return
	}
	if floatSumInBody(pass.TypesInfo, rng, iterVars) {
		pass.Reportf(rng.Pos(),
			"map iteration order sets the order of a float sum in identity package %s; iterate in a fixed order (a slice, or sorted keys) so the sum is reproducible",
			pass.Pkg.Name())
	}
	reported := false
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if reported {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		id, ok := unparen(call.Fun).(*ast.Ident)
		if !ok {
			return true
		}
		if _, ok := pass.TypesInfo.Uses[id].(*types.Builtin); !ok || id.Name != "append" {
			return true
		}
		for _, arg := range call.Args[1:] {
			if exprUsesAny(pass.TypesInfo, arg, iterVars) {
				reported = true
				pass.Reportf(rng.Pos(),
					"map iteration order feeds an appended slice in identity package %s; collect keys and sort (or sort the result) to keep output deterministic",
					pass.Pkg.Name())
				return false
			}
		}
		return true
	})
}

// floatSumInBody reports whether rng's body adds into (+= or -=) a
// float variable declared outside the body, other than the iteration
// variables themselves.
func floatSumInBody(info *types.Info, rng *ast.RangeStmt, iterVars map[types.Object]bool) bool {
	found := false
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || (as.Tok != token.ADD_ASSIGN && as.Tok != token.SUB_ASSIGN) {
			return !found
		}
		id, ok := unparen(as.Lhs[0]).(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || iterVars[v] || (v.Pos() >= rng.Body.Pos() && v.Pos() < rng.Body.End()) {
			return true
		}
		if b, ok := v.Type().Underlying().(*types.Basic); ok && b.Info()&types.IsFloat != 0 {
			found = true
		}
		return !found
	})
	return found
}

// exprUsesAny reports whether e references any of the given objects.
func exprUsesAny(info *types.Info, e ast.Expr, objs map[types.Object]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && objs[info.Uses[id]] {
			found = true
		}
		return !found
	})
	return found
}
