package analysis

import (
	"go/ast"
	"go/types"
)

// unparen strips redundant parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// pkgCall reports whether call is a direct selector call into the
// package with import path pkgPath (e.g. fmt.Sprintf, time.Now) and,
// if so, returns the selected name.
func pkgCall(info *types.Info, call *ast.CallExpr, pkgPath string) (string, bool) {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := unparen(sel.X).(*ast.Ident)
	if !ok {
		return "", false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok || pn.Imported().Path() != pkgPath {
		return "", false
	}
	return sel.Sel.Name, true
}

// calleeFunc resolves the *types.Func a call statically dispatches to,
// or nil for builtins, conversions, and indirect calls through
// function values. An explicitly instantiated generic function
// (f[T](x)) and a method of an instantiated generic type (b.m() on a
// *box[int]) resolve to their declarations.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	callee := unparen(call.Fun)
	switch inst := callee.(type) {
	case *ast.IndexExpr:
		callee = unparen(inst.X)
	case *ast.IndexListExpr:
		callee = unparen(inst.X)
	}
	var obj types.Object
	switch fun := callee.(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	default:
		return nil
	}
	fn, _ := obj.(*types.Func)
	if fn == nil {
		return nil
	}
	return fn.Origin()
}

// funcDisplayName renders a *types.Func the way findings spell it:
// "Name" for package functions, "Recv.Name" for methods with any
// pointer receiver stripped (e.g. "Server.admit").
func funcDisplayName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return fn.Name()
	}
	rt := sig.Recv().Type()
	if p, ok := rt.(*types.Pointer); ok {
		rt = p.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok {
		return fn.Name()
	}
	return named.Obj().Name() + "." + fn.Name()
}

// isContextContext reports whether t is context.Context.
func isContextContext(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// isStringType reports whether t's core type is a string.
func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}
