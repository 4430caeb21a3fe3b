package analysis

import (
	"go/ast"
	"go/types"
)

// Ctxflow bans context.Background/TODO outside main and tests in the
// serving layers, those whose package doc carries //lint:ctxflow, and
// requires a received ctx to actually flow into downstream
// context-accepting calls there: minting a fresh context detaches work
// from the caller's deadline and from SIGTERM drain. In every package
// it also bans
// the sync/atomic functions: a word shared between goroutines is a
// typed atomic (atomic.Int64, atomic.Uint64, ...), which no code can
// read or write plainly, so no plain access can race an atomic one.
var Ctxflow = &Analyzer{
	Name: "ctxflow",
	Doc:  "context must be propagated in lint:ctxflow packages; Background/TODO banned there outside main and tests; sync/atomic functions banned everywhere",
	Run:  runCtxflow,
}

func runCtxflow(pass *Pass) error {
	pass.Inspect(func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if name, ok := pkgCall(pass.TypesInfo, call, "sync/atomic"); ok {
				pass.Reportf(call.Pos(),
					"atomic.%s on a plain word, which other code can still access without sync/atomic; declare the word as a typed atomic (atomic.Int64, atomic.Uint64, ...)",
					name)
			}
		}
		return true
	})
	if !pass.packageDirective("ctxflow") || pass.Pkg.Name() == "main" {
		return nil // binaries mint the root context
	}
	pass.Inspect(func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if name, ok := pkgCall(pass.TypesInfo, call, "context"); ok && (name == "Background" || name == "TODO") {
			pass.Reportf(call.Pos(),
				"context.%s in %s detaches work from caller deadlines and drain; thread the caller's ctx instead",
				name, pass.Pkg.Name())
		}
		return true
	})
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkCtxPropagation(pass, fd)
		}
	}
	return nil
}

// checkCtxPropagation flags functions that receive a context.Context
// parameter, never reference it, yet call at least one downstream
// function that accepts a context — the signature promises deadline
// propagation the body silently drops.
func checkCtxPropagation(pass *Pass, fd *ast.FuncDecl) {
	var ctxParam types.Object
	var ctxName string
	if fd.Type.Params == nil {
		return
	}
	for _, field := range fd.Type.Params.List {
		if !isContextContext(pass.TypesInfo.TypeOf(field.Type)) {
			continue
		}
		for _, name := range field.Names {
			if name.Name == "_" {
				continue // explicitly discarded: caller opted out
			}
			ctxParam = pass.TypesInfo.Defs[name]
			ctxName = name.Name
		}
	}
	if ctxParam == nil {
		return
	}

	used := false
	callsCtxAware := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if pass.TypesInfo.Uses[n] == ctxParam {
				used = true
			}
		case *ast.CallExpr:
			if !callsCtxAware && callAcceptsContext(pass.TypesInfo, n) {
				callsCtxAware = true
			}
		}
		return !used
	})
	if !used && callsCtxAware {
		pass.Reportf(fd.Name.Pos(),
			"%s receives %s but never propagates it, while calling context-accepting functions; pass %s downstream (or rename the parameter to _)",
			fd.Name.Name, ctxName, ctxName)
	}
}

// callAcceptsContext reports whether the call's static callee type has
// a context.Context parameter.
func callAcceptsContext(info *types.Info, call *ast.CallExpr) bool {
	t := info.TypeOf(call.Fun)
	sig, ok := t.(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isContextContext(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}
