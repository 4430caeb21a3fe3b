package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// hotpathConfig lists, for one package, the steady-state entry points
// (roots) and the cold boundaries (stops) of the predict path. The
// analyzer builds the package's static call graph, walks it from the
// roots without crossing a stop, and forbids fmt calls, encoding/json
// calls and runtime string concatenation in every function it reaches
// (reflection over a row is what the serve package's codec exists to
// keep off this path). Key building in
// reached code must use the append-builder/pooled-buffer idiom
// (Request.AppendKey, xrand.AppendHex16, keyBufPool) that holds
// PredictSingleCached at 0 allocs.
type hotpathConfig struct {
	roots []string // funcDisplayName spellings: "Fn" or "Type.Method"
	stops []string // reachable-but-cold functions the walk must not enter
}

// hotpathPackages maps package paths (suffix-matched, so fixture
// packages can reuse an entry name) to their hot-path roots.
var hotpathPackages = map[string]hotpathConfig{
	"dlrmperf/internal/engine": {
		roots: []string{
			// Steady-state prediction: the one keyed lookup, the one
			// request wrapper, its entry points (local prediction, the
			// remote pass-through and its resident-only read, which is
			// on the hit path of every coordinator batch row), the
			// result-class builder (handed to the wrapper as a method
			// expression, so no call edge reaches it), compiled plan
			// execution, and the key builders themselves.
			"Engine.lookup",
			"Engine.request",
			"Engine.PredictCtx",
			"Engine.RemoteResult",
			"Engine.ResidentResult",
			"Engine.predictScenario",
			"CompiledPlan.execute",
			// The bind step: every miss takes it to its graphs (from
			// inside the cold stops below, so it is rooted by name).
			"Engine.graph",
			"Request.AppendKey",
			"classStore.getBytes",
		},
		stops: []string{
			// Cold, once-per-scenario work reachable from the lookup's
			// miss path: plan compilation and a panicking flight's
			// error may use fmt.Errorf freely.
			"Engine.compile",
			"Engine.compileMulti",
			"Engine.scenarioModel",
			"group.DoCtx",
		},
	},
	"dlrmperf/internal/graph": {
		roots: []string{
			// Binding a batch to a shared structure runs once per
			// device graph of every result-cache miss.
			"Graph.WithBatch",
		},
		stops: []string{
			// Formats the structural error of a check that failed.
			"nodeErrorf",
		},
	},
	"dlrmperf/internal/models": {
		roots: []string{"Model.WithBatch"},
		stops: []string{"errBatch"},
	},
	"dlrmperf/internal/serve": {
		roots: []string{
			// Admission and the 429 backpressure path: every request,
			// shed or served, runs through these.
			"Server.admit",
			"Server.serveOne",
			"Server.handlePredict",
			"Server.handleBatch",
			"Server.retryAfterSeconds",
			"RetryAfterSeconds",
			"resultFrom",
			// The row codec and the wire functions built on it: every
			// prediction row that crosses a socket, in either direction,
			// on a worker, a coordinator or a client.
			"AppendRequest",
			"AppendRequests",
			"AppendResult",
			"Rows.MarshalJSON",
			"Rows.UnmarshalJSON",
			"UnmarshalRequest",
			"UnmarshalRequests",
			"UnmarshalResult",
			"WriteJSON",
			"WriteResult",
			"DecodeRequest",
			"DecodeBatch",
		},
		stops: []string{
			// Format the message of a refused batch body and of a batch
			// with no surviving row.
			"rejectBatch",
			"allRequestsFailed",
		},
	},
	"dlrmperf/internal/cluster": {
		roots: []string{
			// Per-request coordinator steady state: the lease check on
			// every write and the liveness read under it (and under every
			// routing decision's Registry.Live), the adaptive Retry-After
			// render on every shed, the hint EWMA fold on every worker
			// 429, the vault's hand-off decision probed on every routed
			// request, and the batch plan loop: every row of every batch
			// call is read, and its hits answered, there.
			"Lease.Leader",
			"liveTable.lastSeen",
			"Coordinator.retryAfter",
			"Coordinator.observeWorkerHint",
			"assetVault.needInstall",
			"backpressureHint",
			"Coordinator.plan",
			// Both handlers, and so the whole routed path under them:
			// a resident hit leaves handlePredict without touching a
			// worker, a batch leaves handleBatch through plan.
			"Coordinator.handlePredict",
			"Coordinator.handleBatch",
		},
		stops: []string{
			// Formats the error of a routing attempt that failed.
			"routeErrorf",
		},
	},
	"dlrmperf/internal/scenario": {
		roots: []string{
			// Fingerprint/key builders: run per request in the serve
			// path via engine key construction.
			"Spec.AppendFingerprint",
			"Spec.AppendCanonical",
			"AppendTablesKey",
			"appendLowerASCII",
		},
		stops: []string{},
	},
	// Fixture package for the analyzer's own tests.
	"hotpath": {
		roots: []string{"PredictHot", "Server.admit"},
		stops: []string{"coldCompile"},
	},
}

// Hotpath forbids fmt calls, encoding/json calls and runtime string
// concatenation in functions reachable from the configured steady-state
// predict roots.
var Hotpath = &Analyzer{
	Name: "hotpath",
	Doc:  "no fmt, encoding/json or +-concat key building in functions reachable from the steady-state predict path",
	Run:  runHotpath,
}

func runHotpath(pass *Pass) error {
	var cfg hotpathConfig
	found := false
	for path, c := range hotpathPackages {
		if hasPathSuffix(pass.Pkg.Path(), path) {
			cfg, found = c, true
			break
		}
	}
	if !found {
		return nil
	}

	// Index this package's function declarations by object.
	decls := map[*types.Func]*ast.FuncDecl{}
	names := map[string]*types.Func{}
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
			names[funcDisplayName(fn)] = fn
		}
	}

	stop := map[*types.Func]bool{}
	for _, s := range cfg.stops {
		if fn, ok := names[s]; ok {
			stop[fn] = true
		}
	}

	// BFS over same-package static call edges from the roots.
	reached := map[*types.Func]bool{}
	var queue []*types.Func
	for _, r := range cfg.roots {
		fn, ok := names[r]
		if !ok {
			continue // config may name functions a fixture omits
		}
		if !reached[fn] {
			reached[fn] = true
			queue = append(queue, fn)
		}
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		fd := decls[fn]
		if fd == nil {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeFunc(pass.TypesInfo, call)
			if callee == nil || callee.Pkg() != pass.Pkg {
				return true
			}
			if stop[callee] || reached[callee] {
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

	// Check every reached body, in deterministic order.
	var ordered []*types.Func
	for fn := range reached {
		if decls[fn] != nil {
			ordered = append(ordered, fn)
		}
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
					"json.%s in %s, which is reachable from the steady-state predict path; rows go through the serve codec",
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
