package analysis

import (
	"bufio"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"strings"
)

// Unlinked returns the analyzer that reports every function declaration
// of a non-main package that no program links. linked is the symbol set
// ParseLinked reads from `make linked`, which builds every program of
// the module (cmd/* and bench; examples are documentation, not roots)
// and lists the functions the linker kept. A declaration missing from it is reachable from tests
// alone: delete it, or keep it with a reason on the declaration,
//
//	//lint:allow unlinked <reason>
//
// which the suite reports in turn once the declaration is linked. A
// package none of whose functions is linked is one finding, on the
// package clause of each file that declares a function, and one
// directive there keeps the whole package.
func Unlinked(linked map[string]bool) *Analyzer {
	return &Analyzer{
		Name: "unlinked",
		Doc:  "every non-test function of a non-main package is linked by some program (make linked)",
		Run: func(pass *Pass) error {
			runUnlinked(pass, linked)
			return nil
		},
	}
}

func runUnlinked(pass *Pass, linked map[string]bool) {
	if pass.Pkg.Name() == "main" {
		return // a program's own functions are the roots, not the tail
	}
	var missing []token.Pos
	var names []string
	var clauses []token.Pos // package clauses of the files that declare functions
	declared := 0
	for _, f := range pass.Files {
		before := declared
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Name.Name == "init" || fd.Name.Name == "_" {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			declared++
			if name, wrapper := symbolNames(pass.Pkg.Path(), fn); !linked[name] && !linked[wrapper] {
				missing, names = append(missing, fd.Pos()), append(names, name)
			}
		}
		if declared > before {
			clauses = append(clauses, f.Package)
		}
	}
	if len(missing) == declared {
		for _, pos := range clauses {
			pass.Reportf(pos, "package %s is linked by no program; delete it or state why it stays with //lint:allow unlinked <reason>", pass.Pkg.Path())
		}
		return
	}
	for i, pos := range missing {
		pass.Reportf(pos, "%s is linked by no program; delete it or state why it stays with //lint:allow unlinked <reason>", names[i])
	}
}

// symbolNames spells fn the way `go tool nm` does, without type
// arguments: pkg.F, or pkg.(*T).M for a pointer method. A value method
// is pkg.T.M, and its wrapper pkg.(*T).M, either of which the linker
// may keep alone; for the others wrapper is name.
func symbolNames(pkgPath string, fn *types.Func) (name, wrapper string) {
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		name = pkgPath + "." + fn.Name()
		return name, name
	}
	rt := sig.Recv().Type()
	ptr, isPtr := rt.(*types.Pointer)
	if isPtr {
		rt = ptr.Elem()
	}
	recv := rt.(*types.Named).Obj().Name()
	wrapper = pkgPath + ".(*" + recv + ")." + fn.Name()
	if isPtr {
		return wrapper, wrapper
	}
	return pkgPath + "." + recv + "." + fn.Name(), wrapper
}

// ParseLinked reads `make linked` output, one "program symbol" pair a
// line, into the set of linked symbols with every type-argument list
// ("[go.shape.int]") cut out, so a generic declaration matches all of
// its instantiations.
func ParseLinked(r io.Reader) (map[string]bool, error) {
	linked := map[string]bool{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 2 {
			continue
		}
		linked[stripTypeArgs(fields[1])] = true
	}
	return linked, sc.Err()
}

// stripTypeArgs removes every bracketed segment from an nm symbol. nm's
// type arguments may nest ("[go.shape.[]T]") and `make linked` cuts a
// symbol at its first space, so an unclosed segment runs to the end.
func stripTypeArgs(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}
