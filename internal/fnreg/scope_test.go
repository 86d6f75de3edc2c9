package fnreg

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// The registry is instance-scoped (ISSUE 8): the only package-level variables
// this package may declare are the Default() instance pair in default.go and
// handles on obs counters, which are process-wide aggregates and not registry
// state. internal/core/install.go is held to the same rule with no exception:
// its CompiledCodeFunction table belongs to the kernel installation (ISSUE 15;
// a process-wide one leaked every session and let one tenant apply another's
// code by id). And the package-level wrapper API retired in ISSUE 10 stays
// retired: Default() is the only package-level function that touches the
// default instance.
func TestNoPackageLevelRegistryState(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, filepath.Join("..", "core", "install.go"))
	retired := map[string]bool{"Reserve": true, "Install": true, "Upgrade": true, "Lookup": true,
		"Retire": true, "RetireEntry": true, "Names": true, "Reset": true}
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		inFnreg := filepath.Dir(path) == "."
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok {
				if inFnreg && fn.Recv == nil && retired[fn.Name.Name] {
					t.Errorf("%s: the package-level wrapper %s is back", fset.Position(fn.Pos()), fn.Name.Name)
				}
				continue
			}
			gen, ok := decl.(*ast.GenDecl)
			if !ok || gen.Tok != token.VAR {
				continue
			}
			for _, spec := range gen.Specs {
				vs := spec.(*ast.ValueSpec)
				for i, name := range vs.Names {
					if path == "default.go" && (name.Name == "defaultOnce" || name.Name == "defaultReg") {
						continue
					}
					if i < len(vs.Values) && isObsNewCounter(vs.Values[i]) {
						continue
					}
					t.Errorf("%s: package-level variable %s: registry state belongs to a *Registry (or, in core, to the installation)",
						fset.Position(name.Pos()), name.Name)
				}
			}
		}
	}
}

func isObsNewCounter(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "NewCounter" {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	return ok && pkg.Name == "obs"
}
