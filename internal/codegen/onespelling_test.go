package codegen

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"reflect"
	goruntime "runtime"
	"strconv"
	"strings"
	"testing"

	"wolfc/internal/expr"
	"wolfc/internal/passes"
	"wolfc/internal/runtime"
	"wolfc/internal/types"
	"wolfc/internal/wir"
)

// TestOneSpellingPerScalarNative holds the runtime's scalar table
// (runtime.ScalarOf) as the only place a scalar native is written. Every
// native-backed overload of the standard library is instantiated at every
// atomic type its qualifiers allow; for each call fusibleProducer admits,
// assignTo must build it as a one-node tree, it must not be a fusion barrier,
// and selectNative must have no arm for it. The tensor accesses are held the
// same way: of the three builders genNative routes between, exactly one
// produces the step of a Part read or store, whatever the rank, the checking
// and the element kind.
func TestOneSpellingPerScalarNative(t *testing.T) {
	env := types.Builtin()
	admitted := map[string]int{}
	table := map[string]bool{}      // the natives with a runtime function
	tableFuncs := map[string]bool{} // its package-level functions: AddI64, PowI64, AbsC, ...
	accesses := map[string]map[runtime.Kind]bool{}
	for _, name := range env.FuncNames() {
		for _, d := range env.Lookup(name) {
			if d.Native == "" || d.Impl != nil {
				continue
			}
			for _, sig := range atomicInstances(env, d.Type) {
				in := &wir.Instr{Op: wir.OpCall, Callee: name, Native: d.Native, Ty: sig.Ret}
				for i, p := range sig.Params {
					in.Args = append(in.Args, &wir.Param{Sym: expr.Sym(fmt.Sprintf("a%d", i)), Index: i, Ty: p})
				}
				access := isSetPart(d.Native) || strings.HasPrefix(d.Native, "part_") && d.Native != "part_row"
				if !access && !fusibleProducer(in) {
					continue
				}
				what := fmt.Sprintf("%s %s (native %s)", name, sig, d.Native)
				g := &gen{
					prog: &Program{byName: map[string]*CFunc{}},
					fn:   &wir.Function{Name: "t"},
					cf:   &CFunc{},
					regs: map[wir.Value]reg{},
				}
				dst, err := g.regOf(in)
				if err != nil {
					t.Errorf("%s: %v", what, err)
					continue
				}
				regs := make([]reg, len(in.Args))
				for i, a := range in.Args {
					if regs[i], err = g.regOf(a); err != nil {
						t.Fatalf("%s: %v", what, err)
					}
				}
				var built []string
				if isSetPart(d.Native) {
					if st, err := g.genSetPart(in, d.Native); err == nil && st != nil {
						built = append(built, "genSetPart")
					}
				}
				if st, err := g.assignTo(dst, in); err == nil && st != nil {
					built = append(built, "assignTo")
				}
				if g.selectNative(d.Native, in, regs, dst) != nil {
					built = append(built, "selectNative")
				}
				if access {
					elem := tensorElemKind(sig.Params[0])
					if accesses[d.Native] == nil {
						accesses[d.Native] = map[runtime.Kind]bool{}
					}
					accesses[d.Native][elem] = true
					// The runtime has no rank-2 accessor for a matrix of
					// booleans or objects: no builder, and codegen says so.
					want := 1
					if strings.HasSuffix(d.Native, "2") && (elem == runtime.KBool || elem == runtime.KObj) {
						want = 0
					}
					if len(built) != want {
						t.Errorf("%s: built by %v, want %d builder", what, built, want)
					}
					if st, err := g.genNative(in); (err == nil && st != nil) != (want == 1) {
						t.Errorf("%s: genNative returned (%v, %v) where %d builder has it", what, st != nil, err, want)
					}
					if !fusibleProducer(in) {
						continue
					}
				}
				admitted[d.Native]++
				if s := passes.ScalarOf(in); s != nil {
					table[d.Native] = true
					if name := funcName(s.Fn); !strings.Contains(name, ".") {
						tableFuncs[name] = true
					}
				}
				if len(built) != 1 || built[0] != "assignTo" {
					t.Errorf("%s: admitted by fusibleProducer but built by %v, not by assignTo alone", what, built)
				}
				if barrierInstr(in) {
					t.Errorf("%s: has an evaluator yet reads as a fusion barrier", what)
				}
			}
		}
	}
	if len(admitted) < 90 {
		t.Errorf("only %d natives admitted: the walk is not reaching the standard library", len(admitted))
	}
	// The walk above is what holds selectNative to no arm for a generated op,
	// string_byte or tensor_length, so it has to have visited them.
	for _, native := range append(generatedNatives(), "string_byte", "tensor_length") {
		if admitted[native] == 0 {
			t.Errorf("native %s has an evaluator but the walk never reached it", native)
		}
	}
	for _, native := range []string{"part_1", "part_2", "part_unsafe_1", "part_unsafe_2",
		"setpart_1", "setpart_2", "setpart_unsafe_1", "setpart_unsafe_2"} {
		if len(accesses[native]) != 5 {
			t.Errorf("%s: walked at element kinds %v, want all five", native, accesses[native])
		}
	}
	t.Logf("%d natives have an evaluator, %d of them a runtime function", len(admitted), len(table))
	t.Run("source", func(t *testing.T) { noHandWrittenSpelling(t, table, tableFuncs) })
	t.Run("c", noCSpellingOutsideTable)
}

// noCSpellingOutsideTable reads the C backend's source: outside the cNatives
// table no string literal names a library native, or a prefix or suffix one
// is built from ("math_", "_int"), so the emitter has no branch on a
// native's name.
func noCSpellingOutsideTable(t *testing.T) {
	natives := libraryNatives()
	f, err := parser.ParseFile(token.NewFileSet(), "cbackend.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	table := false
	for _, d := range f.Decls {
		if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.VAR && gd.Specs[0].(*ast.ValueSpec).Names[0].Name == "cNatives" {
			table = true
			continue
		}
		ast.Inspect(d, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			s, err := strconv.Unquote(lit.Value)
			if err != nil || len(s) < 2 {
				return true
			}
			for native := range natives {
				if s == native || strings.HasSuffix(s, "_") && strings.HasPrefix(native, s) ||
					strings.HasPrefix(s, "_") && strings.HasSuffix(native, s) {
					t.Errorf("cbackend.go spells native %s outside cNatives: %s", native, lit.Value)
					break
				}
			}
			return true
		})
	}
	if !table {
		t.Fatal("cNatives not found in cbackend.go")
	}
}

func generatedNatives() []string {
	var out []string
	for n := range intArith {
		out = append(out, n)
	}
	for n := range realArith {
		out = append(out, n)
	}
	for n := range intCompare {
		out = append(out, n)
	}
	return out
}

// funcName is the name of a package-level function of the runtime, or a
// dotted one for a closure or a generic instance.
func funcName(fn any) string {
	name := goruntime.FuncForPC(reflect.ValueOf(fn).Pointer()).Name()
	return strings.TrimPrefix(name, "wolfc/internal/runtime.")
}

// noHandWrittenSpelling reads the backend's source: a native the runtime's
// scalar table spells must not be spelled again by hand. No case of
// buildEvalI/F/B/C may name a native of the table (its node is built from the
// function's shape); assignTo must not read an operand through get; and no
// hand-written closure calls a function of the table or the literal forms
// modegen generates, does real arithmetic on a register or compares two
// integer or real registers itself.
func noHandWrittenSpelling(t *testing.T, table, tableFuncs map[string]bool) {
	fset := token.NewFileSet()
	parse := func(name string) *ast.File {
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	fusion := parse("fusion.go")
	funcs := map[string]*ast.FuncDecl{}
	for _, d := range fusion.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			funcs[fd.Name.Name] = fd
		}
	}
	callsGet := func(n ast.Node) (found bool) {
		ast.Inspect(n, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "get" {
					found = true
				}
			}
			return !found
		})
		return found
	}
	for _, fn := range []string{"buildEvalI", "buildEvalF", "buildEvalB", "buildEvalC"} {
		if funcs[fn] == nil {
			t.Fatalf("%s not found in fusion.go", fn)
		}
		ast.Inspect(funcs[fn], func(n ast.Node) bool {
			if cc, ok := n.(*ast.CaseClause); ok {
				for _, e := range cc.List {
					if lit, ok := e.(*ast.BasicLit); ok {
						if name, err := strconv.Unquote(lit.Value); err == nil && table[name] {
							t.Errorf("%s has a hand-written case for %s, which the runtime's table spells", fn, name)
						}
					}
				}
			}
			return true
		})
	}
	if callsGet(funcs["assignTo"]) {
		t.Error("assignTo reads an operand through get: assignment roots of generated ops come from the table")
	}
	// The sum node spells +, − and × from the table's own rows: it is
	// generated, and no hand-written closure does real arithmetic on a
	// register itself.
	generated := map[string]bool{}
	for _, d := range parse("fusion_modes.go").Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			generated[fd.Name.Name] = true
		}
	}
	for _, fn := range []string{"sumFEval", "sumFAssign"} {
		if !generated[fn] {
			t.Errorf("%s is not in fusion_modes.go", fn)
		}
		if funcs[fn] != nil {
			t.Errorf("%s is written by hand in fusion.go", fn)
		}
	}
	isRealReg := func(e ast.Expr) bool {
		ix, ok := e.(*ast.IndexExpr)
		if !ok {
			return false
		}
		sel, ok := ix.X.(*ast.SelectorExpr)
		return ok && sel.Sel.Name == "f"
	}
	isScalarReg := func(e ast.Expr) bool {
		ix, ok := e.(*ast.IndexExpr)
		if !ok {
			return false
		}
		sel, ok := ix.X.(*ast.SelectorExpr)
		return ok && (sel.Sel.Name == "i" || sel.Sel.Name == "f")
	}
	if len(tableFuncs) < 20 {
		t.Errorf("only %d of the table's functions named: the walk is not reaching it", len(tableFuncs))
	}
	wrapped := map[string]bool{"ModNZ": true, "QuotNZ": true, "ShrLitI64": true}
	for name := range tableFuncs {
		wrapped[name] = true
	}
	for _, name := range []string{"fusion.go", "codegen.go", "regions.go", "native.go"} {
		ast.Inspect(parse(name), func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.CallExpr:
				if sel, ok := x.Fun.(*ast.SelectorExpr); ok && wrapped[sel.Sel.Name] {
					if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "runtime" {
						t.Errorf("%s: hand-written call of runtime.%s", fset.Position(x.Pos()), sel.Sel.Name)
					}
				}
			case *ast.BinaryExpr:
				switch x.Op {
				case token.ADD, token.SUB, token.MUL, token.QUO:
					if isRealReg(x.X) || isRealReg(x.Y) {
						t.Errorf("%s: hand-written real arithmetic on a register", fset.Position(x.Pos()))
					}
				case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
					if isScalarReg(x.X) && isScalarReg(x.Y) {
						t.Errorf("%s: hand-written compare of two registers", fset.Position(x.Pos()))
					}
				}
			}
			return true
		})
	}
}

// atomicInstances returns every instantiation of a declared function type
// with its type variables bound to atomic types, subject to its class
// qualifiers. A variable inside a Tensor stays there, so tensor loads are
// instantiated at every element type.
func atomicInstances(env *types.Env, decl types.Type) []*types.Fn {
	atomics := []types.Type{
		types.AtomicOf("Integer8"), types.AtomicOf("Integer16"), types.AtomicOf("Integer32"), types.TInt64,
		types.AtomicOf("UnsignedInteger8"), types.AtomicOf("UnsignedInteger16"),
		types.AtomicOf("UnsignedInteger32"), types.AtomicOf("UnsignedInteger64"),
		types.TReal64, types.TComplex, types.TBool, types.TString, types.TExpr,
	}
	u := types.NewUnifier()
	body, quals := u.Instantiate(decl)
	fn, ok := body.(*types.Fn)
	if !ok {
		return nil
	}
	vars := types.FreeVars(fn)
	var out []*types.Fn
	var assign func(i int)
	assign = func(i int) {
		if i < len(vars) {
			for _, a := range atomics {
				mark := u.Mark()
				u.Unify(vars[i], a)
				assign(i + 1)
				u.Undo(mark)
			}
			return
		}
		for _, q := range quals {
			if !env.MemberOf(u.Zonk(q.Var), q.Class) {
				return
			}
		}
		out = append(out, u.Zonk(fn).(*types.Fn))
	}
	assign(0)
	return out
}
