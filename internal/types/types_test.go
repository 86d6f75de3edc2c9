package types

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"wolfc/internal/parser"
)

func parseTy(t *testing.T, src string) Type {
	t.Helper()
	ty, err := Builtin().ParseSpec(parser.MustParse(src))
	if err != nil {
		t.Fatalf("parse type %q: %v", src, err)
	}
	return ty
}

func TestParseSpecAtomic(t *testing.T) {
	if ty := parseTy(t, `"Integer64"`); ty != TInt64 {
		t.Fatalf("got %v", ty)
	}
	// Aliases resolve.
	if ty := parseTy(t, `"MachineInteger"`); ty != TInt64 {
		t.Fatalf("alias: %v", ty)
	}
	if ty := parseTy(t, `"Real"`); ty != TReal64 {
		t.Fatalf("alias: %v", ty)
	}
}

func TestParseSpecCompound(t *testing.T) {
	ty := parseTy(t, `"Tensor"["Integer64", 2]`)
	c, ok := ty.(*Compound)
	if !ok || c.Ctor != "Tensor" || len(c.Args) != 2 {
		t.Fatalf("got %v", ty)
	}
	if c.Args[0] != TInt64 {
		t.Fatalf("elem = %v", c.Args[0])
	}
	if l, ok := c.Args[1].(*Literal); !ok || l.Value != 2 {
		t.Fatalf("rank = %v", c.Args[1])
	}
}

func TestParseSpecFunction(t *testing.T) {
	ty := parseTy(t, `{"Integer32", "Integer32"} -> "Real64"`)
	f, ok := ty.(*Fn)
	if !ok || len(f.Params) != 2 || f.Ret != TReal64 {
		t.Fatalf("got %v", ty)
	}
	if f.Params[0] != TInt32 {
		t.Fatalf("param = %v", f.Params[0])
	}
}

func TestParseSpecForAll(t *testing.T) {
	// The paper's Map signature: TypeForAll[{a, b},
	//   {{a,b}->b, Tensor[a,1]} -> Tensor[b,1]].
	ty := parseTy(t, `TypeForAll[{"a", "b"}, {{"a", "b"} -> "b", "Tensor"["a", 1]} -> "Tensor"["b", 1]]`)
	fa, ok := ty.(*ForAll)
	if !ok || len(fa.Vars) != 2 {
		t.Fatalf("got %v", ty)
	}
	body, ok := fa.Body.(*Fn)
	if !ok || len(body.Params) != 2 {
		t.Fatalf("body = %v", fa.Body)
	}
	if _, ok := body.Params[0].(*Fn); !ok {
		t.Fatalf("first param should be a function type: %v", body.Params[0])
	}
}

func TestParseSpecQualified(t *testing.T) {
	// The paper's Min: TypeForAll[{a}, {a ∈ Ordered}, {a,a} -> a].
	ty := parseTy(t, `TypeForAll[{"a"}, {Element["a", "Ordered"]}, {"a", "a"} -> "a"]`)
	fa, ok := ty.(*ForAll)
	if !ok || len(fa.Quals) != 1 || fa.Quals[0].Class != "Ordered" {
		t.Fatalf("got %v", ty)
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, src := range []string{
		`f[1]`,
		`TypeForAll[{x}, "Integer64"]`,
		`TypeForAll[{"a"}, {Element["b", "Ordered"]}, "a"]`,
		`{1, 2}`,
	} {
		if _, err := Builtin().ParseSpec(parser.MustParse(src)); err == nil {
			t.Errorf("ParseSpec(%q) should fail", src)
		}
	}
}

func TestUnifyBasics(t *testing.T) {
	u := NewUnifier()
	if !u.Unify(TInt64, TInt64) {
		t.Fatal("Integer64 must unify with itself")
	}
	if u.Unify(TInt64, TReal64) {
		t.Fatal("Integer64 must not unify with Real64")
	}
	if got := u.Failure(&Printer{}); got != "cannot unify Integer64 with Real64" {
		t.Fatalf("failure = %q", got)
	}
	v := u.NewVar("a")
	if !u.Unify(v, TInt64) {
		t.Fatal(u.Failure(&Printer{}))
	}
	if u.Zonk(v) != TInt64 {
		t.Fatalf("binding lost: %v", u.Zonk(v))
	}
}

func TestUnifyCompound(t *testing.T) {
	u := NewUnifier()
	a := u.NewVar("a")
	// Tensor[a, 1] ~ Tensor[Real64, 1] binds a := Real64.
	if !u.Unify(TensorOf(a, 1), TensorOf(TReal64, 1)) {
		t.Fatal(u.Failure(&Printer{}))
	}
	if u.Zonk(a) != TReal64 {
		t.Fatalf("a = %v", u.Zonk(a))
	}
	// Rank mismatch fails.
	if u.Unify(TensorOf(TReal64, 1), TensorOf(TReal64, 2)) {
		t.Fatal("rank mismatch must fail")
	}
}

func TestUnifyFunction(t *testing.T) {
	u := NewUnifier()
	a, b := u.NewVar("a"), u.NewVar("b")
	lhs := &Fn{Params: []Type{a, a}, Ret: b}
	rhs := &Fn{Params: []Type{TInt64, TInt64}, Ret: TBool}
	if !u.Unify(lhs, rhs) {
		t.Fatal(u.Failure(&Printer{}))
	}
	if u.Zonk(a) != TInt64 || u.Zonk(b) != TBool {
		t.Fatalf("a=%v b=%v", u.Zonk(a), u.Zonk(b))
	}
	// Conflicting param types fail: {c, c} with {Int, Real}.
	c := u.NewVar("c")
	if u.Unify(&Fn{Params: []Type{c, c}, Ret: u.NewVar("d")},
		&Fn{Params: []Type{TInt64, TReal64}, Ret: TBool}) {
		t.Fatal("inconsistent binding must fail")
	}
}

func TestOccursCheck(t *testing.T) {
	u := NewUnifier()
	a := u.NewVar("a")
	if u.Unify(a, TensorOf(a, 1)) {
		t.Fatal("occurs check must fail")
	}
	if got := u.Failure(&Printer{}); got != "occurs check: a#1 in Tensor[a#1, 1]" {
		t.Fatalf("failure = %q", got)
	}
	// Through a binding, too: b := Tensor[a, 1], then a ~ b.
	b := u.NewVar("b")
	if !u.Unify(b, TensorOf(a, 1)) || u.Unify(a, b) {
		t.Fatal("occurs check must look through bindings")
	}
}

// A variable no unifier made belongs to a declaration, which every compile
// in the process may be reading: a unifier treats it as a constant and binds
// its own variable to it, never the other way round.
func TestDeclarationVariablesAreNeverBound(t *testing.T) {
	u := NewUnifier()
	decl := NewVar("d")
	if u.Unify(decl, TInt64) || u.Unify(TInt64, decl) {
		t.Fatal("a declaration variable was bound")
	}
	mine := u.NewVar("m")
	if !u.Unify(decl, mine) || u.Zonk(mine) != Type(decl) {
		t.Fatal("the unifier's own variable must take the binding")
	}
	other := NewUnifier().NewVar("o")
	if u.Unify(other, TInt64) || u.Zonk(other) != Type(other) {
		t.Fatal("another unifier's variable was bound")
	}
}

func TestInstantiateFreshens(t *testing.T) {
	ty := parseTy(t, `TypeForAll[{"a"}, {Element["a", "Ordered"]}, {"a", "a"} -> "a"]`)
	u := NewUnifier()
	t1, q1 := u.Instantiate(ty)
	t2, q2 := u.Instantiate(ty)
	f1 := t1.(*Fn)
	f2 := t2.(*Fn)
	v1 := f1.Params[0].(*Var)
	v2 := f2.Params[0].(*Var)
	if v1 == v2 {
		t.Fatal("instantiations must use fresh variables")
	}
	if f1.Params[1] != Type(v1) || f1.Ret != Type(v1) || !u.Owns(v1) {
		t.Fatalf("instantiated body = %v", f1)
	}
	if len(q1) != 1 || q1[0].Var != v1 || q1[0].Class != "Ordered" {
		t.Fatalf("quals = %v", q1)
	}
	if q2[0].Var != v2 {
		t.Fatal("qualifier must follow its instantiation")
	}
}

// A declared type may have a variable outside any ForAll. The declaration
// can be shared between compiles, so each instantiation replaces it too
// (consistently within one), and a type with no variables is not copied.
func TestInstantiateFreshensFreeVariables(t *testing.T) {
	free := NewVar("e")
	decl := &Fn{Params: []Type{TensorOf(free, 1), free}, Ret: free}
	u := NewUnifier()
	t1, quals := u.Instantiate(decl)
	f1 := t1.(*Fn)
	v1, ok := f1.Ret.(*Var)
	if !ok || v1 == free || !u.Owns(v1) || quals != nil {
		t.Fatalf("instantiated = %v", f1)
	}
	if f1.Params[1] != Type(v1) || f1.Params[0].(*Compound).Args[0] != Type(v1) {
		t.Fatalf("one instantiation must use one fresh variable: %v", f1)
	}
	t2, _ := u.Instantiate(decl)
	if t2.(*Fn).Ret == Type(v1) {
		t.Fatal("two instantiations share a variable")
	}
	if !u.Unify(t1, &Fn{Params: []Type{TensorOf(TReal64, 1), TReal64}, Ret: TReal64}) {
		t.Fatal(u.Failure(&Printer{}))
	}
	if !IsGround(u.Zonk(t1)) || decl.Ret != Type(free) || len(FreeVars(decl)) != 1 {
		t.Fatal("the declaration must be unchanged")
	}
	ground := &Fn{Params: []Type{TInt64}, Ret: TensorOf(TReal64, 2)}
	if got, _ := u.Instantiate(ground); got != Type(ground) {
		t.Fatal("a ground type must be returned as it is")
	}
	if n := testing.AllocsPerRun(100, func() { u.Instantiate(ground) }); n != 0 {
		t.Fatalf("instantiating a ground type allocates %v times", n)
	}
}

// Diagnostics number variables in the order a message first mentions them,
// not by how many variables the process has made.
func TestPrinterNumbersVariablesInPrintOrder(t *testing.T) {
	for i := 0; i < 50; i++ {
		NewVar("noise")
	}
	a, b := NewVar("a"), NewVar("b")
	ty := &Fn{Params: []Type{b, TensorOf(a, 1), b}, Ret: a}
	var p Printer
	if got := p.String(ty); got != "{b#1, Tensor[a#2, 1], b#1} -> a#2" {
		t.Fatalf("printed %q", got)
	}
	if got := p.String(a); got != "a#2" {
		t.Fatalf("a later message must keep the numbering: %q", got)
	}
	if got, want := ty.String(), fmt.Sprintf("{b#%d, Tensor[a#%d, 1], b#%d} -> a#%d", b.ID, a.ID, b.ID, a.ID); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestEqualAndIsGroundAllocateNothing(t *testing.T) {
	a := &Fn{Params: []Type{TensorOf(TReal64, 2), TInt64}, Ret: &Compound{Ctor: "Pair", Args: []Type{TBool, TString}}}
	b := &Fn{Params: []Type{TensorOf(TReal64, 2), TInt64}, Ret: &Compound{Ctor: "Pair", Args: []Type{TBool, TString}}}
	c := &Fn{Params: []Type{TensorOf(TReal64, 1), TInt64}, Ret: a.Ret}
	v := NewVar("v")
	if !Equal(a, b) || Equal(a, c) || Equal(v, TInt64) || Equal(TInt64, v) || !Equal(v, v) || Equal(v, NewVar("v")) {
		t.Fatal("Equal is structural, and a variable equals only itself")
	}
	if !IsGround(a) || IsGround(TensorOf(v, 1)) || IsGround(&Fn{Params: []Type{TInt64}, Ret: v}) {
		t.Fatal("IsGround")
	}
	open := TensorOf(v, 1)
	if n := testing.AllocsPerRun(100, func() { Equal(a, b); Equal(a, c); IsGround(a); IsGround(open) }); n != 0 {
		t.Fatalf("Equal and IsGround allocate %v times", n)
	}
}

func TestClassMembership(t *testing.T) {
	e := Builtin()
	cases := []struct {
		ty    Type
		class string
		want  bool
	}{
		{TInt64, "Integral", true},
		{TInt8, "Integral", true},
		{TReal64, "Integral", false},
		{TReal64, "Reals", true},
		{TInt64, "Number", true},
		{TComplex, "Number", true},
		{TComplex, "Ordered", false},
		{TString, "Ordered", true},
		{TensorOf(TReal64, 1), "Container", true},
		{TensorOf(TReal64, 1), "MemoryManaged", true},
		{TInt64, "MemoryManaged", false},
		{TString, "MemoryManaged", true},
		{TBool, "Number", false},
	}
	for _, c := range cases {
		if got := e.MemberOf(c.ty, c.class); got != c.want {
			t.Errorf("MemberOf(%v, %s) = %v, want %v", c.ty, c.class, got, c.want)
		}
	}
}

func TestUserExtendsClasses(t *testing.T) {
	// Paper F6: users can add datatypes and extend classes.
	base := Builtin()
	user := NewEnv(base)
	user.DeclareClass("Ordered", "MyDecimal")
	my := AtomicOf("MyDecimal")
	if !user.MemberOf(my, "Ordered") {
		t.Fatal("user class extension not visible")
	}
	if base.MemberOf(my, "Ordered") {
		t.Fatal("user extension must not mutate the builtin environment")
	}
}

func TestOverloadLookupOrder(t *testing.T) {
	e := Builtin()
	defs := e.Lookup("Plus")
	if len(defs) < 4 {
		t.Fatalf("Plus should have scalar + tensor overloads, got %d", len(defs))
	}
	// A user environment's declaration shadows (comes before) builtins.
	user := NewEnv(e)
	user.DeclareFunction(&FuncDef{Name: "Plus",
		Type: e.MustParseSpec(parser.MustParse(`{"String", "String"} -> "String"`))})
	got := user.Lookup("Plus")
	if f, ok := got[0].Type.(*Fn); !ok || f.Params[0] != TString {
		t.Fatal("user overload must come first")
	}
}

func TestMangle(t *testing.T) {
	fn := &Fn{Params: []Type{TInt64, TInt64}, Ret: TInt64}
	if got := Mangle("Plus", fn); got != "Plus_I64_I64" {
		t.Fatalf("mangle = %s", got)
	}
	tfn := &Fn{Params: []Type{TensorOf(TReal64, 2)}, Ret: TInt64}
	got := Mangle("Length", tfn)
	if !strings.Contains(got, "Tensor") || !strings.Contains(got, "R64") {
		t.Fatalf("mangle = %s", got)
	}
}

func TestSubstQuickIdempotent(t *testing.T) {
	// Applying a substitution twice equals applying it once.
	f := func(seed uint8) bool {
		u := NewUnifier()
		a, b, c := u.NewVar("a"), u.NewVar("b"), u.NewVar("c")
		if !u.Unify(a, TensorOf(b, 1)) || !u.Unify(b, TInt64) {
			return false
		}
		var ty Type = &Fn{Params: []Type{a, b, c}, Ret: TensorOf(a, 2)}
		once := u.Zonk(ty)
		twice := u.Zonk(once)
		return once.String() == twice.String() && once.String() == "{Tensor[Integer64, 1], Integer64, c#3} -> Tensor[Integer64, 3]"
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestBuiltinDeclarationsParse(t *testing.T) {
	// Builtin() must construct without panics and expose the key symbols.
	e := Builtin()
	for _, name := range []string{"Plus", "Times", "Less", "Part", "Native`ListNew",
		"StringLength", "Dot", "Sin", "Native`SetPartUnsafe", "Native`Copy"} {
		if len(e.Lookup(name)) == 0 {
			t.Errorf("builtin %s missing", name)
		}
	}
}

// TestNativeEffect: an effect is read by native name and result type, the
// checked arithmetic throws only at exact results, and a native no row
// declares is Effectful.
func TestNativeEffect(t *testing.T) {
	for _, row := range []struct {
		native string
		result Type
		want   Effect
	}{
		{"binary_plus", TInt64, Throws},
		{"binary_plus", TReal64, Pure},
		{"unary_minus", TComplex, Pure},
		{"and", TBool, Pure},
		{"part_1", TReal64, Throws},
		{"pattern_miss", TInt64, Effectful},
		{"tensor_plus_into1", TensorOf(TReal64, 1), Effectful},
		{"", TInt64, Effectful},
	} {
		if got := NativeEffect(row.native, row.result); got != row.want {
			t.Errorf("NativeEffect(%q, %s) = %d, want %d", row.native, row.result, got, row.want)
		}
	}
}

func TestIsGround(t *testing.T) {
	if !IsGround(TensorOf(TReal64, 1)) {
		t.Fatal("tensor of reals is ground")
	}
	if IsGround(TensorOf(NewVar("a"), 1)) {
		t.Fatal("tensor of a variable is not ground")
	}
}

func TestTypeProductAndProjection(t *testing.T) {
	e := Builtin()
	prod, err := e.ParseSpec(parser.MustParse(`TypeProduct["Integer64", "Real64", "String"]`))
	if err != nil {
		t.Fatal(err)
	}
	c, ok := prod.(*Compound)
	if !ok || c.Ctor != "Product" || len(c.Args) != 3 {
		t.Fatalf("product = %v", prod)
	}
	// Projection selects a component at specification time (§4.4).
	proj, err := e.ParseSpec(parser.MustParse(`TypeProjection[TypeProduct["Integer64", "Real64"], 2]`))
	if err != nil {
		t.Fatal(err)
	}
	if proj != TReal64 {
		t.Fatalf("projection = %v", proj)
	}
	if _, err := e.ParseSpec(parser.MustParse(`TypeProjection[TypeProduct["Integer64"], 5]`)); err == nil {
		t.Fatal("out-of-range projection must fail")
	}
	if _, err := e.ParseSpec(parser.MustParse(`TypeProjection["Integer64", 1]`)); err == nil {
		t.Fatal("projection of non-product must fail")
	}
}
