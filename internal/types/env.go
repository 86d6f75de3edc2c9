package types

import (
	"fmt"
	"sort"

	"wolfc/internal/expr"
)

// FuncDef is one (possibly overloaded) function definition in a type
// environment (paper §4.4: "Function definitions can be overloaded by type,
// arity, and return type").
type FuncDef struct {
	Name string
	Type Type // monomorphic Fn or polymorphic ForAll over an Fn
	// Impl is the Wolfram-source implementation (a Function expression);
	// nil for native primitives the backends implement directly.
	Impl expr.Expr
	// Native names the backend primitive when Impl is nil.
	Native string
	// Inline requests forcible inlining at function resolution (§4.5).
	Inline bool
}

// Env is a type environment: type-class memberships and function
// declarations. Environments chain, so users can extend the builtin
// environment without mutating it (paper §4.4, §4.7).
type Env struct {
	parent  *Env
	funcs   map[string][]*FuncDef
	classes map[string]map[string]bool // class -> member ctor/atomic names
	aliases map[string]string
	known   map[string]bool // atomic type names ParseSpec accepts
	// sig is a running content hash over every declaration made into this
	// environment, used (together with the chain's parents) to key the
	// process-wide compile cache: two environments with the same
	// declaration history are interchangeable for compilation. Zero until
	// the first declaration.
	sig uint64
	// frozen marks the process-wide builtin root: every compiler reads it
	// concurrently, so a declaration into it is a bug and panics.
	frozen bool
}

// NewEnv creates an environment chained to parent (nil for a root).
func NewEnv(parent *Env) *Env {
	return &Env{
		parent:  parent,
		funcs:   map[string][]*FuncDef{},
		classes: map[string]map[string]bool{},
		known:   map[string]bool{},
		aliases: map[string]string{},
	}
}

// mustBeOpen panics on the frozen root before a declaration writes to it.
func (e *Env) mustBeOpen() {
	if e.frozen {
		panic("types: declaration into the shared builtin environment; declare into the child Builtin() returns")
	}
}

// bumpSig folds declaration content into the environment's signature
// (FNV-1a over the parts, order-sensitive).
func (e *Env) bumpSig(parts ...string) {
	h := e.sig
	if h == 0 {
		h = 14695981039346656037 // FNV offset basis
	}
	for _, p := range parts {
		for i := 0; i < len(p); i++ {
			h ^= uint64(p[i])
			h *= 1099511628211
		}
		h ^= 0xff // separator
		h *= 1099511628211
	}
	e.sig = h
}

// Sig returns the environment chain's declaration signature. Environments
// whose entire chains report equal signatures have seen identical
// declaration histories and produce identical compilations. Environments
// with no declarations are skipped, so an empty child has its parent's
// signature (and its parent's compile-cache keys).
func (e *Env) Sig() uint64 {
	var h uint64 = 14695981039346656037
	for env := e; env != nil; env = env.parent {
		if env.sig == 0 {
			continue
		}
		h ^= env.sig
		h *= 1099511628211
	}
	return h
}

// DeclareFunction adds a function definition (tyEnv["declareFunction", ...]
// in the paper).
func (e *Env) DeclareFunction(d *FuncDef) {
	e.mustBeOpen()
	e.funcs[d.Name] = append(e.funcs[d.Name], d)
	impl := ""
	if d.Impl != nil {
		impl = expr.FullForm(d.Impl)
	}
	e.bumpSig("fn", d.Name, canonicalTypeString(d.Type), impl, d.Native, fmt.Sprint(d.Inline))
}

// canonicalTypeString renders a type alpha-invariantly: type variables are
// numbered by first occurrence instead of their globally unique IDs, so two
// independently parsed copies of the same declaration hash identically.
func canonicalTypeString(t Type) string {
	var b []byte
	seen := map[*Var]int{}
	var render func(t Type)
	render = func(t Type) {
		switch x := t.(type) {
		case *Atomic:
			b = append(b, x.Name...)
		case *Literal:
			b = append(b, fmt.Sprint(x.Value)...)
		case *Compound:
			b = append(b, x.Ctor...)
			b = append(b, '[')
			for i, a := range x.Args {
				if i > 0 {
					b = append(b, ',')
				}
				render(a)
			}
			b = append(b, ']')
		case *Fn:
			b = append(b, '(')
			for i, p := range x.Params {
				if i > 0 {
					b = append(b, ',')
				}
				render(p)
			}
			b = append(b, ")->"...)
			render(x.Ret)
		case *Var:
			id, ok := seen[x]
			if !ok {
				id = len(seen)
				seen[x] = id
			}
			b = append(b, fmt.Sprintf("%s#v%d", x.Name, id)...)
		case *ForAll:
			b = append(b, "forall["...)
			for i, v := range x.Vars {
				if i > 0 {
					b = append(b, ',')
				}
				render(v)
			}
			b = append(b, ';')
			for i, q := range x.Quals {
				if i > 0 {
					b = append(b, ',')
				}
				render(q.Var)
				b = append(b, '@')
				b = append(b, q.Class...)
			}
			b = append(b, ';')
			render(x.Body)
			b = append(b, ']')
		default:
			b = append(b, t.String()...)
		}
	}
	render(t)
	return string(b)
}

// Lookup returns all overloads visible for name, nearest environment first:
// an overload declared in a child is tried before its parents' for the same
// name. The result is read-only. When one environment in the chain holds
// every overload (an empty child over the builtin root) it is that
// environment's own slice, capped so an append by the caller copies.
func (e *Env) Lookup(name string) []*FuncDef {
	var out []*FuncDef
	for env := e; env != nil; env = env.parent {
		if defs := env.funcs[name]; len(out) == 0 {
			out = defs[:len(defs):len(defs)]
		} else {
			out = append(out, defs...) // out is at capacity or already a copy
		}
	}
	return out
}

// FuncNames lists, sorted, every function name declared in e and its
// parents: the way to walk the whole standard library.
func (e *Env) FuncNames() []string {
	seen := map[string]bool{}
	var names []string
	for env := e; env != nil; env = env.parent {
		for n := range env.funcs {
			if !seen[n] {
				seen[n] = true
				names = append(names, n)
			}
		}
	}
	sort.Strings(names)
	return names
}

// DeclareClass adds members to a type class; members are atomic type names
// or compound constructor names.
func (e *Env) DeclareClass(class string, members ...string) {
	e.mustBeOpen()
	set := e.classes[class]
	if set == nil {
		set = map[string]bool{}
		e.classes[class] = set
	}
	for _, m := range members {
		set[m] = true
		e.known[m] = true
	}
	e.bumpSig(append([]string{"class", class}, members...)...)
}

// DeclareType registers an atomic type (or compound constructor) name so
// ParseSpec accepts it. Classes and aliases register their names
// automatically; this is the entry point for standalone user types (F6).
func (e *Env) DeclareType(names ...string) {
	e.mustBeOpen()
	for _, n := range names {
		e.known[n] = true
	}
	e.bumpSig(append([]string{"type"}, names...)...)
}

// knownType reports whether a name was declared anywhere in the chain.
func (e *Env) knownType(name string) bool {
	for env := e; env != nil; env = env.parent {
		if env.known[name] {
			return true
		}
	}
	return false
}

// MemberOf reports whether ground type t implements class.
func (e *Env) MemberOf(t Type, class string) bool {
	name := ""
	switch x := t.(type) {
	case *Atomic:
		name = x.Name
	case *Compound:
		name = x.Ctor
	case *Fn:
		name = "Function"
	default:
		return false
	}
	for env := e; env != nil; env = env.parent {
		if env.classes[class][name] {
			return true
		}
	}
	return false
}

// HasClass reports whether the class is known anywhere in the chain.
func (e *Env) HasClass(class string) bool {
	for env := e; env != nil; env = env.parent {
		if _, ok := env.classes[class]; ok {
			return true
		}
	}
	return false
}

// DeclareAlias maps a surface type name to its canonical name
// (e.g. MachineInteger -> Integer64).
func (e *Env) DeclareAlias(alias, canonical string) {
	e.mustBeOpen()
	e.aliases[alias] = canonical
	e.known[alias] = true
	e.known[canonical] = true
	e.bumpSig("alias", alias, canonical)
}

func (e *Env) resolveAlias(name string) string {
	for env := e; env != nil; env = env.parent {
		if c, ok := env.aliases[name]; ok {
			return c
		}
	}
	return name
}

// ParseSpec converts a TypeSpecifier expression into a Type (paper §4.4).
// Accepted forms:
//
//	"Integer64"                          atomic constructor
//	"Tensor"["Real64", 2]                compound constructor
//	TypeLiteral[1, "Integer64"]          type-level literal
//	{"I64", "I64"} -> "R64"              function (Rule of a List)
//	TypeForAll[{"a"}, spec]              polymorphic
//	TypeForAll[{"a"}, {Element["a", "Integral"]}, spec]  qualified
//	TypeSpecifier[spec]                  explicit wrapper
func (e *Env) ParseSpec(spec expr.Expr) (Type, error) {
	return e.parseSpec(spec, map[string]*Var{})
}

// Spec renders a ground type as the TypeSpecifier expression ParseSpec reads
// back into it: the form parameter annotations and the module codec write.
func Spec(t Type) expr.Expr {
	switch x := t.(type) {
	case *Atomic:
		return expr.FromString(x.Name)
	case *Literal:
		return expr.FromInt64(x.Value)
	case *Compound:
		args := make([]expr.Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = Spec(a)
		}
		return expr.New(expr.FromString(x.Ctor), args...)
	case *Fn:
		params := make([]expr.Expr, len(x.Params))
		for i, p := range x.Params {
			params[i] = Spec(p)
		}
		return expr.New(expr.SymRule, expr.List(params...), Spec(x.Ret))
	}
	return expr.FromString(t.String())
}

func (e *Env) parseSpec(spec expr.Expr, vars map[string]*Var) (Type, error) {
	switch x := spec.(type) {
	case *expr.String:
		if v, ok := vars[x.V]; ok {
			return v, nil
		}
		name := e.resolveAlias(x.V)
		if v, ok := vars[name]; ok {
			return v, nil
		}
		if !e.knownType(name) {
			return nil, fmt.Errorf("unknown type %q (declare it with DeclareType or DeclareClass)", x.V)
		}
		return AtomicOf(name), nil
	case *expr.Integer:
		if x.IsMachine() {
			return &Literal{Value: x.Int64()}, nil
		}
	case *expr.Normal:
		head := x.Head()
		if hs, ok := head.(*expr.String); ok {
			// Compound constructor: "Tensor"[elem, rank].
			args := make([]Type, x.Len())
			for i := 1; i <= x.Len(); i++ {
				a, err := e.parseSpec(x.Arg(i), vars)
				if err != nil {
					return nil, err
				}
				args[i-1] = a
			}
			return &Compound{Ctor: hs.V, Args: args}, nil
		}
		if hn, ok := head.(*expr.Symbol); ok {
			switch hn.Name {
			case "TypeSpecifier":
				if x.Len() == 1 {
					return e.parseSpec(x.Arg(1), vars)
				}
			case "Rule":
				if x.Len() == 2 {
					params, ok := expr.IsNormal(x.Arg(1), expr.SymList)
					if !ok {
						return nil, fmt.Errorf("function type needs {params} on the left of ->, got %s",
							expr.InputForm(x.Arg(1)))
					}
					ps := make([]Type, params.Len())
					for i := 1; i <= params.Len(); i++ {
						p, err := e.parseSpec(params.Arg(i), vars)
						if err != nil {
							return nil, err
						}
						ps[i-1] = p
					}
					ret, err := e.parseSpec(x.Arg(2), vars)
					if err != nil {
						return nil, err
					}
					return &Fn{Params: ps, Ret: ret}, nil
				}
			case "TypeLiteral":
				if x.Len() == 2 {
					if i, ok := x.Arg(1).(*expr.Integer); ok && i.IsMachine() {
						return &Literal{Value: i.Int64()}, nil
					}
				}
			case "TypeForAll":
				return e.parseForAll(x, vars)
			case "TypeProduct":
				// Structural product types (paper §4.4: "TypeProduct and
				// TypeProjection, which are used to handle structural
				// types").
				args := make([]Type, x.Len())
				for i := 1; i <= x.Len(); i++ {
					a, err := e.parseSpec(x.Arg(i), vars)
					if err != nil {
						return nil, err
					}
					args[i-1] = a
				}
				return &Compound{Ctor: "Product", Args: args}, nil
			case "TypeProjection":
				// TypeProjection[product, i] selects the i-th component at
				// specification time.
				if x.Len() == 2 {
					base, err := e.parseSpec(x.Arg(1), vars)
					if err != nil {
						return nil, err
					}
					idx, ok := x.Arg(2).(*expr.Integer)
					if !ok || !idx.IsMachine() {
						return nil, fmt.Errorf("TypeProjection index must be a machine integer")
					}
					prod, ok := base.(*Compound)
					if !ok || prod.Ctor != "Product" {
						return nil, fmt.Errorf("TypeProjection of a non-product type %s", base)
					}
					i := int(idx.Int64())
					if i < 1 || i > len(prod.Args) {
						return nil, fmt.Errorf("TypeProjection index %d out of range for %d components", i, len(prod.Args))
					}
					return prod.Args[i-1], nil
				}
			case "List":
				// Bare {a, b} -> c handled via Rule; a bare list is invalid.
				return nil, fmt.Errorf("unexpected list in type specifier: %s", expr.InputForm(spec))
			}
		}
	}
	return nil, fmt.Errorf("invalid type specifier: %s", expr.InputForm(spec))
}

func (e *Env) parseForAll(x *expr.Normal, outer map[string]*Var) (Type, error) {
	if x.Len() < 2 || x.Len() > 3 {
		return nil, fmt.Errorf("TypeForAll[{vars}, (quals,) spec] expected, got %s", expr.InputForm(x))
	}
	varList, ok := expr.IsNormal(x.Arg(1), expr.SymList)
	if !ok {
		return nil, fmt.Errorf("TypeForAll variable list expected")
	}
	vars := map[string]*Var{}
	for k, v := range outer {
		vars[k] = v
	}
	var bound []*Var
	for _, v := range varList.Args() {
		name, ok := v.(*expr.String)
		if !ok {
			return nil, fmt.Errorf("TypeForAll variables are strings, got %s", expr.InputForm(v))
		}
		nv := NewVar(name.V)
		vars[name.V] = nv
		bound = append(bound, nv)
	}
	var quals []Qual
	bodyIdx := 2
	if x.Len() == 3 {
		bodyIdx = 3
		qualList, ok := expr.IsNormal(x.Arg(2), expr.SymList)
		if !ok {
			return nil, fmt.Errorf("TypeForAll qualifier list expected")
		}
		for _, q := range qualList.Args() {
			el, ok := expr.IsNormalN(q, expr.Sym("Element"), 2)
			if !ok {
				return nil, fmt.Errorf("qualifier Element[var, class] expected, got %s", expr.InputForm(q))
			}
			vname, ok1 := el.Arg(1).(*expr.String)
			cname, ok2 := el.Arg(2).(*expr.String)
			if !ok1 || !ok2 {
				return nil, fmt.Errorf("qualifier parts must be strings: %s", expr.InputForm(q))
			}
			v, ok := vars[vname.V]
			if !ok {
				return nil, fmt.Errorf("qualifier names unbound variable %q", vname.V)
			}
			quals = append(quals, Qual{Var: v, Class: cname.V})
		}
	}
	body, err := e.parseSpec(x.Arg(bodyIdx), vars)
	if err != nil {
		return nil, err
	}
	return &ForAll{Vars: bound, Quals: quals, Body: body}, nil
}

// MustParseSpec is ParseSpec for statically-known specifications.
func (e *Env) MustParseSpec(spec expr.Expr) Type {
	t, err := e.ParseSpec(spec)
	if err != nil {
		panic(err)
	}
	return t
}
