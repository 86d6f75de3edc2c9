// Package types implements the compiler's type system (paper §4.4): atomic
// and compound type constructors, type-level literals, function types,
// polymorphic TypeForAll types with type-class qualifiers, type
// environments with arity/type-overloaded function declarations, and
// unification with instantiation — everything the constraint-based
// inference in internal/infer builds on.
package types

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Type is a compiler type.
type Type interface {
	String() string
	isType()
}

// Atomic is an atomic type constructor such as "Integer64" or "Real64".
type Atomic struct {
	Name string
}

func (a *Atomic) String() string { return a.Name }
func (a *Atomic) isType()        {}

// Atomic types are interned so pointer equality works.
var (
	atomicsMu sync.Mutex
	atomics   = map[string]*Atomic{}
)

// AtomicOf interns the atomic type with the given canonical name.
func AtomicOf(name string) *Atomic {
	atomicsMu.Lock()
	defer atomicsMu.Unlock()
	if t, ok := atomics[name]; ok {
		return t
	}
	t := &Atomic{Name: name}
	atomics[name] = t
	return t
}

// The built-in scalar types.
var (
	TBool    = AtomicOf("Boolean")
	TInt8    = AtomicOf("Integer8")
	TInt16   = AtomicOf("Integer16")
	TInt32   = AtomicOf("Integer32")
	TInt64   = AtomicOf("Integer64")
	TUint8   = AtomicOf("UnsignedInteger8")
	TUint16  = AtomicOf("UnsignedInteger16")
	TUint32  = AtomicOf("UnsignedInteger32")
	TUint64  = AtomicOf("UnsignedInteger64")
	TReal32  = AtomicOf("Real32")
	TReal64  = AtomicOf("Real64")
	TComplex = AtomicOf("ComplexReal64")
	TString  = AtomicOf("String")
	TExpr    = AtomicOf("Expression")
	TVoid    = AtomicOf("Void")
)

// Compound is an applied type constructor, e.g. Tensor[Real64, 1].
type Compound struct {
	Ctor string
	Args []Type
}

func (c *Compound) String() string { return render(c, nil) }
func (c *Compound) isType()        {}

// TensorOf builds the dense array type Tensor[elem, rank]. A tensor of
// numeric tensors is one packed array (Packed): TensorOf(Tensor[Real64, 1], 1)
// is Tensor[Real64, 2].
func TensorOf(elem Type, rank int) *Compound {
	return Packed(&Compound{Ctor: "Tensor", Args: []Type{elem, &Literal{Value: int64(rank)}}})
}

// Packed rewrites Tensor[Tensor[e, r], s] to Tensor[e, r+s] when e is a
// machine scalar a packed array holds (Integer64, Real64, ComplexReal64,
// Boolean), the paper's "PackedArray"[e, rank]: its rank is part of the type
// and its elements are never separate tensors. Any other compound is
// returned as it is, and so is a tensor of strings, expressions or
// functions, which stays a tensor of separate values. Unification never
// calls it: the solver matches types structurally, and inference writes
// packed types back once it is done (Unifier.Zonk).
func Packed(c *Compound) *Compound {
	if c.Ctor != "Tensor" || len(c.Args) != 2 {
		return c
	}
	inner, ok := c.Args[0].(*Compound)
	if !ok || inner.Ctor != "Tensor" || len(inner.Args) != 2 {
		return c
	}
	r, ok1 := inner.Args[1].(*Literal)
	s, ok2 := c.Args[1].(*Literal)
	if e := inner.Args[0]; !ok1 || !ok2 || e != TInt64 && e != TReal64 && e != TComplex && e != TBool {
		return c
	}
	return &Compound{Ctor: "Tensor", Args: []Type{inner.Args[0], &Literal{Value: r.Value + s.Value}}}
}

// IsTensor reports whether t is a Tensor[elem, rank] type.
func IsTensor(t Type) bool {
	c, ok := t.(*Compound)
	return ok && c.Ctor == "Tensor"
}

// Literal is a type-level constant (paper §4.4 TypeLiteral), used for
// tensor ranks.
type Literal struct {
	Value int64
}

func (l *Literal) String() string { return strconv.FormatInt(l.Value, 10) }
func (l *Literal) isType()        {}

// Fn is a monomorphic function type {params...} -> ret.
type Fn struct {
	Params []Type
	Ret    Type
}

func (f *Fn) String() string { return render(f, nil) }
func (f *Fn) isType()        {}

// Var is a type variable. One that NewVar made belongs to a declaration: it
// is a scheme's bound variable, or free in a declared type, and no Unifier
// ever binds it (Instantiate replaces it first). One that a Unifier made
// belongs to that unifier, which keeps its binding here, in place.
type Var struct {
	Name string
	// ID is unique in the process for a NewVar variable. For a unifier's
	// variable it is the 1-based creation index in that unifier, so a table
	// with one row per variable can be a slice.
	ID int64

	// owner made the variable and is the only one to read or write ref, the
	// variable's binding (nil while it is free). The standard library is one
	// object every compile in the process reads, so a write through a
	// variable somebody else can reach would be a data race.
	owner *Unifier
	ref   Type
}

var varSeq int64

// NewVar creates a fresh declaration variable.
func NewVar(name string) *Var {
	return &Var{Name: name, ID: atomic.AddInt64(&varSeq, 1)}
}

func (v *Var) String() string { return render(v, nil) }
func (v *Var) isType()        {}

// Qual constrains a type variable to a type class (paper §4.4 qualified
// polymorphic types).
type Qual struct {
	Var   *Var
	Class string
}

func (q Qual) String() string { return fmt.Sprintf("%s ∈ %s", q.Var, q.Class) }

// ForAll is a polymorphic type scheme with qualifiers.
type ForAll struct {
	Vars  []*Var
	Quals []Qual
	Body  Type
}

func (f *ForAll) String() string { return render(f, nil) }
func (f *ForAll) isType()        {}

// Printer renders types for diagnostics. It numbers type variables in the
// order it first prints them, so a message does not depend on how many
// variables the process made before (the zero value is ready to use).
type Printer struct {
	seen map[*Var]int
}

// String renders t. Resolve variables first (Unifier.Zonk): a printer shows
// the variables it is given.
func (p *Printer) String(t Type) string { return render(t, p) }

func render(t Type, p *Printer) string {
	if a, ok := t.(*Atomic); ok {
		return a.Name
	}
	var b strings.Builder
	write(&b, t, p)
	return b.String()
}

func write(b *strings.Builder, t Type, p *Printer) {
	list := func(ts []Type) {
		for i, t := range ts {
			if i > 0 {
				b.WriteString(", ")
			}
			write(b, t, p)
		}
	}
	switch x := t.(type) {
	case *Atomic:
		b.WriteString(x.Name)
	case *Literal:
		b.WriteString(strconv.FormatInt(x.Value, 10))
	case *Compound:
		b.WriteString(x.Ctor)
		b.WriteByte('[')
		list(x.Args)
		b.WriteByte(']')
	case *Fn:
		b.WriteByte('{')
		list(x.Params)
		b.WriteString("} -> ")
		write(b, x.Ret, p)
	case *Var:
		id := x.ID
		if p != nil {
			n, ok := p.seen[x]
			if !ok {
				if p.seen == nil {
					p.seen = map[*Var]int{}
				}
				n = len(p.seen) + 1
				p.seen[x] = n
			}
			id = int64(n)
		}
		b.WriteString(x.Name)
		b.WriteByte('#')
		b.WriteString(strconv.FormatInt(id, 10))
	case *ForAll:
		b.WriteString("∀{")
		for i, v := range x.Vars {
			if i > 0 {
				b.WriteString(", ")
			}
			write(b, v, p)
		}
		b.WriteByte('}')
		if len(x.Quals) > 0 {
			b.WriteByte('{')
			for i, q := range x.Quals {
				if i > 0 {
					b.WriteString(", ")
				}
				write(b, q.Var, p)
				b.WriteString(" ∈ " + q.Class)
			}
			b.WriteByte('}')
		}
		b.WriteString(". ")
		write(b, x.Body, p)
	}
}

// Unifier holds the variable bindings of one inference. A binding lives in
// the variable itself, and every binding made is recorded on a trail, so a
// speculative unification is undone by truncating the trail to a mark:
// nothing is copied, and neither success nor failure allocates. A Unifier
// is used by one goroutine.
type Unifier struct {
	trail []*Var
	slab  []Var // NewVar carves variables out of chunks
	nvars int64
	ren   []renaming // the instantiation in progress

	// The last failed Unify: the two subterms that did not match, or the
	// variable and the type it occurs in. Text is built from them only when
	// the failure reaches a user (Failure).
	failA, failB Type
	failOccurs   bool
}

// NewUnifier returns a unifier with no variables.
func NewUnifier() *Unifier { return &Unifier{} }

// NewVar creates a fresh variable that this unifier may bind.
func (u *Unifier) NewVar(name string) *Var {
	if len(u.slab) == cap(u.slab) {
		u.slab = make([]Var, 0, 64)
	}
	u.nvars++
	u.slab = append(u.slab, Var{Name: name, ID: u.nvars, owner: u})
	return &u.slab[len(u.slab)-1]
}

// NumVars is how many variables the unifier has made; their IDs are
// 1..NumVars.
func (u *Unifier) NumVars() int { return int(u.nvars) }

// Owns reports whether v is one of this unifier's variables.
func (u *Unifier) Owns(v *Var) bool { return v.owner == u }

// Resolve follows bound variables at the head of t: the result is a free
// variable or a constructor whose arguments may still hold bound variables.
func (u *Unifier) Resolve(t Type) Type {
	for {
		v, ok := t.(*Var)
		if !ok || v.owner != u || v.ref == nil {
			return t
		}
		t = v.ref
	}
}

// Zonk resolves every bound variable in t, sharing whatever it does not
// have to rebuild, and packs every tensor of numeric tensors it meets
// (Packed). Unify never needs it; inference calls it once per value when it
// writes types back.
func (u *Unifier) Zonk(t Type) Type { return u.zonk(t, true) }

// Substitute is Zonk without packing: the types as the solver compared
// them, which is what a message about a failed unification shows.
func (u *Unifier) Substitute(t Type) Type { return u.zonk(t, false) }

func (u *Unifier) zonk(t Type, pack bool) Type {
	sub := func(t Type) Type { return u.zonk(t, pack) }
	switch x := u.Resolve(t).(type) {
	case *Compound:
		if args := mapTypes(x.Args, sub); args != nil {
			x = &Compound{Ctor: x.Ctor, Args: args}
		}
		if pack {
			return Packed(x)
		}
		return x
	case *Fn:
		params, ret := mapTypes(x.Params, sub), sub(x.Ret)
		if params == nil && ret == x.Ret {
			return x
		}
		if params == nil {
			params = x.Params
		}
		return &Fn{Params: params, Ret: ret}
	case *ForAll:
		if body := sub(x.Body); body != x.Body {
			return &ForAll{Vars: x.Vars, Quals: x.Quals, Body: body}
		}
		return x
	default:
		return x
	}
}

// mapTypes applies f to every element and returns the results, or nil when
// f changed none of them, so that the caller can share the original node.
func mapTypes(ts []Type, f func(Type) Type) []Type {
	var out []Type
	for i, t := range ts {
		r := f(t)
		if r != t && out == nil {
			out = make([]Type, len(ts))
			copy(out, ts[:i])
		}
		if out != nil {
			out[i] = r
		}
	}
	return out
}

// occurs reports whether v appears in t under the current bindings.
func (u *Unifier) occurs(v *Var, t Type) bool {
	switch x := u.Resolve(t).(type) {
	case *Var:
		return x == v
	case *Compound:
		for _, a := range x.Args {
			if u.occurs(v, a) {
				return true
			}
		}
	case *Fn:
		for _, p := range x.Params {
			if u.occurs(v, p) {
				return true
			}
		}
		return u.occurs(v, x.Ret)
	}
	return false
}

// Unify binds variables of this unifier so that a and b become equal, and
// reports whether it could. It resolves the head of each side and recurses
// into the structure; nothing is substituted and nothing allocated. On
// failure the bindings made so far stay: a caller that goes on afterwards
// takes a Mark first and calls Undo. Bindings only ever grow between a mark
// and its undo, so a pair that fails to unify fails under every extension
// of the current bindings too. ForAll types must be instantiated first.
func (u *Unifier) Unify(a, b Type) bool {
	a, b = u.Resolve(a), u.Resolve(b)
	if a == b {
		return true
	}
	if av, ok := a.(*Var); ok && av.owner == u {
		return u.bind(av, b)
	}
	if bv, ok := b.(*Var); ok && bv.owner == u {
		return u.bind(bv, a)
	}
	switch x := a.(type) {
	case *Atomic:
		if y, ok := b.(*Atomic); ok && x.Name == y.Name {
			return true
		}
	case *Literal:
		if y, ok := b.(*Literal); ok && x.Value == y.Value {
			return true
		}
	case *Compound:
		y, ok := b.(*Compound)
		if !ok || x.Ctor != y.Ctor || len(x.Args) != len(y.Args) {
			break
		}
		for i := range x.Args {
			if !u.Unify(x.Args[i], y.Args[i]) {
				return false
			}
		}
		return true
	case *Fn:
		y, ok := b.(*Fn)
		if !ok || len(x.Params) != len(y.Params) {
			break
		}
		for i := range x.Params {
			if !u.Unify(x.Params[i], y.Params[i]) {
				return false
			}
		}
		return u.Unify(x.Ret, y.Ret)
	}
	u.failA, u.failB, u.failOccurs = a, b, false
	return false
}

func (u *Unifier) bind(v *Var, t Type) bool {
	if u.occurs(v, t) {
		u.failA, u.failB, u.failOccurs = v, t, true
		return false
	}
	v.ref = t
	u.trail = append(u.trail, v)
	return true
}

// Failure words the last failed Unify for a user.
func (u *Unifier) Failure(p *Printer) string {
	a, b := p.String(u.Substitute(u.failA)), p.String(u.Substitute(u.failB))
	if u.failOccurs {
		return fmt.Sprintf("occurs check: %s in %s", a, b)
	}
	return fmt.Sprintf("cannot unify %s with %s", a, b)
}

// Mark names the current state of the bindings for Undo and Bound.
func (u *Unifier) Mark() int { return len(u.trail) }

// Undo removes every binding made since mark, restoring the state exactly.
func (u *Unifier) Undo(mark int) {
	for _, v := range u.trail[mark:] {
		v.ref = nil
	}
	u.trail = u.trail[:mark]
}

// Bound lists the variables bound since mark, oldest first. The slice is
// the trail's own: valid until the next Unify.
func (u *Unifier) Bound(mark int) []*Var { return u.trail[mark:] }

// renaming is one old-variable-to-fresh-variable pair of an instantiation.
type renaming struct{ from, to *Var }

// Instantiate replaces a scheme's bound variables with fresh ones,
// returning the body and the pending qualifier obligations (paper §4.4
// InstantiateConstraint). Variables free in a declared type are replaced
// too, one fresh variable per instantiation: the declaration may be shared
// by every compile in the process and is never written. A type with no
// variables is returned as it is, after one walk that allocates nothing.
func (u *Unifier) Instantiate(t Type) (Type, []Qual) {
	u.ren = u.ren[:0]
	fa, ok := t.(*ForAll)
	if !ok {
		return u.freshen(t), nil
	}
	for _, v := range fa.Vars {
		u.ren = append(u.ren, renaming{v, u.NewVar(v.Name)})
	}
	body := u.freshen(fa.Body)
	var quals []Qual
	if len(fa.Quals) > 0 {
		quals = make([]Qual, len(fa.Quals))
		for i, q := range fa.Quals {
			quals[i] = Qual{Var: u.freshen(q.Var).(*Var), Class: q.Class}
		}
	}
	return body, quals
}

// freshen rebuilds t with every variable that is not this unifier's own
// replaced by u.ren's image of it, extending u.ren with a fresh variable
// for one it has not seen.
func (u *Unifier) freshen(t Type) Type {
	switch x := t.(type) {
	case *Var:
		if x.owner == u {
			return x
		}
		for _, r := range u.ren {
			if r.from == x {
				return r.to
			}
		}
		nv := u.NewVar(x.Name)
		u.ren = append(u.ren, renaming{x, nv})
		return nv
	case *Compound:
		if args := mapTypes(x.Args, u.freshen); args != nil {
			return &Compound{Ctor: x.Ctor, Args: args}
		}
	case *Fn:
		params, ret := mapTypes(x.Params, u.freshen), u.freshen(x.Ret)
		if params == nil && ret == x.Ret {
			return x
		}
		if params == nil {
			params = x.Params
		}
		return &Fn{Params: params, Ret: ret}
	case *ForAll:
		// A nested scheme keeps its own bound variables.
		n := len(u.ren)
		for _, v := range x.Vars {
			u.ren = append(u.ren, renaming{v, v})
		}
		body := u.freshen(x.Body)
		u.ren = append(u.ren[:n], u.ren[n+len(x.Vars):]...)
		if body != x.Body {
			return &ForAll{Vars: x.Vars, Quals: x.Quals, Body: body}
		}
	}
	return t
}

// FreeVars lists the variables of t in order of first appearance. It does
// not look through bindings: Zonk first.
func FreeVars(t Type) []*Var {
	var out []*Var
	var walk func(Type)
	walk = func(t Type) {
		switch x := t.(type) {
		case *Var:
			for _, v := range out {
				if v == x {
					return
				}
			}
			out = append(out, x)
		case *Compound:
			for _, a := range x.Args {
				walk(a)
			}
		case *Fn:
			for _, p := range x.Params {
				walk(p)
			}
			walk(x.Ret)
		case *ForAll:
			walk(x.Body)
		}
	}
	walk(t)
	return out
}

// Mangle produces the resolved function name used after function resolution
// rewrites calls (paper §4.5: "the call instruction is rewritten to the
// mangled name of the function").
func Mangle(name string, t Type) string {
	var b strings.Builder
	b.WriteString(name)
	var walk func(Type)
	walk = func(t Type) {
		b.WriteByte('_')
		switch x := t.(type) {
		case *Atomic:
			b.WriteString(shortName(x.Name))
		case *Literal:
			fmt.Fprintf(&b, "%d", x.Value)
		case *Compound:
			b.WriteString(x.Ctor)
			for _, a := range x.Args {
				walk(a)
			}
		case *Fn:
			b.WriteString("Fn")
			for _, p := range x.Params {
				walk(p)
			}
			b.WriteString("_to")
			walk(x.Ret)
		case *Var:
			fmt.Fprintf(&b, "v%d", x.ID)
		}
	}
	if fn, ok := t.(*Fn); ok {
		for _, p := range fn.Params {
			walk(p)
		}
	} else {
		walk(t)
	}
	return b.String()
}

func shortName(n string) string {
	switch n {
	case "Integer64":
		return "I64"
	case "Integer32":
		return "I32"
	case "Integer16":
		return "I16"
	case "Integer8":
		return "I8"
	case "UnsignedInteger8":
		return "U8"
	case "UnsignedInteger16":
		return "U16"
	case "UnsignedInteger32":
		return "U32"
	case "UnsignedInteger64":
		return "U64"
	case "Real64":
		return "R64"
	case "Real32":
		return "R32"
	case "ComplexReal64":
		return "C64"
	case "Boolean":
		return "B"
	case "String":
		return "S"
	case "Expression":
		return "E"
	case "Void":
		return "V"
	}
	return n
}

// Equal reports structural equality of two types; a variable equals only
// itself.
func Equal(a, b Type) bool {
	if a == b {
		return true
	}
	switch x := a.(type) {
	case *Atomic:
		y, ok := b.(*Atomic)
		return ok && x.Name == y.Name
	case *Literal:
		y, ok := b.(*Literal)
		return ok && x.Value == y.Value
	case *Compound:
		y, ok := b.(*Compound)
		return ok && x.Ctor == y.Ctor && equalLists(x.Args, y.Args)
	case *Fn:
		y, ok := b.(*Fn)
		return ok && equalLists(x.Params, y.Params) && Equal(x.Ret, y.Ret)
	}
	return false
}

func equalLists(a, b []Type) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// IsGround reports whether t contains no type variables.
func IsGround(t Type) bool {
	switch x := t.(type) {
	case *Var:
		return false
	case *Compound:
		for _, a := range x.Args {
			if !IsGround(a) {
				return false
			}
		}
	case *Fn:
		for _, p := range x.Params {
			if !IsGround(p) {
				return false
			}
		}
		return IsGround(x.Ret)
	case *ForAll:
		return IsGround(x.Body)
	}
	return true
}
