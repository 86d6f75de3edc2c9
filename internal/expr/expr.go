// Package expr implements Wolfram Language expressions (MExprs).
//
// An expression is either an atom (Symbol, Integer, Real, Rational, Complex,
// String) or a Normal expression: a head applied to zero or more arguments,
// written head[arg1, arg2, ...] in the language. Every value in the system —
// programs, data, patterns, types — is an expression, which is what lets the
// compiler treat programs as inert data (the paper's MExpr, §4.2).
//
// All concrete expression types are pointers, so compiler stages can attach
// arbitrary metadata to individual tree nodes through side tables (see Meta).
package expr

import (
	"fmt"
	"math/big"
	"sort"
	"strings"
	"sync"
)

// Expr is a Wolfram Language expression.
type Expr interface {
	// Head returns the head of the expression. For a Normal expression
	// f[x, y] the head is f; for atoms it is the symbol naming the atom's
	// type (Integer, Real, Rational, Complex, String, Symbol).
	Head() Expr
	// String renders the expression in InputForm.
	String() string
	isExpr()
}

// Symbol is an interned named symbol. Two symbols with the same name are the
// same pointer, so symbol identity is pointer identity.
type Symbol struct {
	Name string
}

var (
	symTabMu sync.Mutex
	symTab   = map[string]*Symbol{}
)

// Sym interns and returns the symbol with the given name. The table keeps
// its own copy of a new name: the parser hands it slices of the source, and
// the table lives as long as the process, so keeping the slice would pin a
// served query's whole input.
func Sym(name string) *Symbol {
	symTabMu.Lock()
	defer symTabMu.Unlock()
	if s, ok := symTab[name]; ok {
		return s
	}
	name = strings.Clone(name)
	s := &Symbol{Name: name}
	symTab[name] = s
	return s
}

// Common system symbols, interned once.
var (
	SymSymbol             = Sym("Symbol")
	SymInteger            = Sym("Integer")
	SymReal               = Sym("Real")
	SymRational           = Sym("Rational")
	SymComplex            = Sym("Complex")
	SymString             = Sym("String")
	SymList               = Sym("List")
	SymTrue               = Sym("True")
	SymFalse              = Sym("False")
	SymNull               = Sym("Null")
	SymFunction           = Sym("Function")
	SymSlot               = Sym("Slot")
	SymBlank              = Sym("Blank")
	SymPattern            = Sym("Pattern")
	SymRule               = Sym("Rule")
	SymRuleDelayed        = Sym("RuleDelayed")
	SymHold               = Sym("Hold")
	SymTyped              = Sym("Typed")
	SymModule             = Sym("Module")
	SymBlock              = Sym("Block")
	SymWith               = Sym("With")
	SymSet                = Sym("Set")
	SymSetDelayed         = Sym("SetDelayed")
	SymCompoundExpression = Sym("CompoundExpression")
	SymIndeterminate      = Sym("Indeterminate")
	SymDirectedInfinity   = Sym("DirectedInfinity")
	SymFailed             = Sym("$Failed")
	SymAborted            = Sym("$Aborted")
	SymOverflow           = Sym("Overflow")
)

func (s *Symbol) Head() Expr     { return SymSymbol }
func (s *Symbol) String() string { return s.Name }
func (s *Symbol) isExpr()        {}

// Integer is an arbitrary-precision integer. Values that fit in an int64 are
// stored unboxed; larger values carry a big.Int. The machine/big distinction
// mirrors the interpreter's automatic promotion on overflow (paper §3 F2).
type Integer struct {
	small int64
	big   *big.Int // nil when the value fits in small
}

// FromInt64 returns the Integer with machine value v.
func FromInt64(v int64) *Integer { return &Integer{small: v} }

// FromBig returns an Integer holding v, normalising to machine representation
// when v fits in an int64.
func FromBig(v *big.Int) *Integer {
	if v.IsInt64() {
		return &Integer{small: v.Int64()}
	}
	return &Integer{big: new(big.Int).Set(v)}
}

// IsMachine reports whether the integer fits in an int64.
func (n *Integer) IsMachine() bool { return n.big == nil }

// Int64 returns the machine value. It is only valid when IsMachine is true.
func (n *Integer) Int64() int64 { return n.small }

// Big returns the value as a big.Int (freshly allocated for machine values).
func (n *Integer) Big() *big.Int {
	if n.big != nil {
		return n.big
	}
	return big.NewInt(n.small)
}

// Sign returns -1, 0, or +1 according to the sign of n.
func (n *Integer) Sign() int {
	if n.big != nil {
		return n.big.Sign()
	}
	switch {
	case n.small < 0:
		return -1
	case n.small > 0:
		return 1
	}
	return 0
}

func (n *Integer) Head() Expr { return SymInteger }
func (n *Integer) String() string {
	if n.big != nil {
		return n.big.String()
	}
	return fmt.Sprintf("%d", n.small)
}
func (n *Integer) isExpr() {}

// Real is a machine double-precision real number.
type Real struct {
	V float64
}

// FromFloat returns the Real with value v.
func FromFloat(v float64) *Real { return &Real{V: v} }

func (r *Real) Head() Expr { return SymReal }
func (r *Real) String() string {
	s := fmt.Sprintf("%g", r.V)
	// InputForm reals always carry a decimal point or exponent.
	if !strings.ContainsAny(s, ".eEI") && !strings.Contains(s, "NaN") {
		s += "."
	}
	return s
}
func (r *Real) isExpr() {}

// Rational is an exact ratio of integers in lowest terms with a positive
// denominator. Integer results are never represented as Rational; arithmetic
// constructors normalise (see Ratio).
type Rational struct {
	V *big.Rat
}

// Ratio returns num/den as an exact number: an Integer when the ratio is
// integral, otherwise a Rational in lowest terms. den must be nonzero.
func Ratio(num, den *big.Int) Expr {
	r := new(big.Rat).SetFrac(num, den)
	if r.IsInt() {
		return FromBig(r.Num())
	}
	return &Rational{V: r}
}

func (q *Rational) Head() Expr     { return SymRational }
func (q *Rational) String() string { return q.V.Num().String() + "/" + q.V.Denom().String() }
func (q *Rational) isExpr()        {}

// Complex is a machine complex number with real and imaginary parts.
type Complex struct {
	Re, Im float64
}

// FromComplex returns the Complex with the given parts.
func FromComplex(re, im float64) *Complex { return &Complex{Re: re, Im: im} }

func (c *Complex) Head() Expr { return SymComplex }
func (c *Complex) String() string {
	return fmt.Sprintf("Complex[%s, %s]", (&Real{V: c.Re}).String(), (&Real{V: c.Im}).String())
}
func (c *Complex) isExpr() {}

// String is a character string atom.
type String struct {
	V string
}

// FromString returns the String atom with value v.
func FromString(v string) *String { return &String{V: v} }

func (s *String) Head() Expr     { return SymString }
func (s *String) String() string { return quoteString(s.V) }
func (s *String) isExpr()        {}

func quoteString(v string) string {
	var b strings.Builder
	b.WriteByte('"')
	for _, r := range v {
		switch r {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteRune(r)
		}
	}
	b.WriteByte('"')
	return b.String()
}

// Normal is a non-atomic expression: a head applied to arguments.
type Normal struct {
	head Expr
	args []Expr
}

// New returns the Normal expression head[args...].
func New(head Expr, args ...Expr) *Normal {
	return &Normal{head: head, args: args}
}

// NewS returns the Normal expression Sym(head)[args...].
func NewS(head string, args ...Expr) *Normal {
	return New(Sym(head), args...)
}

// List returns the expression List[elems...], i.e. {elems...}.
func List(elems ...Expr) *Normal { return New(SymList, elems...) }

func (n *Normal) Head() Expr { return n.head }

// Len returns the number of arguments.
func (n *Normal) Len() int { return len(n.args) }

// Arg returns the i-th argument (1-indexed, as in Part).
func (n *Normal) Arg(i int) Expr { return n.args[i-1] }

// Args returns the argument slice. Callers must not mutate it; use WithArgs
// to build a modified copy.
func (n *Normal) Args() []Expr { return n.args }

// WithArgs returns a copy of n with the given arguments.
func (n *Normal) WithArgs(args ...Expr) *Normal { return &Normal{head: n.head, args: args} }

// WithHead returns a copy of n with the given head.
func (n *Normal) WithHead(head Expr) *Normal { return &Normal{head: head, args: n.args} }

func (n *Normal) isExpr() {}

// Booleans converts a Go bool to True/False.
func Bool(b bool) Expr {
	if b {
		return SymTrue
	}
	return SymFalse
}

// IsNormal reports whether e is a Normal expression with the given symbol
// head, returning it if so.
func IsNormal(e Expr, head *Symbol) (*Normal, bool) {
	n, ok := e.(*Normal)
	if !ok {
		return nil, false
	}
	if h, ok := n.head.(*Symbol); ok && h == head {
		return n, true
	}
	return nil, false
}

// IsNormalN is IsNormal with an additional arity check.
func IsNormalN(e Expr, head *Symbol, arity int) (*Normal, bool) {
	n, ok := IsNormal(e, head)
	if !ok || len(n.args) != arity {
		return nil, false
	}
	return n, true
}

// IsAtom reports whether e is an atomic expression.
func IsAtom(e Expr) bool {
	_, ok := e.(*Normal)
	return !ok
}

// TruthValue reports whether e is the symbol True, and whether it is either
// True or False.
func TruthValue(e Expr) (val, isBool bool) {
	s, ok := e.(*Symbol)
	if !ok {
		return false, false
	}
	if s == SymTrue {
		return true, true
	}
	if s == SymFalse {
		return false, true
	}
	return false, false
}

// SameQ reports structural identity of two expressions (the === predicate).
func SameQ(a, b Expr) bool {
	if a == b {
		return true
	}
	switch x := a.(type) {
	case *Symbol:
		return false // symbols are interned; pointer equality above suffices
	case *Integer:
		y, ok := b.(*Integer)
		if !ok {
			return false
		}
		if x.big == nil && y.big == nil {
			return x.small == y.small
		}
		return x.Big().Cmp(y.Big()) == 0
	case *Real:
		y, ok := b.(*Real)
		return ok && x.V == y.V
	case *Rational:
		y, ok := b.(*Rational)
		return ok && x.V.Cmp(y.V) == 0
	case *Complex:
		y, ok := b.(*Complex)
		return ok && x.Re == y.Re && x.Im == y.Im
	case *String:
		y, ok := b.(*String)
		return ok && x.V == y.V
	case *Normal:
		y, ok := b.(*Normal)
		if !ok || len(x.args) != len(y.args) {
			return false
		}
		if !SameQ(x.head, y.head) {
			return false
		}
		for i := range x.args {
			if !SameQ(x.args[i], y.args[i]) {
				return false
			}
		}
		return true
	}
	return false
}

// Hash returns a structural hash consistent with SameQ: FNV-1a over the
// binary encoding (serialize.go), built in a pooled buffer, so hashing
// allocates nothing.
func Hash(e Expr) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	eb := getEncBuf()
	eb.b, _ = appendExpr(eb.b, e, true) // an unencodable node hashes as the prefix before it
	h := uint64(offset64)
	for _, c := range eb.b {
		h ^= uint64(c)
		h *= prime64
	}
	eb.release()
	return h
}

// Length returns the number of arguments of e, or 0 for atoms.
func Length(e Expr) int {
	if n, ok := e.(*Normal); ok {
		return len(n.args)
	}
	return 0
}

// Map applies f to each argument of a Normal expression, returning a new
// expression; atoms are returned unchanged.
func Map(f func(Expr) Expr, e Expr) Expr {
	n, ok := e.(*Normal)
	if !ok {
		return e
	}
	args := make([]Expr, len(n.args))
	for i, a := range n.args {
		args[i] = f(a)
	}
	return &Normal{head: n.head, args: args}
}

// Walk calls f on e and every subexpression (head and arguments) in
// depth-first preorder. If f returns false the subtree is not descended.
func Walk(e Expr, f func(Expr) bool) {
	if !f(e) {
		return
	}
	if n, ok := e.(*Normal); ok {
		Walk(n.head, f)
		for _, a := range n.args {
			Walk(a, f)
		}
	}
}

// Replace applies f bottom-up to every node, rebuilding the tree with each
// node replaced by f's result.
func Replace(e Expr, f func(Expr) Expr) Expr {
	if n, ok := e.(*Normal); ok {
		head := Replace(n.head, f)
		args := make([]Expr, len(n.args))
		changed := !SameQ(head, n.head)
		for i, a := range n.args {
			args[i] = Replace(a, f)
			if args[i] != a {
				changed = true
			}
		}
		if changed {
			e = &Normal{head: head, args: args}
		}
	}
	return f(e)
}

// SymbolNames returns the sorted names of all interned symbols; used by
// tests and diagnostics.
func SymbolNames() []string {
	symTabMu.Lock()
	defer symTabMu.Unlock()
	names := make([]string, 0, len(symTab))
	for n := range symTab {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Meta is a metadata side table mapping expression nodes to key/value
// properties. The compiler uses it to attach provenance, binding, and type
// information to AST nodes without modifying the tree (paper §4.2).
type Meta struct {
	m map[Expr]map[string]any
}

// NewMeta returns an empty metadata table.
func NewMeta() *Meta { return &Meta{m: map[Expr]map[string]any{}} }

// Set attaches key=val to node e.
func (t *Meta) Set(e Expr, key string, val any) {
	props := t.m[e]
	if props == nil {
		props = map[string]any{}
		t.m[e] = props
	}
	props[key] = val
}

// Get returns the value for key on node e, if present.
func (t *Meta) Get(e Expr, key string) (any, bool) {
	v, ok := t.m[e][key]
	return v, ok
}

// Copy copies all properties of src onto dst. Used when a transformation
// replaces a node but wants to keep its metadata.
func (t *Meta) Copy(dst, src Expr) {
	for k, v := range t.m[src] {
		t.Set(dst, k, v)
	}
}
