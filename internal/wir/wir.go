// Package wir implements the Wolfram compiler IR (paper §4.3): an SSA IR
// inspired by LLVM where a sequence of instructions forms a basic block, a
// DAG of basic blocks forms a function module, and a collection of function
// modules forms a program module. The same representation serves both the
// untyped WIR and, once every value carries a type annotation, the typed
// TWIR (§4.5). Lowering goes straight to SSA form — there is no
// stack-slot/mem2reg round trip — and arbitrary metadata (including the
// originating MExpr) can be attached to any node.
package wir

import (
	"fmt"
	"slices"
	"strings"

	"wolfc/internal/expr"
	"wolfc/internal/types"
)

// Value is an SSA value: an instruction result, a constant, a parameter, or
// a function reference.
type Value interface {
	// Type returns the value's annotated type; nil while the IR is untyped.
	Type() types.Type
	// Name renders the operand for the textual form.
	Name() string
	isValue()
}

// Const is a literal constant. Expr holds the literal (numbers, strings,
// booleans, whole constant arrays — §6 PrimeQ's seed table compiles to one
// Const). Ty is nil until inference runs unless the literal form forces it.
type Const struct {
	Expr expr.Expr
	Ty   types.Type
}

func (c *Const) Type() types.Type { return c.Ty }
func (c *Const) Name() string {
	s := expr.InputForm(c.Expr)
	if len(s) > 24 {
		s = s[:21] + "..."
	}
	if c.Ty != nil {
		return fmt.Sprintf("%s:%s", s, c.Ty)
	}
	return s
}
func (c *Const) isValue() {}

// Param is a function parameter.
type Param struct {
	Sym     *expr.Symbol
	Index   int
	Ty      types.Type
	Capture bool // true for closure-capture parameters appended by lowering
}

func (p *Param) Type() types.Type { return p.Ty }
func (p *Param) Name() string     { return "%" + p.Sym.Name }
func (p *Param) isValue()         {}

// FuncRef references another function in the module by name.
type FuncRef struct {
	Fn *Function
	Ty types.Type
}

func (f *FuncRef) Type() types.Type { return f.Ty }
func (f *FuncRef) Name() string     { return "@" + f.Fn.Name }
func (f *FuncRef) isValue()         {}

// Op enumerates instruction kinds.
type Op uint8

const (
	OpCall         Op = iota // Callee(Args...)
	OpCallIndirect           // Args[0] is the function value; rest are arguments
	OpClosure                // make a closure over FuncRef Args[0] capturing Args[1:]
	OpPhi                    // one argument per predecessor, in Preds order
	OpBranch                 // unconditional jump to Targets[0]
	OpCondBranch             // Args[0] cond; Targets[0] then, Targets[1] else
	OpReturn                 // Args[0] optional result
	OpAbortCheck             // poll the abort flag (inserted by passes, F3)
)

// Instr is one SSA instruction. Instructions are values (their result).
type Instr struct {
	IDNum   int
	Op      Op
	Callee  string // OpCall: unresolved function name, later the mangled name
	Args    []Value
	Targets []*Block
	Block   *Block
	Ty      types.Type

	// Native is filled by function resolution for primitive callees.
	Native string
	// ResolvedFn is filled by function resolution for compiled callees.
	ResolvedFn *Function

	// Props carries arbitrary metadata; "mexpr" holds the source
	// expression for error reporting and debug info (paper §4.3). An
	// instruction holds a handful of keys, so they are a list, not a map.
	Props []Meta
}

// Meta is one metadata entry of an instruction.
type Meta struct {
	Key string
	Val any
}

func (i *Instr) Type() types.Type { return i.Ty }
func (i *Instr) Name() string     { return fmt.Sprintf("%%%d", i.IDNum) }
func (i *Instr) isValue()         {}

// SetProp attaches metadata to the instruction.
func (i *Instr) SetProp(key string, v any) {
	for k := range i.Props {
		if i.Props[k].Key == key {
			i.Props[k].Val = v
			return
		}
	}
	if i.Props == nil {
		i.Props = make([]Meta, 0, 4) // the source, the overload, the call type
	}
	i.Props = append(i.Props, Meta{key, v})
}

// Prop reads metadata.
func (i *Instr) Prop(key string) (any, bool) {
	for _, m := range i.Props {
		if m.Key == key {
			return m.Val, true
		}
	}
	return nil, false
}

// NativeName resolves a call's primitive id: the Native field when function
// resolution or a pass filled it, else the overload chosen by inference.
func (i *Instr) NativeName() string {
	if i.Native != "" {
		return i.Native
	}
	if d, ok := i.Prop("overload"); ok {
		return d.(*types.FuncDef).Native
	}
	return ""
}

// CallKind classifies how a call instruction's target is resolved:
// "indirect" (through a function value), "direct" (another function in the
// same module), "registry" (a separately compiled unit via the function
// registry), "native" (a runtime primitive), or "kernel" (a boxed
// KernelApply escape to the interpreter). Returns "" for non-calls.
func (i *Instr) CallKind() string {
	switch i.Op {
	case OpCallIndirect:
		return "indirect"
	case OpCall:
		if i.ResolvedFn != nil {
			return "direct"
		}
		if _, ok := i.Prop("regcall"); ok {
			return "registry"
		}
		if i.Callee == "Native`KernelApply" {
			return "kernel"
		}
		if i.Native != "" {
			return "native"
		}
		if b := i.Block; b != nil && b.Fn != nil && b.Fn.Module != nil && b.Fn.Module.FuncByName(i.Callee) != nil {
			// Bound by name, as the backends do where no pass recorded
			// ResolvedFn (the baseline configuration runs none).
			return "direct"
		}
		return "unresolved"
	}
	return ""
}

// IsTerminator reports whether the instruction ends a block.
func (i *Instr) IsTerminator() bool {
	switch i.Op {
	case OpBranch, OpCondBranch, OpReturn:
		return true
	}
	return false
}

// Block is a basic block.
type Block struct {
	IDNum  int
	Label  string
	Phis   []*Instr
	Instrs []*Instr // body; the last instruction is the terminator
	Preds  []*Block
	Fn     *Function

	// AbortInhibit marks blocks lowered inside a Native`AbortInhibit
	// region (paper §6): the abort-insertion pass skips them.
	AbortInhibit bool

	sealed         bool
	incompletePhis map[*expr.Symbol]*Instr
}

// Term returns the block terminator, or nil if the block is unfinished.
func (b *Block) Term() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	last := b.Instrs[len(b.Instrs)-1]
	if last.IsTerminator() {
		return last
	}
	return nil
}

// Succs returns the successor blocks.
func (b *Block) Succs() []*Block {
	t := b.Term()
	if t == nil {
		return nil
	}
	return t.Targets
}

// PredIndex returns p's position in b's predecessor list, -1 when p is not a
// predecessor.
func (b *Block) PredIndex(p *Block) int {
	return slices.Index(b.Preds, p)
}

// Function is a function module: a DAG of basic blocks.
type Function struct {
	Name   string
	Params []*Param
	Blocks []*Block
	RetTy  types.Type
	Module *Module
	nextID int
	// TypeAnnotations records explicit Typed[] constraints gathered during
	// lowering, consumed by inference.
	TypeAnnotations []Annotation
	// Props carries function-level metadata (inline hints etc.).
	Props map[string]any
}

// Annotation pins a value to a declared type.
type Annotation struct {
	Val Value
	Ty  types.Type
}

// Each calls do on every phi and instruction of f, block by block.
func (f *Function) Each(do func(*Instr)) {
	for _, b := range f.Blocks {
		for _, phi := range b.Phis {
			do(phi)
		}
		for _, in := range b.Instrs {
			do(in)
		}
	}
}

// Entry returns the entry block.
func (f *Function) Entry() *Block { return f.Blocks[0] }

// FnType returns the function's (current) type.
func (f *Function) FnType() *types.Fn {
	ps := make([]types.Type, len(f.Params))
	for i, p := range f.Params {
		ps[i] = p.Ty
	}
	return &types.Fn{Params: ps, Ret: f.RetTy}
}

// SetProp attaches function-level metadata.
func (f *Function) SetProp(key string, v any) {
	if f.Props == nil {
		f.Props = map[string]any{}
	}
	f.Props[key] = v
}

// NewBlock appends a fresh block.
func (f *Function) NewBlock(label string) *Block {
	b := &Block{IDNum: len(f.Blocks), Label: label, Fn: f}
	f.Blocks = append(f.Blocks, b)
	return b
}

func (f *Function) newInstr(op Op) *Instr {
	f.nextID++
	return &Instr{IDNum: f.nextID, Op: op}
}

// Module is a program module: a collection of functions plus metadata.
type Module struct {
	Funcs []*Function
	// Typed reports whether inference has annotated every value (TWIR).
	Typed bool
	Props map[string]any
}

// Main returns the module's entry function.
func (m *Module) Main() *Function {
	for _, f := range m.Funcs {
		if f.Name == "Main" {
			return f
		}
	}
	if len(m.Funcs) > 0 {
		return m.Funcs[0]
	}
	return nil
}

// FuncByName finds a function by name.
func (m *Module) FuncByName(name string) *Function {
	for _, f := range m.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// Adopt splices sub's functions into m under name and returns sub's entry
// function, which becomes name; each of its other functions becomes
// name`f. Calls that name name then bind to it as a function of m.
func (m *Module) Adopt(sub *Module, name string) *Function {
	entry := sub.Main()
	for _, f := range sub.Funcs {
		if f == entry {
			f.Name = name
		} else {
			f.Name = name + "`" + f.Name
		}
		f.Module = m
		m.Funcs = append(m.Funcs, f)
	}
	return entry
}

// NewFunction appends an empty function with an entry block.
func (m *Module) NewFunction(name string) *Function {
	f := &Function{Name: name, Module: m}
	m.Funcs = append(m.Funcs, f)
	f.NewBlock("start")
	return f
}

// --- textual form (paper §A.6: CompileToIR[...]["toString"]) ---

// String renders the module.
func (m *Module) String() string {
	var b strings.Builder
	for i, f := range m.Funcs {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(f.String())
	}
	return b.String()
}

// String renders one function module.
func (f *Function) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s::Information={\"ArgumentAlias\"->False, \"AbortHandling\"->%v}\n",
		f.Name, f.propBool("AbortHandling"))
	fmt.Fprintf(&b, "%s", f.Name)
	if f.Module != nil && f.Module.Typed {
		var ps []string
		for _, p := range f.Params {
			ps = append(ps, typeStr(p.Ty))
		}
		fmt.Fprintf(&b, " : (%s)->%s", strings.Join(ps, ", "), typeStr(f.RetTy))
	}
	b.WriteByte('\n')
	for _, blk := range f.Blocks {
		fmt.Fprintf(&b, "%s(%d):\n", blk.Label, blk.IDNum+1)
		for _, phi := range blk.Phis {
			b.WriteString("  " + phi.render() + "\n")
		}
		for _, in := range blk.Instrs {
			b.WriteString("  " + in.render() + "\n")
		}
	}
	return b.String()
}

func (f *Function) propBool(key string) bool {
	v, ok := f.Props[key]
	if !ok {
		return false
	}
	b, _ := v.(bool)
	return b
}

func typeStr(t types.Type) string {
	if t == nil {
		return "?"
	}
	return t.String()
}

func (i *Instr) render() string {
	args := func(vs []Value) string {
		parts := make([]string, len(vs))
		for j, v := range vs {
			parts[j] = v.Name()
		}
		return strings.Join(parts, ", ")
	}
	res := i.Name()
	if i.Ty != nil {
		res += ":" + i.Ty.String()
	}
	switch i.Op {
	case OpCall:
		callee := i.Callee
		if i.Native != "" {
			callee = fmt.Sprintf("Native`PrimitiveFunction[%s]", i.Native)
		}
		return fmt.Sprintf("%s = Call %s [%s]", res, callee, args(i.Args))
	case OpCallIndirect:
		return fmt.Sprintf("%s = CallIndirect %s [%s]", res, i.Args[0].Name(), args(i.Args[1:]))
	case OpClosure:
		return fmt.Sprintf("%s = Closure %s [%s]", res, i.Args[0].Name(), args(i.Args[1:]))
	case OpPhi:
		parts := make([]string, len(i.Args))
		for j, v := range i.Args {
			pred := "?"
			if j < len(i.Block.Preds) {
				pred = fmt.Sprintf("%d", i.Block.Preds[j].IDNum+1)
			}
			parts[j] = fmt.Sprintf("[%s, %s]", v.Name(), pred)
		}
		return fmt.Sprintf("%s = Phi %s", res, strings.Join(parts, " "))
	case OpBranch:
		return fmt.Sprintf("Jump %s(%d)", i.Targets[0].Label, i.Targets[0].IDNum+1)
	case OpCondBranch:
		return fmt.Sprintf("Branch %s ? %s(%d) : %s(%d)", i.Args[0].Name(),
			i.Targets[0].Label, i.Targets[0].IDNum+1,
			i.Targets[1].Label, i.Targets[1].IDNum+1)
	case OpReturn:
		if len(i.Args) == 0 {
			return "Return"
		}
		return "Return " + i.Args[0].Name()
	case OpAbortCheck:
		return "AbortCheck"
	}
	return res + " = ?"
}

// Lint checks SSA invariants: every block terminated exactly once, phi
// arity matches predecessor count, every instruction that names its block
// names the one it is in, and every instruction operand is defined in the
// module. Definitions are looked up by IDNum, so two instructions of one
// function that are both used must not share an id. The paper keeps an IR
// linter for pass authors (§4.3 fn 3).
func (m *Module) Lint() error {
	for _, f := range m.Funcs {
		n := 0
		f.Each(func(in *Instr) { n = max(n, in.IDNum+1) })
		defined := make([]*Instr, n)
		f.Each(func(in *Instr) {
			if in.IDNum >= 0 {
				defined[in.IDNum] = in
			}
		})
		for _, b := range f.Blocks {
			if b.Term() == nil {
				return fmt.Errorf("lint %s: block %s(%d) not terminated", f.Name, b.Label, b.IDNum+1)
			}
			for idx, in := range b.Instrs {
				if in.IsTerminator() && idx != len(b.Instrs)-1 {
					return fmt.Errorf("lint %s: terminator mid-block in %s", f.Name, b.Label)
				}
				// A pass that moves an instruction moves its Block with it:
				// "defined in this block" is read from there.
				if in.Block != nil && in.Block != b {
					return fmt.Errorf("lint %s: %%%d sits in %s and says it is in %s", f.Name, in.IDNum, b.Label, in.Block.Label)
				}
			}
			for _, phi := range b.Phis {
				if len(phi.Args) != len(b.Preds) {
					return fmt.Errorf("lint %s: phi arity %d != %d preds in %s",
						f.Name, len(phi.Args), len(b.Preds), b.Label)
				}
			}
			check := func(in *Instr) error {
				for _, a := range in.Args {
					switch v := a.(type) {
					case *Instr:
						if v.IDNum < 0 || v.IDNum >= len(defined) || defined[v.IDNum] != v {
							return fmt.Errorf("lint %s: use of undefined %%%d in %s", f.Name, v.IDNum, b.Label)
						}
					case *Param:
						// Parameters of other functions would be a bug.
						if !slices.Contains(f.Params, v) {
							return fmt.Errorf("lint %s: foreign parameter %s", f.Name, v.Name())
						}
					}
				}
				return nil
			}
			for _, phi := range b.Phis {
				if err := check(phi); err != nil {
					return err
				}
			}
			for _, in := range b.Instrs {
				if err := check(in); err != nil {
					return err
				}
			}
		}
	}
	return nil
}
