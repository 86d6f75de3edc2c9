package passes

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"wolfc/internal/expr"
	"wolfc/internal/runtime"
	"wolfc/internal/types"
	"wolfc/internal/wir"
)

// Options controls the pass pipeline, mirroring the FunctionCompile options
// in the paper's artifact (§A.6: AbortHandling, LLVMOptimization, ...).
type Options struct {
	// AbortHandling inserts abort checks at loop headers and prologues
	// (F3). Default on; Native`AbortInhibit and benchmarks turn it off.
	AbortHandling bool
	// InlinePolicy is "auto" (size-bounded), "all", or "none" (§6 reports
	// a 10x Mandelbrot slowdown with inlining disabled).
	InlinePolicy string
	// OptimizationLevel 0 disables the optimisation passes; 1 enables
	// folding, CSE, and DCE; 2 adds the loop pipeline (LICM and strength
	// reduction over natural loops, §4.5).
	OptimizationLevel int
	// DisableCopyElision forces the conservative mutation protocol (the
	// QSort copy ablation).
	DisableCopyElision bool
}

// DefaultOptions returns the production configuration.
func DefaultOptions() Options {
	return Options{AbortHandling: true, InlinePolicy: "auto", OptimizationLevel: 2}
}

// ResolveIndirectCalls converts indirect calls through known function
// values into direct calls (function resolution, §4.5): a CallIndirect on a
// FuncRef becomes a direct call; one on a Closure becomes a direct call
// with the captured values appended.
func ResolveIndirectCalls(mod *wir.Module) {
	for _, f := range mod.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				switch in.Op {
				case wir.OpCallIndirect:
					switch fv := in.Args[0].(type) {
					case *wir.FuncRef:
						in.Op = wir.OpCall
						in.Callee = fv.Fn.Name
						in.ResolvedFn = fv.Fn
						in.Args = in.Args[1:]
					case *wir.Instr:
						if fv.Op == wir.OpClosure {
							ref := fv.Args[0].(*wir.FuncRef)
							captures := fv.Args[1:]
							in.Op = wir.OpCall
							in.Callee = ref.Fn.Name
							in.ResolvedFn = ref.Fn
							in.Args = append(append([]wir.Value{}, in.Args[1:]...), captures...)
						}
					}
				case wir.OpCall:
					if in.ResolvedFn == nil {
						if target := mod.FuncByName(in.Callee); target != nil {
							in.ResolvedFn = target
						}
					}
				}
			}
		}
	}
}

// instrPure reports whether the instruction can be removed when unused.
func instrPure(in *wir.Instr) bool {
	switch in.Op {
	case wir.OpCall:
		if in.ResolvedFn != nil {
			return false // unknown callee purity
		}
		if d, ok := in.Prop("overload"); ok {
			def := d.(*types.FuncDef)
			return def.Impl == nil && types.NativeEffect(def.Native, in.Ty) != types.Effectful
		}
		return in.Callee == "Native`List"
	case wir.OpClosure, wir.OpPhi:
		return true
	}
	return false
}

// DCE removes unused pure instructions and phis. Removing one lowers its
// operands' use counts, and an operand whose count reaches zero goes next.
// Reports whether anything changed.
func DCE(f *wir.Function) bool {
	count, _ := uses(f)
	var work []*wir.Instr
	kill := func(in *wir.Instr) {
		if in.IDNum < len(count) && count[in.IDNum] == 0 && (in.Op == wir.OpPhi || !in.IsTerminator() && instrPure(in)) {
			count[in.IDNum] = -1 // removed
			work = append(work, in)
		}
	}
	f.Each(kill)
	if len(work) == 0 {
		return false
	}
	for len(work) > 0 {
		in := work[len(work)-1]
		work = work[:len(work)-1]
		for _, a := range in.Args {
			if x, ok := a.(*wir.Instr); ok && x.IDNum < len(count) {
				count[x.IDNum]--
				kill(x)
			}
		}
	}
	dead := func(in *wir.Instr) bool { return count[in.IDNum] < 0 }
	for _, b := range f.Blocks {
		b.Phis, b.Instrs = slices.DeleteFunc(b.Phis, dead), slices.DeleteFunc(b.Instrs, dead)
	}
	return true
}

// constValue extracts a Go scalar from a Const for folding.
func constValue(v wir.Value) (any, bool) {
	c, ok := v.(*wir.Const)
	if !ok {
		return nil, false
	}
	switch x := c.Expr.(type) {
	case *expr.Integer:
		if x.IsMachine() {
			return x.Int64(), true
		}
	case *expr.Real:
		return x.V, true
	case *expr.Complex:
		return complex(x.Re, x.Im), true
	case *expr.Symbol:
		if b, isBool := expr.TruthValue(x); isBool {
			return b, true
		}
	}
	return nil, false
}

// FoldConstants evaluates the calls of Pure and Throws scalar natives whose
// operands are all constants by calling the native's runtime function
// (sparse conditional constant propagation's folding half, §4.5), plus
// algebraic peepholes: SameQ[b, True] is b (the residue of the And/Or
// macro desugaring), and Not[Not[b]] is b. A call reads its operands through
// the replacements made before it, so a chain folds in one sweep. Reports
// whether anything changed.
func FoldConstants(f *wir.Function) bool {
	var sub wir.Subst
	changed := false
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op != wir.OpCall || in.Ty == nil {
				continue
			}
			d, ok := in.Prop("overload")
			if !ok {
				continue
			}
			def := d.(*types.FuncDef)
			if def.Impl != nil || types.NativeEffect(def.Native, in.Ty) == types.Effectful {
				continue
			}
			sub.Args(in)
			out, ok := peephole(def.Native, in, &sub)
			if !ok {
				out, ok = foldScalar(in)
			}
			if ok {
				sub.Replace(in, out)
				changed = true
			}
		}
	}
	sub.Apply(f)
	return changed
}

// peephole simplifies boolean identities without needing all-constant
// operands.
func peephole(native string, in *wir.Instr, sub *wir.Subst) (wir.Value, bool) {
	isTrueConst := func(v wir.Value) bool {
		cv, _ := constValue(v)
		return cv == true
	}
	switch native {
	case "sameq_bool":
		if isTrueConst(in.Args[1]) {
			return in.Args[0], true
		}
		if isTrueConst(in.Args[0]) {
			return in.Args[1], true
		}
	case "not":
		// Not[Not[x]] -> x.
		if inner, ok := in.Args[0].(*wir.Instr); ok && inner.Op == wir.OpCall {
			if d, ok := inner.Prop("overload"); ok && d.(*types.FuncDef).Native == "not" {
				return sub.Of(inner.Args[0]), true
			}
		}
	}
	return nil, false
}

// ScalarOf returns the runtime function of in's native at in's operand and
// result kinds (runtime.ScalarOf), or nil: the function the folder calls and
// the closure backend builds an evaluator around.
func ScalarOf(in *wir.Instr) *runtime.Scalar {
	if len(in.Args) > 2 || in.Ty == nil {
		return nil
	}
	var kinds [2]runtime.Kind
	for i, a := range in.Args {
		if a.Type() == nil {
			return nil
		}
		kinds[i] = runtime.KindOf(a.Type())
	}
	return runtime.ScalarOf(in.NativeName(), runtime.KindOf(in.Ty), kinds[:len(in.Args)]...)
}

// foldScalar calls in's runtime function on its constant operands. A call
// that throws (an overflow, a zero divisor) is not folded: it throws at run
// time, where the interpreter fallback takes it.
func foldScalar(in *wir.Instr) (out wir.Value, ok bool) {
	for _, a := range in.Args {
		if _, ok := a.(*wir.Const); !ok {
			return nil, false
		}
	}
	s := ScalarOf(in)
	if s == nil {
		return nil, false
	}
	args := make([]any, len(in.Args))
	for i, a := range in.Args {
		v, ok := constValue(a)
		if !ok || valueKind(v) != s.Args[i] {
			return nil, false
		}
		args[i] = v
	}
	defer func() {
		if r := recover(); r != nil {
			if _, thrown := r.(*runtime.Exception); !thrown {
				panic(r)
			}
			out, ok = nil, false
		}
	}()
	var e expr.Expr
	switch v := s.Call(args).(type) {
	case int64:
		e = expr.FromInt64(v)
	case float64:
		e = expr.FromFloat(v)
	case complex128:
		e = expr.FromComplex(real(v), imag(v))
	case bool:
		e = expr.Bool(v)
	}
	return &wir.Const{Expr: e, Ty: in.Ty}, true
}

// valueKind is the runtime kind of a constant's Go value.
func valueKind(v any) runtime.Kind {
	switch v.(type) {
	case int64:
		return runtime.KI64
	case float64:
		return runtime.KR64
	case complex128:
		return runtime.KC64
	case bool:
		return runtime.KBool
	}
	return runtime.KObj
}

// SimplifyBranches converts conditional branches on constants into jumps
// (dead-branch deletion, §4.3/§4.5). Unreachable blocks are removed by
// RemoveUnreachable afterwards. Reports whether anything changed.
func SimplifyBranches(f *wir.Function) bool {
	changed := false
	for _, b := range f.Blocks {
		t := b.Term()
		if t == nil || t.Op != wir.OpCondBranch {
			continue
		}
		v, ok := constValue(t.Args[0])
		if !ok {
			continue
		}
		cond, ok := v.(bool)
		if !ok {
			continue
		}
		taken, dead := t.Targets[0], t.Targets[1]
		if !cond {
			taken, dead = dead, taken
		}
		// Rewrite to an unconditional branch and fix the dead target's
		// pred list and phis.
		t.Op = wir.OpBranch
		t.Args = nil
		t.Targets = []*wir.Block{taken}
		removePred(dead, b)
		changed = true
	}
	return changed
}

// removePred deletes pred from b's predecessor list, dropping the matching
// phi operands.
func removePred(b *wir.Block, pred *wir.Block) {
	i := b.PredIndex(pred)
	if i < 0 {
		return
	}
	b.Preds = append(b.Preds[:i], b.Preds[i+1:]...)
	for _, phi := range b.Phis {
		if i < len(phi.Args) {
			phi.Args = append(phi.Args[:i], phi.Args[i+1:]...)
		}
	}
}

// RemoveUnreachable deletes CFG-unreachable blocks module-wide, fixing
// predecessor lists and phis, and simplifies single-operand phis.
func RemoveUnreachable(mod *wir.Module) {
	for _, f := range mod.Funcs {
		renumber(f)
		// A successor that is not one of f's blocks is ignored (the linter
		// reports it).
		seen := make([]bool, len(f.Blocks))
		var reach func(b *wir.Block)
		reach = func(b *wir.Block) {
			if i := b.IDNum; i >= 0 && i < len(seen) && f.Blocks[i] == b && !seen[i] {
				seen[i] = true
				for _, s := range b.Succs() {
					reach(s)
				}
			}
		}
		reach(f.Entry())
		f.Blocks = slices.DeleteFunc(f.Blocks, func(b *wir.Block) bool {
			if seen[b.IDNum] {
				return false
			}
			for _, s := range b.Succs() {
				removePred(s, b)
			}
			return true
		})
		renumber(f)
		// Single-pred phis collapse to their operand.
		var sub wir.Subst
		for _, b := range f.Blocks {
			b.Phis = slices.DeleteFunc(b.Phis, func(phi *wir.Instr) bool {
				if len(phi.Args) == 1 {
					sub.Replace(phi, phi.Args[0])
				}
				return len(phi.Args) == 1
			})
		}
		sub.Apply(f)
	}
}

// FuseBlocks merges each block with its unique successor when that
// successor has no other predecessors (basic block fusion, §4.3), in one
// pass over the blocks: a block absorbs the chain below it, and a merge
// changes no other block's candidacy. Phis in the successor collapse to
// their single operand first.
func FuseBlocks(mod *wir.Module) bool {
	changed := false
	for _, f := range mod.Funcs {
		var sub wir.Subst
		for _, b := range f.Blocks {
			if b.IDNum < 0 {
				continue // fused into its predecessor
			}
			for t := b.Term(); t != nil && t.Op == wir.OpBranch; t = b.Term() {
				s := t.Targets[0]
				if s == b || len(s.Preds) != 1 || s.Preds[0] != b {
					break
				}
				// Single-pred phis are trivial.
				for _, phi := range s.Phis {
					if len(phi.Args) == 1 {
						sub.Replace(phi, phi.Args[0])
					}
				}
				s.Phis = nil
				// Splice: drop b's terminator, append s's instructions.
				b.Instrs = b.Instrs[:len(b.Instrs)-1]
				for _, in := range s.Instrs {
					in.Block = b
					b.Instrs = append(b.Instrs, in)
				}
				// Successors of s now have b as the predecessor.
				if st := b.Term(); st != nil {
					for _, succ := range st.Targets {
						if i := succ.PredIndex(s); i >= 0 {
							succ.Preds[i] = b
						}
					}
				}
				s.IDNum = -1 // removed below
				changed = true
			}
		}
		f.Blocks = slices.DeleteFunc(f.Blocks, func(b *wir.Block) bool { return b.IDNum < 0 })
		renumber(f)
		sub.Apply(f)
	}
	return changed
}

// CSE performs dominator-scoped common subexpression elimination over pure
// calls (§4.5 lists CSE among the TWIR optimisations), walking the dominator
// tree depth first. A call is keyed with its operands read through the
// replacements made above it. Reports whether anything changed.
func CSE(f *wir.Function) bool {
	keyed := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if cseCandidate(in) {
				keyed++
			}
		}
	}
	if keyed < 2 {
		return false // nothing to be common with
	}
	cfg := Analyze(f)
	type def struct {
		in *wir.Instr
		b  int
	}
	avail := make(map[cseKey]def, keyed)
	var names cseNames
	var sub wir.Subst
	changed := false
	var walk func(b int)
	walk = func(b int) {
		for _, in := range cfg.Blocks[b].Instrs {
			if !cseCandidate(in) {
				continue
			}
			sub.Args(in)
			key := names.key(in)
			// An entry whose block does not dominate b is left from a subtree
			// the walk has finished, and is overwritten.
			if prev, ok := avail[key]; ok && cfg.Dominates(prev.b, b) {
				sub.Replace(in, prev.in)
				changed = true
				continue
			}
			avail[key] = def{in, b}
		}
		for k := cfg.Kid[b]; k >= 0; k = cfg.Sib[k] {
			walk(k)
		}
	}
	walk(0)
	if changed {
		sub.Apply(f)
		DCE(f)
	}
	return changed
}

// cseCandidate reports whether CSE keys in: a typed pure call.
func cseCandidate(in *wir.Instr) bool {
	return in.Op == wir.OpCall && in.Ty != nil && instrPure(in)
}

// cseKey is what a pure call computes: its target and its operands as kind
// and number pairs, the first four in one block of memory to hash.
type cseKey struct {
	callee, native string
	def            *types.FuncDef
	args           [8]uint64
	more           string
}

// cseNames numbers what has no number of its own: constants by their binary
// encoding (each expression encoded once) and functions by name. Its maps are
// made when first written.
type cseNames struct {
	of    map[expr.Expr]uint64
	byKey map[string]uint64
}

func (cn *cseNames) id(key string) uint64 {
	id, ok := cn.byKey[key]
	if !ok {
		if cn.byKey == nil {
			cn.byKey = map[string]uint64{}
		}
		id = uint64(len(cn.byKey))
		cn.byKey[key] = id
	}
	return id
}

// operand numbers an instruction by id, a parameter by index, a machine
// integer or real by its bits, and anything else by cn.
func (cn *cseNames) operand(a wir.Value) (kind, n uint64) {
	switch v := a.(type) {
	case *wir.Instr:
		return 1, uint64(v.IDNum)
	case *wir.Param:
		return 2, uint64(v.Index)
	case *wir.FuncRef:
		return 3, cn.id("@" + v.Fn.Name) // no encoding starts with '@'
	case *wir.Const:
		if x, ok := v.Expr.(*expr.Integer); ok && x.IsMachine() {
			return 4, uint64(x.Int64())
		} else if x, ok := v.Expr.(*expr.Real); ok {
			return 5, math.Float64bits(x.V)
		}
		if _, ok := cn.of[v.Expr]; !ok {
			// Every expression a constant can hold encodes, and a
			// Builder's Write cannot fail.
			var b strings.Builder
			_ = expr.Encode(&b, v.Expr)
			if cn.of == nil {
				cn.of = map[expr.Expr]uint64{}
			}
			cn.of[v.Expr] = cn.id(b.String())
		}
		return 3, cn.of[v.Expr]
	}
	return 0, 0
}

func (cn *cseNames) key(in *wir.Instr) cseKey {
	k := cseKey{callee: in.Callee, native: in.Native}
	if d, ok := in.Prop("overload"); ok {
		k.def = d.(*types.FuncDef)
	}
	for i, a := range in.Args {
		kind, n := cn.operand(a)
		if 2*i < len(k.args) {
			k.args[2*i], k.args[2*i+1] = kind, n
		} else {
			k.more += fmt.Sprintf("|%d:%d", kind, n)
		}
	}
	return k
}

// InsertAbortChecks places an abort check in each function prologue and at
// every loop header (paper §4.5: checks at loop heads avoid inhibiting
// straight-line optimisation; prologue checks cover recursion).
func InsertAbortChecks(mod *wir.Module) {
	for _, f := range mod.Funcs {
		cfg := Analyze(f)
		insert := func(b *wir.Block) {
			in := &wir.Instr{Op: wir.OpAbortCheck, Block: b}
			b.Instrs = append([]*wir.Instr{in}, b.Instrs...)
		}
		insert(f.Entry())
		for i, h := range cfg.Header {
			if h && !cfg.Blocks[i].AbortInhibit { // Native`AbortInhibit region (§6)
				insert(cfg.Blocks[i])
			}
		}
		f.SetProp("AbortHandling", true)
	}
}
