package passes

import (
	"math"
	"strconv"
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

// Run applies the full pass pipeline to a typed module. It is the
// uninstrumented entry point; callers that want per-pass timing, trip
// counts, or between-pass SSA verification build a Context and use
// RunPipeline (see manager.go).
func Run(mod *wir.Module, env *types.Env, opts Options) error {
	return RunPipeline(mod, &Context{Env: env, Opts: opts})
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

// pureNative reports whether a native primitive may be removed or
// deduplicated freely. Mutating, allocating-stateful, random, and
// engine-calling natives are effectful.
func pureNative(native string) bool {
	switch native {
	case "", "setpart_1", "setpart_2", "setpart_unsafe_1", "setpart_unsafe_2",
		"memory_acquire", "memory_release", "random_real01",
		"random_real_range", "random_int_range", "kernel_call",
		"expr_binary_plus", "expr_binary_times", "expr_binary_power":
		return false
	}
	return true
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
			if def.Impl != nil {
				return false
			}
			return pureNative(def.Native)
		}
		switch in.Callee {
		case "Native`List":
			return true
		}
		return false
	case wir.OpClosure, wir.OpPhi:
		return true
	}
	return false
}

// DCE removes unused pure instructions and phis, iterating to a fixed
// point. Reports whether anything changed.
func DCE(f *wir.Function) bool {
	changedAny := false
	for {
		count := uses(f)
		changed := false
		for _, b := range f.Blocks {
			kept := b.Instrs[:0]
			for _, in := range b.Instrs {
				if !in.IsTerminator() && count[in] == 0 && instrPure(in) {
					changed = true
					continue
				}
				kept = append(kept, in)
			}
			b.Instrs = kept
			keptPhis := b.Phis[:0]
			for _, phi := range b.Phis {
				if count[phi] == 0 {
					changed = true
					continue
				}
				keptPhis = append(keptPhis, phi)
			}
			b.Phis = keptPhis
		}
		if !changed {
			return changedAny
		}
		changedAny = true
	}
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
	case *expr.Symbol:
		if b, isBool := expr.TruthValue(x); isBool {
			return b, true
		}
	}
	return nil, false
}

// FoldConstants evaluates pure calls whose operands are all constants
// (sparse conditional constant propagation's folding half, §4.5), plus
// algebraic peepholes: SameQ[b, True] is b (the residue of the And/Or
// macro desugaring), and Not[Not[b]] is b. Reports whether anything
// changed.
func FoldConstants(f *wir.Function) bool {
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
			if def.Impl != nil || !pureNative(def.Native) {
				continue
			}
			if out, ok := peephole(def.Native, in); ok {
				replaceAllUses(f, in, out)
				changed = true
				continue
			}
			out, ok := foldNative(def.Native, in)
			if !ok {
				continue
			}
			// Replace every use with the folded constant.
			replaceAllUses(f, in, out)
			changed = true
		}
	}
	return changed
}

// peephole simplifies boolean identities without needing all-constant
// operands.
func peephole(native string, in *wir.Instr) (wir.Value, bool) {
	isTrueConst := func(v wir.Value) bool {
		cv, ok := constValue(v)
		if !ok {
			return false
		}
		b, ok := cv.(bool)
		return ok && b
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
				return inner.Args[0], true
			}
		}
	}
	return nil, false
}

func replaceAllUses(f *wir.Function, old wir.Value, new wir.Value) {
	for _, b := range f.Blocks {
		for _, phi := range b.Phis {
			for i, a := range phi.Args {
				if a == old {
					phi.Args[i] = new
				}
			}
		}
		for _, in := range b.Instrs {
			for i, a := range in.Args {
				if a == old {
					in.Args[i] = new
				}
			}
		}
	}
}

// foldNative evaluates a native with constant arguments at compile time.
// Operations that would raise a runtime numeric exception are left alone.
func foldNative(native string, in *wir.Instr) (wir.Value, bool) {
	vals := make([]any, len(in.Args))
	for i, a := range in.Args {
		v, ok := constValue(a)
		if !ok {
			return nil, false
		}
		vals[i] = v
	}
	mk := func(e expr.Expr) wir.Value { return &wir.Const{Expr: e, Ty: in.Ty} }
	switch native {
	case "binary_plus", "binary_times", "binary_subtract":
		if a, ok := vals[0].(int64); ok {
			b, ok2 := vals[1].(int64)
			if !ok2 {
				return nil, false
			}
			// The runtime's own overflow tests, so a fold and the compiled
			// operation cannot disagree about an edge.
			var r int64
			var exact bool
			switch native {
			case "binary_plus":
				r, exact = runtime.AddOK(a, b)
			case "binary_subtract":
				r, exact = runtime.SubOK(a, b)
			case "binary_times":
				r, exact = runtime.MulOK(a, b)
			}
			if !exact {
				return nil, false
			}
			return mk(expr.FromInt64(r)), true
		}
		if a, ok := vals[0].(float64); ok {
			b, ok2 := vals[1].(float64)
			if !ok2 {
				return nil, false
			}
			switch native {
			case "binary_plus":
				return mk(expr.FromFloat(a + b)), true
			case "binary_subtract":
				return mk(expr.FromFloat(a - b)), true
			case "binary_times":
				return mk(expr.FromFloat(a * b)), true
			}
		}
	case "unary_minus":
		switch a := vals[0].(type) {
		case int64:
			if a == math.MinInt64 {
				return nil, false
			}
			return mk(expr.FromInt64(-a)), true
		case float64:
			return mk(expr.FromFloat(-a)), true
		}
	case "cmp_less", "cmp_lessequal", "cmp_greater", "cmp_greaterequal", "cmp_equal", "cmp_unequal":
		// Integers compare as integers: above 2^53 float64 merges neighbours.
		if a, ok := vals[0].(int64); ok {
			if b, ok2 := vals[1].(int64); ok2 {
				return mk(expr.Bool(cmpFold(native, a, b))), true
			}
		}
		if a, ok := vals[0].(float64); ok {
			if b, ok2 := vals[1].(float64); ok2 {
				return mk(expr.Bool(cmpFold(native, a, b))), true
			}
		}
	case "math_sin", "math_cos", "math_exp", "math_log", "math_sqrt", "math_tan":
		a, ok := vals[0].(float64)
		if !ok {
			return nil, false
		}
		var r float64
		switch native {
		case "math_sin":
			r = math.Sin(a)
		case "math_cos":
			r = math.Cos(a)
		case "math_exp":
			r = math.Exp(a)
		case "math_log":
			r = math.Log(a)
		case "math_sqrt":
			r = math.Sqrt(a)
		case "math_tan":
			r = math.Tan(a)
		}
		return mk(expr.FromFloat(r)), true
	case "not":
		if a, ok := vals[0].(bool); ok {
			return mk(expr.Bool(!a)), true
		}
	case "sameq_bool":
		a, ok1 := vals[0].(bool)
		b, ok2 := vals[1].(bool)
		if ok1 && ok2 {
			return mk(expr.Bool(a == b)), true
		}
	}
	return nil, false
}

func cmpFold[T int64 | float64](native string, a, b T) bool {
	switch native {
	case "cmp_less":
		return a < b
	case "cmp_lessequal":
		return a <= b
	case "cmp_greater":
		return a > b
	case "cmp_greaterequal":
		return a >= b
	case "cmp_equal":
		return a == b
	case "cmp_unequal":
		return a != b
	}
	return false
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
	for i, p := range b.Preds {
		if p == pred {
			b.Preds = append(b.Preds[:i], b.Preds[i+1:]...)
			for _, phi := range b.Phis {
				if i < len(phi.Args) {
					phi.Args = append(phi.Args[:i], phi.Args[i+1:]...)
				}
			}
			return
		}
	}
}

// RemoveUnreachable deletes CFG-unreachable blocks module-wide, fixing
// predecessor lists and phis, and simplifies single-operand phis.
func RemoveUnreachable(mod *wir.Module) {
	for _, f := range mod.Funcs {
		dom := ComputeDominators(f)
		var kept []*wir.Block
		for _, b := range f.Blocks {
			if dom.Reachable(b) {
				kept = append(kept, b)
				continue
			}
			for _, s := range b.Succs() {
				removePred(s, b)
			}
		}
		f.Blocks = kept
		for i, b := range f.Blocks {
			b.IDNum = i
		}
		// Single-pred phis collapse to their operand.
		for _, b := range f.Blocks {
			keptPhis := b.Phis[:0]
			for _, phi := range b.Phis {
				if len(phi.Args) == 1 {
					replaceAllUses(f, phi, phi.Args[0])
					continue
				}
				keptPhis = append(keptPhis, phi)
			}
			b.Phis = keptPhis
		}
	}
}

// FuseBlocks merges each block with its unique successor when that
// successor has no other predecessors (basic block fusion, §4.3). Phis in
// the successor collapse to their single operand first.
func FuseBlocks(mod *wir.Module) bool {
	changed := false
	for _, f := range mod.Funcs {
		for again := true; again; {
			again = false
			for _, b := range f.Blocks {
				t := b.Term()
				if t == nil || t.Op != wir.OpBranch {
					continue
				}
				s := t.Targets[0]
				if s == b || len(s.Preds) != 1 || s.Preds[0] != b {
					continue
				}
				// Single-pred phis are trivial.
				for _, phi := range s.Phis {
					if len(phi.Args) == 1 {
						replaceAllUses(f, phi, phi.Args[0])
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
						for i, p := range succ.Preds {
							if p == s {
								succ.Preds[i] = b
							}
						}
					}
				}
				// Remove s from the function.
				for i, blk := range f.Blocks {
					if blk == s {
						f.Blocks = append(f.Blocks[:i], f.Blocks[i+1:]...)
						break
					}
				}
				for i, blk := range f.Blocks {
					blk.IDNum = i
				}
				changed = true
				again = true
				break
			}
		}
	}
	return changed
}

// CSE performs dominator-scoped common subexpression elimination over pure
// calls (§4.5 lists CSE among the TWIR optimisations). Reports whether
// anything changed.
func CSE(f *wir.Function) bool {
	dom := ComputeDominators(f)
	children := map[*wir.Block][]*wir.Block{}
	for _, b := range f.Blocks {
		if p := dom.IDom(b); p != nil {
			children[p] = append(children[p], b)
		}
	}
	avail := map[string]*wir.Instr{}
	changed := false
	var walk func(b *wir.Block)
	walk = func(b *wir.Block) {
		var added []string
		for _, in := range b.Instrs {
			if in.Op != wir.OpCall || !instrPure(in) || in.Ty == nil {
				continue
			}
			key := cseKey(in)
			if prev, ok := avail[key]; ok {
				replaceAllUses(f, in, prev)
				changed = true
				continue
			}
			avail[key] = in
			added = append(added, key)
		}
		for _, c := range children[b] {
			walk(c)
		}
		for _, k := range added {
			delete(avail, k)
		}
	}
	walk(f.Entry())
	if changed {
		DCE(f)
	}
	return changed
}

// cseKey spells what a pure call computes: its target and each operand — an
// instruction by id, a parameter or function by name, a constant by its
// binary encoding (self-delimiting, and its tag bytes are none of '%', '@').
func cseKey(in *wir.Instr) string {
	var key strings.Builder
	key.WriteString(in.Callee)
	key.WriteByte('/')
	key.WriteString(in.Native)
	if d, ok := in.Prop("overload"); ok {
		key.WriteByte('/')
		key.WriteString(d.(*types.FuncDef).Native)
	}
	var num [20]byte
	for _, a := range in.Args {
		key.WriteByte('|')
		switch v := a.(type) {
		case *wir.Instr:
			key.WriteByte('%')
			key.Write(strconv.AppendInt(num[:0], int64(v.IDNum), 10))
		case *wir.Param:
			key.WriteByte('%')
			key.WriteString(v.Sym.Name)
		case *wir.Const:
			// Every expression a constant can hold encodes, and a Builder's
			// Write cannot fail.
			_ = expr.Encode(&key, v.Expr)
		case *wir.FuncRef:
			key.WriteByte('@')
			key.WriteString(v.Fn.Name)
		}
	}
	return key.String()
}

// InsertAbortChecks places an abort check in each function prologue and at
// every loop header (paper §4.5: checks at loop heads avoid inhibiting
// straight-line optimisation; prologue checks cover recursion).
func InsertAbortChecks(mod *wir.Module) {
	for _, f := range mod.Funcs {
		dom := ComputeDominators(f)
		heads := LoopHeaders(f, dom)
		insert := func(b *wir.Block) {
			in := &wir.Instr{Op: wir.OpAbortCheck, Block: b}
			b.Instrs = append([]*wir.Instr{in}, b.Instrs...)
		}
		insert(f.Entry())
		for h := range heads {
			if h.AbortInhibit {
				continue // Native`AbortInhibit region (§6)
			}
			insert(h)
		}
		f.SetProp("AbortHandling", true)
	}
}
