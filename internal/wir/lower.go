package wir

import (
	"fmt"
	"math"

	"wolfc/internal/binding"
	"wolfc/internal/diag"
	"wolfc/internal/expr"
	"wolfc/internal/types"
)

// Lowering translates a binding-analysed function into WIR, going straight
// to SSA (paper §4.3). Every generated instruction carries its source MExpr
// in the "mexpr" property for error reporting and debug symbols.

// lowerErr builds a lowering diagnostic anchored at the offending
// expression; positions are resolved later from the span table.
func lowerErr(msg string, e expr.Expr) error {
	return diag.Newf(diag.Lower, "L001", "%s", msg).WithSubject(e)
}

// Lower builds a program module from a binding result. env parses Typed
// annotations.
func Lower(res *binding.Result, env *types.Env) (*Module, error) {
	mod := &Module{}
	lw := &lowerer{mod: mod, env: env, lambdas: res.Lambdas}
	main := mod.NewFunction("Main")
	if err := lw.lowerFunctionBody(main, res.Params, res.ParamTypes, nil, res.Body); err != nil {
		return nil, err
	}
	for _, f := range mod.Funcs {
		RemoveTrivialPhis(f)
		RemoveDeadPhis(f)
	}
	if err := mod.Lint(); err != nil {
		return nil, fmt.Errorf("internal: lowering produced invalid SSA: %w", err)
	}
	return mod, nil
}

type lowerer struct {
	mod       *Module
	env       *types.Env
	lambdas   map[*expr.Normal]*binding.Lambda
	lambdaSeq int
}

// context carries per-function lowering state.
type context struct {
	fn  *Function
	ssa *ssaBuilder
	// declared is the set of symbols that are SSA variables (params,
	// locals, captures); anything else is a global/symbolic constant.
	declared map[*expr.Symbol]bool
	// loop stack for Break/Continue.
	loops []loopCtx
	// abortInhibit marks blocks created inside Native`AbortInhibit[...].
	abortInhibit bool
}

type loopCtx struct{ header, exit *Block }

func (lw *lowerer) lowerFunctionBody(fn *Function, params []*expr.Symbol,
	paramTys []expr.Expr, captures []*expr.Symbol, body expr.Expr) error {
	ctx := &context{fn: fn, ssa: newSSABuilder(fn), declared: map[*expr.Symbol]bool{}}
	entry := fn.Entry()
	entry.sealed = true
	for i, p := range params {
		param := &Param{Sym: p, Index: i}
		if paramTys != nil && paramTys[i] != nil {
			ty, err := lw.env.ParseSpec(paramTys[i])
			if err != nil {
				return lowerErr(err.Error(), paramTys[i])
			}
			param.Ty = ty
		}
		fn.Params = append(fn.Params, param)
		ctx.declared[p] = true
		ctx.ssa.write(entry, p, param)
	}
	for _, c := range captures {
		param := &Param{Sym: c, Index: len(fn.Params), Capture: true}
		fn.Params = append(fn.Params, param)
		ctx.declared[c] = true
		ctx.ssa.write(entry, c, param)
	}
	// Declare every local up front so reads can distinguish variables from
	// global symbols.
	declareLocals(ctx, body)

	val, blk, err := lw.lowerExpr(ctx, entry, body)
	if err != nil {
		return err
	}
	if blk != nil {
		ret := fn.newInstr(OpReturn)
		if val != nil {
			ret.Args = []Value{val}
		}
		lw.appendInstr(blk, ret)
	}
	return nil
}

// declareLocals scans for assignments to record which symbols are SSA
// variables of this function (binding analysis already made names unique
// and scope-free).
func declareLocals(ctx *context, body expr.Expr) {
	expr.Walk(body, func(e expr.Expr) bool {
		if n, ok := e.(*expr.Normal); ok {
			if h, ok := n.Head().(*expr.Symbol); ok {
				if h == expr.SymFunction {
					return false // inner lambda has its own context
				}
				if h == expr.SymSet && n.Len() == 2 {
					if s, ok := n.Arg(1).(*expr.Symbol); ok {
						ctx.declared[s] = true
					}
				}
			}
		}
		return true
	})
}

func (lw *lowerer) appendInstr(b *Block, in *Instr) *Instr {
	in.Block = b
	b.Instrs = append(b.Instrs, in)
	return in
}

// emitCall creates a call instruction in b.
func (lw *lowerer) emitCall(ctx *context, b *Block, callee string, src expr.Expr, args ...Value) *Instr {
	in := ctx.fn.newInstr(OpCall)
	in.Callee = callee
	in.Args = args
	if src != nil {
		in.SetProp("mexpr", src)
	}
	return lw.appendInstr(b, in)
}

func (lw *lowerer) branch(ctx *context, from, to *Block) {
	in := ctx.fn.newInstr(OpBranch)
	in.Targets = []*Block{to}
	lw.appendInstr(from, in)
	to.Preds = append(to.Preds, from)
}

func (lw *lowerer) condBranch(ctx *context, from *Block, cond Value, then, els *Block) {
	in := ctx.fn.newInstr(OpCondBranch)
	in.Args = []Value{cond}
	in.Targets = []*Block{then, els}
	lw.appendInstr(from, in)
	then.Preds = append(then.Preds, from)
	els.Preds = append(els.Preds, from)
}

// Constants are created per use site: inference assigns each occurrence its
// own type (a Null in a Real64 context types differently from one in a
// statement position).
func constTrue() *Const  { return &Const{Expr: expr.SymTrue, Ty: types.TBool} }
func constFalse() *Const { return &Const{Expr: expr.SymFalse, Ty: types.TBool} }
func constNull() *Const  { return &Const{Expr: expr.SymNull} }

// lowerExpr lowers e into blk, returning the value and the continuation
// block (nil when control diverged: Return/Break/Continue).
func (lw *lowerer) lowerExpr(ctx *context, blk *Block, e expr.Expr) (Value, *Block, error) {
	switch x := e.(type) {
	case *expr.Integer, *expr.Real, *expr.String, *expr.Rational:
		return &Const{Expr: x}, blk, nil
	case *expr.Complex:
		return &Const{Expr: x, Ty: types.TComplex}, blk, nil
	case *expr.Symbol:
		switch x {
		case expr.SymTrue:
			return constTrue(), blk, nil
		case expr.SymFalse:
			return constFalse(), blk, nil
		case expr.SymNull:
			return constNull(), blk, nil
		}
		switch x.Name {
		case "Pi":
			return &Const{Expr: expr.FromFloat(math.Pi), Ty: types.TReal64}, blk, nil
		case "E":
			return &Const{Expr: expr.FromFloat(math.E), Ty: types.TReal64}, blk, nil
		case "Infinity":
			return &Const{Expr: expr.FromFloat(math.Inf(1)), Ty: types.TReal64}, blk, nil
		}
		if ctx.declared[x] {
			v, err := ctx.ssa.read(blk, x)
			if err != nil {
				return nil, nil, lowerErr(err.Error(), e)
			}
			return v, blk, nil
		}
		// Unbound symbols are symbolic Expression constants (F8).
		return &Const{Expr: x, Ty: types.TExpr}, blk, nil
	case *expr.Normal:
		return lw.lowerNormal(ctx, blk, x)
	}
	return nil, nil, lowerErr("unsupported expression", e)
}

func (lw *lowerer) lowerNormal(ctx *context, blk *Block, n *expr.Normal) (Value, *Block, error) {
	if h, ok := n.Head().(*expr.Symbol); ok {
		switch h.Name {
		case "CompoundExpression":
			var val Value = constNull()
			cur := blk
			for i := 1; i <= n.Len(); i++ {
				var err error
				val, cur, err = lw.lowerExpr(ctx, cur, n.Arg(i))
				if err != nil {
					return nil, nil, err
				}
				if cur == nil {
					return nil, nil, nil // control diverged
				}
			}
			return val, cur, nil

		case "Set":
			if n.Len() != 2 {
				return nil, nil, lowerErr("Set arity", n)
			}
			return lw.lowerSet(ctx, blk, n)

		case "If":
			return lw.lowerIf(ctx, blk, n)
		case "While":
			return lw.lowerWhile(ctx, blk, n)
		case "Return":
			var val Value = constNull()
			cur := blk
			if n.Len() >= 1 {
				var err error
				val, cur, err = lw.lowerExpr(ctx, cur, n.Arg(1))
				if err != nil {
					return nil, nil, err
				}
				if cur == nil {
					return nil, nil, nil
				}
			}
			ret := ctx.fn.newInstr(OpReturn)
			ret.Args = []Value{val}
			lw.appendInstr(cur, ret)
			return nil, nil, nil
		case "Break":
			if len(ctx.loops) == 0 {
				return nil, nil, lowerErr("Break outside a loop", n)
			}
			lw.branch(ctx, blk, ctx.loops[len(ctx.loops)-1].exit)
			return nil, nil, nil
		case "Continue":
			if len(ctx.loops) == 0 {
				return nil, nil, lowerErr("Continue outside a loop", n)
			}
			lw.branch(ctx, blk, ctx.loops[len(ctx.loops)-1].header)
			return nil, nil, nil

		case "Typed":
			if n.Len() != 2 {
				return nil, nil, lowerErr("Typed arity", n)
			}
			v, cur, err := lw.lowerExpr(ctx, blk, n.Arg(1))
			if err != nil || cur == nil {
				return v, cur, err
			}
			ty, err := lw.env.ParseSpec(n.Arg(2))
			if err != nil {
				return nil, nil, lowerErr(err.Error(), n)
			}
			ctx.fn.TypeAnnotations = append(ctx.fn.TypeAnnotations, Annotation{Val: v, Ty: ty})
			return v, cur, nil

		case "Function":
			return lw.lowerLambda(ctx, blk, n)

		case "List":
			return lw.lowerList(ctx, blk, n)

		case "KernelFunction":
			// A bare KernelFunction[f] is a first-class value only through
			// application; see the application case below.
			return nil, nil, lowerErr("KernelFunction must be applied directly", n)

		case "Native`AbortInhibit":
			// §6: abort checking toggled "selectively on expressions by
			// wrapping them with the Native`AbortInhibit decorator".
			if n.Len() != 1 {
				return nil, nil, lowerErr("Native`AbortInhibit[expr] expected", n)
			}
			prev := ctx.abortInhibit
			ctx.abortInhibit = true
			blk.AbortInhibit = true
			v, cur, err := lw.lowerExpr(ctx, blk, n.Arg(1))
			ctx.abortInhibit = prev
			return v, cur, err
		}

		// Variable in call position: indirect call through the function
		// value (closures, passed comparators — paper §6 QSort).
		if ctx.declared[h] {
			fv, err := ctx.ssa.read(blk, h)
			if err != nil {
				return nil, nil, lowerErr(err.Error(), n)
			}
			args, cur, err := lw.lowerArgs(ctx, blk, n)
			if err != nil || cur == nil {
				return nil, cur, err
			}
			in := ctx.fn.newInstr(OpCallIndirect)
			in.Args = append([]Value{fv}, args...)
			in.SetProp("mexpr", n)
			return lw.appendInstr(cur, in), cur, nil
		}

		// Plain call by global name.
		args, cur, err := lw.lowerArgs(ctx, blk, n)
		if err != nil || cur == nil {
			return nil, cur, err
		}
		return lw.emitCall(ctx, cur, h.Name, n, args...), cur, nil
	}

	// Head is itself an expression.
	if hn, ok := n.Head().(*expr.Normal); ok {
		if hh, ok := hn.Head().(*expr.Symbol); ok {
			switch hh.Name {
			case "Function":
				// Immediate application of a literal function.
				fv, cur, err := lw.lowerLambda(ctx, blk, hn)
				if err != nil || cur == nil {
					return nil, cur, err
				}
				args, cur, err := lw.lowerArgs(ctx, cur, n)
				if err != nil || cur == nil {
					return nil, cur, err
				}
				in := ctx.fn.newInstr(OpCallIndirect)
				in.Args = append([]Value{fv}, args...)
				in.SetProp("mexpr", n)
				return lw.appendInstr(cur, in), cur, nil
			case "KernelFunction":
				// Gradual compilation escape (F9): box the arguments, build
				// the call expression, and evaluate it in the kernel.
				if hn.Len() != 1 {
					return nil, nil, lowerErr("KernelFunction[f] expected", hn)
				}
				args, cur, err := lw.lowerArgs(ctx, blk, n)
				if err != nil || cur == nil {
					return nil, cur, err
				}
				boxed := make([]Value, 0, len(args)+1)
				boxed = append(boxed, &Const{Expr: hn.Arg(1), Ty: types.TExpr})
				for _, a := range args {
					// Box each argument unless it is already an Expression.
					if a.Type() == types.TExpr {
						boxed = append(boxed, a)
						continue
					}
					box := lw.emitCall(ctx, cur, "Native`ToExpression", n, a)
					boxed = append(boxed, box)
				}
				return lw.emitCall(ctx, cur, "Native`KernelApply", n, boxed...), cur, nil
			}
		}
	}

	// General computed head: lower it and call indirectly.
	fv, cur, err := lw.lowerExpr(ctx, blk, n.Head())
	if err != nil || cur == nil {
		return nil, cur, err
	}
	args, cur, err := lw.lowerArgs(ctx, cur, n)
	if err != nil || cur == nil {
		return nil, cur, err
	}
	in := ctx.fn.newInstr(OpCallIndirect)
	in.Args = append([]Value{fv}, args...)
	in.SetProp("mexpr", n)
	return lw.appendInstr(cur, in), cur, nil
}

func (lw *lowerer) lowerArgs(ctx *context, blk *Block, n *expr.Normal) ([]Value, *Block, error) {
	args := make([]Value, 0, n.Len())
	cur := blk
	for i := 1; i <= n.Len(); i++ {
		v, next, err := lw.lowerExpr(ctx, cur, n.Arg(i))
		if err != nil {
			return nil, nil, err
		}
		if next == nil {
			return nil, nil, nil
		}
		args = append(args, v)
		cur = next
	}
	return args, cur, nil
}

func (lw *lowerer) lowerSet(ctx *context, blk *Block, n *expr.Normal) (Value, *Block, error) {
	lhs, rhs := n.Arg(1), n.Arg(2)
	switch target := lhs.(type) {
	case *expr.Symbol:
		v, cur, err := lw.lowerExpr(ctx, blk, rhs)
		if err != nil || cur == nil {
			return nil, cur, err
		}
		ctx.ssa.write(cur, target, v)
		return v, cur, nil
	case *expr.Normal:
		if p, ok := expr.IsNormal(target, expr.Sym("Part")); ok && p.Len() >= 2 {
			sym, ok := p.Arg(1).(*expr.Symbol)
			if !ok || !ctx.declared[sym] {
				return nil, nil, lowerErr("Part assignment needs a local tensor variable", n)
			}
			tensor, err := ctx.ssa.read(blk, sym)
			if err != nil {
				return nil, nil, lowerErr(err.Error(), n)
			}
			args := []Value{tensor}
			cur := blk
			for i := 2; i <= p.Len(); i++ {
				iv, next, err2 := lw.lowerExpr(ctx, cur, p.Arg(i))
				if err2 != nil || next == nil {
					return nil, next, err2
				}
				args = append(args, iv)
				cur = next
			}
			rv, cur, err := lw.lowerExpr(ctx, cur, rhs)
			if err != nil || cur == nil {
				return nil, cur, err
			}
			args = append(args, rv)
			upd := lw.emitCall(ctx, cur, "Native`SetPart", n, args...)
			// Rebind the variable to the (possibly copied) result, keeping
			// the mutability semantics explicit in SSA (F5, §4.5).
			ctx.ssa.write(cur, sym, upd)
			return rv, cur, nil
		}
	}
	return nil, nil, lowerErr("unsupported assignment target", n)
}

func (lw *lowerer) lowerIf(ctx *context, blk *Block, n *expr.Normal) (Value, *Block, error) {
	if n.Len() < 2 || n.Len() > 3 {
		return nil, nil, lowerErr("If arity", n)
	}
	cond, cur, err := lw.lowerExpr(ctx, blk, n.Arg(1))
	if err != nil || cur == nil {
		return nil, cur, err
	}
	thenB := ctx.fn.NewBlock("then")
	elseB := ctx.fn.NewBlock("else")
	thenB.AbortInhibit = ctx.abortInhibit
	elseB.AbortInhibit = ctx.abortInhibit
	lw.condBranch(ctx, cur, cond, thenB, elseB)
	thenB.sealed = true
	elseB.sealed = true

	tv, tEnd, err := lw.lowerExpr(ctx, thenB, n.Arg(2))
	if err != nil {
		return nil, nil, err
	}
	var ev Value = constNull()
	eEnd := elseB
	if n.Len() == 3 {
		ev, eEnd, err = lw.lowerExpr(ctx, elseB, n.Arg(3))
		if err != nil {
			return nil, nil, err
		}
	}
	if tEnd == nil && eEnd == nil {
		return nil, nil, nil
	}
	contB := ctx.fn.NewBlock("after_if")
	contB.AbortInhibit = ctx.abortInhibit
	if tEnd != nil {
		lw.branch(ctx, tEnd, contB)
	}
	if eEnd != nil {
		lw.branch(ctx, eEnd, contB)
	}
	if err := ctx.ssa.seal(contB); err != nil {
		return nil, nil, lowerErr(err.Error(), n)
	}
	switch {
	case tEnd != nil && eEnd != nil:
		phi := ctx.fn.newInstr(OpPhi)
		phi.Block = contB
		phi.Args = []Value{tv, ev}
		contB.Phis = append(contB.Phis, phi)
		return phi, contB, nil
	case tEnd != nil:
		return tv, contB, nil
	default:
		return ev, contB, nil
	}
}

func (lw *lowerer) lowerWhile(ctx *context, blk *Block, n *expr.Normal) (Value, *Block, error) {
	if n.Len() < 1 || n.Len() > 2 {
		return nil, nil, lowerErr("While arity", n)
	}
	header := ctx.fn.NewBlock("while_head")
	body := ctx.fn.NewBlock("while_body")
	exit := ctx.fn.NewBlock("while_exit")
	header.AbortInhibit = ctx.abortInhibit
	body.AbortInhibit = ctx.abortInhibit
	exit.AbortInhibit = ctx.abortInhibit
	lw.branch(ctx, blk, header)

	cond, condEnd, err := lw.lowerExpr(ctx, header, n.Arg(1))
	if err != nil {
		return nil, nil, err
	}
	if condEnd == nil {
		return nil, nil, lowerErr("loop condition diverges", n)
	}
	lw.condBranch(ctx, condEnd, cond, body, exit)
	body.sealed = true

	ctx.loops = append(ctx.loops, loopCtx{header: header, exit: exit})
	var bodyEnd *Block = body
	if n.Len() == 2 {
		_, bodyEnd, err = lw.lowerExpr(ctx, body, n.Arg(2))
		if err != nil {
			return nil, nil, err
		}
	}
	ctx.loops = ctx.loops[:len(ctx.loops)-1]
	if bodyEnd != nil {
		lw.branch(ctx, bodyEnd, header)
	}
	if err := ctx.ssa.seal(header); err != nil {
		return nil, nil, lowerErr(err.Error(), n)
	}
	if err := ctx.ssa.seal(exit); err != nil {
		return nil, nil, lowerErr(err.Error(), n)
	}
	return constNull(), exit, nil
}

// lowerList builds a list value: literal-only lists become constants
// (constant arrays, §6 PrimeQ), anything else a Native`List construction.
func (lw *lowerer) lowerList(ctx *context, blk *Block, n *expr.Normal) (Value, *Block, error) {
	if isLiteralList(n) {
		return &Const{Expr: n}, blk, nil
	}
	args, cur, err := lw.lowerArgs(ctx, blk, n)
	if err != nil || cur == nil {
		return nil, cur, err
	}
	return lw.emitCall(ctx, cur, "Native`List", n, args...), cur, nil
}

func isLiteralList(e expr.Expr) bool {
	switch x := e.(type) {
	case *expr.Integer, *expr.Real:
		return true
	case *expr.Normal:
		if _, ok := expr.IsNormal(x, expr.SymList); !ok {
			return false
		}
		for _, a := range x.Args() {
			if !isLiteralList(a) {
				return false
			}
		}
		return true
	}
	return false
}

// lowerLambda creates a module function for a nested Function literal and
// yields a closure value (closure conversion, paper §4.2 escape analysis).
func (lw *lowerer) lowerLambda(ctx *context, blk *Block, n *expr.Normal) (Value, *Block, error) {
	lam := lw.lambdas[n]
	if lam == nil {
		return nil, nil, lowerErr("lambda without binding analysis (internal)", n)
	}
	lw.lambdaSeq++
	fname := fmt.Sprintf("%s`lambda%d", ctx.fn.Name, lw.lambdaSeq)
	lf := lw.mod.NewFunction(fname)

	// Recover Typed annotations from the (rebuilt) parameter list.
	paramTys := make([]expr.Expr, len(lam.Params))
	if pl, ok := expr.IsNormal(n.Arg(1), expr.SymList); ok {
		for i := 1; i <= pl.Len() && i <= len(paramTys); i++ {
			if ty, ok := expr.IsNormalN(pl.Arg(i), expr.SymTyped, 2); ok {
				paramTys[i-1] = ty.Arg(2)
			}
		}
	}
	if err := lw.lowerFunctionBody(lf, lam.Params, paramTys, lam.Captures, lam.Body); err != nil {
		return nil, nil, err
	}

	ref := &FuncRef{Fn: lf}
	if len(lam.Captures) == 0 {
		return ref, blk, nil
	}
	in := ctx.fn.newInstr(OpClosure)
	in.Args = []Value{ref}
	for _, c := range lam.Captures {
		cv, err := ctx.ssa.read(blk, c)
		if err != nil {
			return nil, nil, lowerErr(err.Error(), n)
		}
		in.Args = append(in.Args, cv)
	}
	in.SetProp("mexpr", n)
	return lw.appendInstr(blk, in), blk, nil
}
