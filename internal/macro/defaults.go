package macro

import (
	"sync"

	"wolfc/internal/diag"
	"wolfc/internal/expr"
	"wolfc/internal/parser"
	"wolfc/internal/pattern"
)

// DefaultEnv returns the compiler's bundled macro environment (paper §4.2:
// "macros are registered within an environment (a default environment
// bundled by the compiler)"). It desugars high-level constructs into the
// primitive forms the WIR lowering understands, and performs always-safe
// AST-level optimisations. Each call returns a new empty environment
// chained to the one rule set the process parses (on first use), so callers
// register into theirs freely (§4.7) and never see each other's rules.
func DefaultEnv() *Env { return NewEnv(defaultRoot()) }

// defaultRoot is the bundled rule set itself, frozen: every compiler in the
// process reads it concurrently and nothing outside this package can name it.
var defaultRoot = sync.OnceValue(func() *Env {
	e := NewEnv(nil)
	reg := func(head, lhs, rhs string) {
		e.Register(expr.Sym(head), pattern.Rule{
			LHS: parser.MustParse(lhs),
			RHS: parser.MustParse(rhs),
		})
	}

	// The paper's And macro (§4.2): desugar n-ary And to nested
	// short-circuit Ifs with constant folding. A first operand before a
	// deciding False is still evaluated, as the interpreter does; DCE deletes
	// it only when it has no effect.
	reg("And", "And[x_]", "x === True")
	reg("And", "And[False, __]", "False")
	reg("And", "And[x_, False]", "(x; False)")
	reg("And", "And[True, rest__]", "And[rest]")
	reg("And", "And[x_, y_]", "If[x === True, y === True, False]")
	reg("And", "And[x_, y_, rest__]", "And[And[x, y], rest]")

	// Or, symmetrically.
	reg("Or", "Or[x_]", "x === True")
	reg("Or", "Or[True, __]", "True")
	reg("Or", "Or[x_, True]", "(x; True)")
	reg("Or", "Or[False, rest__]", "Or[rest]")
	reg("Or", "Or[x_, y_]", "If[x === True, True, y === True]")
	reg("Or", "Or[x_, y_, rest__]", "Or[Or[x, y], rest]")

	// Always-safe If optimisations (dead-branch deletion at AST level).
	reg("If", "If[True, t_]", "t")
	reg("If", "If[True, t_, _]", "t")
	reg("If", "If[False, _]", "Null")
	reg("If", "If[False, _, f_]", "f")
	reg("Not", "Not[True]", "False")
	reg("Not", "Not[False]", "True")
	reg("Not", "Not[Not[x_]]", "x === True")

	// Unary arithmetic simplifications, and n-ary chains folded to the
	// binary primitives the type environment declares.
	reg("Plus", "Plus[x_]", "x")
	reg("Times", "Times[x_]", "x")
	reg("Plus", "Plus[a_, b_, rest__]", "Plus[Plus[a, b], rest]")
	reg("Times", "Times[a_, b_, rest__]", "Times[Times[a, b], rest]")
	reg("StringJoin", "StringJoin[a_, b_, rest__]", "StringJoin[StringJoin[a, b], rest]")
	reg("Min", "Min[a_, b_, rest__]", "Min[Min[a, b], rest]")
	reg("Max", "Max[a_, b_, rest__]", "Max[Max[a, b], rest]")
	reg("Min", "Min[x_]", "x")
	reg("Max", "Max[x_]", "x")
	reg("Minus", "Minus[Minus[x_]]", "x")

	// Mutating shorthands. Template-local Module variables (old) are
	// hygienically renamed at expansion.
	reg("Increment", "Increment[i_]", "Module[{old = i}, i = i + 1; old]")
	reg("Decrement", "Decrement[i_]", "Module[{old = i}, i = i - 1; old]")
	reg("PreIncrement", "PreIncrement[i_]", "i = i + 1")
	reg("PreDecrement", "PreDecrement[i_]", "i = i - 1")
	reg("AddTo", "AddTo[i_, v_]", "i = i + v")
	reg("SubtractFrom", "SubtractFrom[i_, v_]", "i = i - v")
	reg("TimesBy", "TimesBy[i_, v_]", "i = i*v")
	reg("DivideBy", "DivideBy[i_, v_]", "i = i/v")

	// Loop desugarings to the primitive While.
	reg("For", "For[init_, test_, incr_, body_]",
		"init; While[test, body; incr]")
	reg("For", "For[init_, test_, incr_]",
		"init; While[test, incr]")
	reg("Do", "Do[body_, {i_Symbol, a_, b_}]",
		"Module[{i = a, doMax = b}, While[i <= doMax, body; i = i + 1]]")
	reg("Do", "Do[body_, {i_Symbol, a_, b_, d_}]",
		"Module[{i = a, doMax = b, doStep = d}, While[If[doStep > 0, i <= doMax, i >= doMax], body; i = i + doStep]]")
	reg("Do", "Do[body_, {i_Symbol, b_}]",
		"Do[body, {i, 1, b}]")
	reg("Do", "Do[body_, {b_}]",
		"Module[{doIdx = 1, doMax = b}, While[doIdx <= doMax, body; doIdx = doIdx + 1]]")
	reg("Do", "Do[body_, b_Integer]",
		"Do[body, {b}]")

	// Boole and friends.
	reg("Boole", "Boole[b_]", "If[b === True, 1, 0]")

	// Which → nested If.
	reg("Which", "Which[]", "Null")
	reg("Which", "Which[c_, v_, rest___]", "If[c === True, v, Which[rest]]")

	// Comparison chains desugar to conjunctions (a < b < c).
	for _, cmp := range []string{"Less", "LessEqual", "Greater", "GreaterEqual", "Equal", "Unequal"} {
		reg(cmp, cmp+"[a_, b_, c_, rest___]",
			"And["+cmp+"[a, b], "+cmp+"[b, c, rest]]")
	}

	// Slot-style pure functions normalise to named parameters so binding
	// analysis sees ordinary Function forms. Up to three slots are
	// supported; higher arities are rare in compiled code.
	e.Register(expr.Sym("Function"), pattern.Rule{
		LHS: parser.MustParse("Function[body_]"),
		RHS: parser.MustParse("Native`SlotFunction[body]"),
	})

	// Functional primitives are lowered to explicit loops over the
	// runtime's list operations. These expansions are what lets the new
	// compiler support code the bytecode compiler cannot (function values,
	// paper §3 F6, §6 QSort).
	reg("Map", "Map[f_, lst_]",
		`Module[{mapN = Length[lst], mapOut = Native`+"`"+`ListNew[Length[lst]], mapI = 1},
			While[mapI <= mapN,
				Native`+"`"+`SetPartUnsafe[mapOut, mapI, f[Native`+"`"+`PartUnsafe[lst, mapI]]];
				mapI = mapI + 1];
			mapOut]`)
	reg("Fold", "Fold[f_, x0_, lst_]",
		`Module[{foldAcc = x0, foldI = 1, foldN = Length[lst]},
			While[foldI <= foldN,
				foldAcc = f[foldAcc, Native`+"`"+`PartUnsafe[lst, foldI]];
				foldI = foldI + 1];
			foldAcc]`)
	reg("Nest", "Nest[f_, x0_, n_]",
		`Module[{nestAcc = x0, nestI = 0, nestN = n},
			While[nestI < nestN, nestAcc = f[nestAcc]; nestI = nestI + 1];
			nestAcc]`)
	reg("NestList", "NestList[f_, x0_, n_]",
		`Module[{nlAcc = x0, nlI = 1, nlN = n, nlOut = Native`+"`"+`ListNew[n + 1]},
			Native`+"`"+`SetPartUnsafe[nlOut, 1, nlAcc];
			While[nlI <= nlN,
				nlAcc = f[nlAcc];
				Native`+"`"+`SetPartUnsafe[nlOut, nlI + 1, nlAcc];
				nlI = nlI + 1];
			nlOut]`)
	reg("NestWhile", "NestWhile[f_, x0_, test_]",
		`Module[{nwAcc = x0},
			While[test[nwAcc] === True, nwAcc = f[nwAcc]];
			nwAcc]`)
	reg("FoldList", "FoldList[f_, x0_, lst_]",
		`Module[{flAcc = x0, flI = 1, flN = Length[lst], flOut = Native`+"`"+`ListNew[Length[lst] + 1]},
			Native`+"`"+`SetPartUnsafe[flOut, 1, flAcc];
			While[flI <= flN,
				flAcc = f[flAcc, Native`+"`"+`PartUnsafe[lst, flI]];
				Native`+"`"+`SetPartUnsafe[flOut, flI + 1, flAcc];
				flI = flI + 1];
			flOut]`)
	reg("Total", "Total[lst_]",
		`Module[{totAcc = Native`+"`"+`PartUnsafe[lst, 1], totI = 2, totN = Length[lst]},
			While[totI <= totN, totAcc = totAcc + Native`+"`"+`PartUnsafe[lst, totI]; totI = totI + 1];
			totAcc]`)
	reg("Table", "Table[body_, {i_Symbol, a_, b_}]",
		`Module[{i = a, tblMax = b, tblK = 1, tblOut = Native`+"`"+`ListNew[b - a + 1]},
			While[i <= tblMax,
				Native`+"`"+`SetPartUnsafe[tblOut, tblK, body];
				tblK = tblK + 1;
				i = i + 1];
			tblOut]`)
	reg("Table", "Table[body_, {i_Symbol, b_}]", "Table[body, {i, 1, b}]")
	reg("Range", "Range[n_]", "Table[rangeI, {rangeI, 1, n}]")

	// Structural list operations, each a fresh-storage loop over the
	// Native primitives (the same lowering scheme as Map).
	reg("First", "First[lst_]", "lst[[1]]")
	reg("Last", "Last[lst_]", "lst[[-1]]")
	reg("Reverse", "Reverse[lst_]",
		`Module[{revN = Length[lst], revOut = Native`+"`"+`ListNew[Length[lst]], revI = 1},
			While[revI <= revN,
				Native`+"`"+`SetPartUnsafe[revOut, revI, Native`+"`"+`PartUnsafe[lst, revN - revI + 1]];
				revI = revI + 1];
			revOut]`)
	reg("Rest", "Rest[lst_]", "Drop[lst, 1]")
	reg("Most", "Most[lst_]", "Native`ListTake[lst, Length[lst] - 1]")
	reg("Drop", "Drop[lst_, k_]",
		`Module[{drpK = k, drpN = Length[lst] - k, drpOut = Native`+"`"+`ListNew[Length[lst] - k], drpI = 1},
			While[drpI <= drpN,
				Native`+"`"+`SetPartUnsafe[drpOut, drpI, Native`+"`"+`PartUnsafe[lst, drpI + drpK]];
				drpI = drpI + 1];
			drpOut]`)
	reg("MapIndexed", "MapIndexed[f_, lst_]",
		`Module[{miN = Length[lst], miOut = Native`+"`"+`ListNew[Length[lst]], miI = 1},
			While[miI <= miN,
				Native`+"`"+`SetPartUnsafe[miOut, miI, f[Native`+"`"+`PartUnsafe[lst, miI], {miI}]];
				miI = miI + 1];
			miOut]`)
	// Partition a vector into a k-column matrix, discarding the remainder
	// (the engine's Partition[v, k] semantics).
	reg("Partition", "Partition[lst_, k_]",
		`Module[{ptK = k, ptR = Quotient[Length[lst], k], ptOut = Native`+"`"+`MatrixNew[Quotient[Length[lst], k], k], ptI = 1, ptJ = 1},
			While[ptI <= ptR,
				ptJ = 1;
				While[ptJ <= ptK,
					Native`+"`"+`SetPartUnsafe[ptOut, ptI, ptJ, Native`+"`"+`PartUnsafe[lst, (ptI - 1)*ptK + ptJ]];
					ptJ = ptJ + 1];
				ptI = ptI + 1];
			ptOut]`)
	reg("Transpose", "Transpose[m_]",
		`Module[{trR = Length[m], trC = Length[m[[1]]], trOut = Native`+"`"+`MatrixNew[Length[m[[1]]], Length[m]], trI = 1, trJ = 1},
			While[trI <= trR,
				trJ = 1;
				While[trJ <= trC,
					Native`+"`"+`SetPartUnsafe[trOut, trJ, trI, m[[trI, trJ]]];
					trJ = trJ + 1];
				trI = trI + 1];
			trOut]`)

	// Span slicing v[[a ;; b]]: a fresh copy of the index range, with
	// negative endpoints resolved from the end as the engine does.
	reg("Part", "Part[lst_, Span[a_, b_]]",
		`Module[{spA = a, spB = b, spN = Length[lst], spOut, spI = 1},
			If[spA < 0, spA = spN + 1 + spA];
			If[spB < 0, spB = spN + 1 + spB];
			spOut = Native`+"`"+`ListNew[spB - spA + 1];
			While[spI <= spB - spA + 1,
				Native`+"`"+`SetPartUnsafe[spOut, spI, lst[[spA + spI - 1]]];
				spI = spI + 1];
			spOut]`)
	reg("Join", "Join[a_, b_, rest__]", "Join[Join[a, b], rest]")
	reg("Join", "Join[a_, b_]",
		`Module[{jnA = Length[a], jnB = Length[b], jnOut = Native`+"`"+`ListNew[Length[a] + Length[b]], jnI = 1},
			While[jnI <= jnA,
				Native`+"`"+`SetPartUnsafe[jnOut, jnI, Native`+"`"+`PartUnsafe[a, jnI]];
				jnI = jnI + 1];
			jnI = 1;
			While[jnI <= jnB,
				Native`+"`"+`SetPartUnsafe[jnOut, jnA + jnI, Native`+"`"+`PartUnsafe[b, jnI]];
				jnI = jnI + 1];
			jnOut]`)
	reg("Append", "Append[lst_, x_]",
		`Module[{apN = Length[lst], apOut = Native`+"`"+`ListNew[Length[lst] + 1], apI = 1},
			While[apI <= apN,
				Native`+"`"+`SetPartUnsafe[apOut, apI, Native`+"`"+`PartUnsafe[lst, apI]];
				apI = apI + 1];
			Native`+"`"+`SetPartUnsafe[apOut, apN + 1, x];
			apOut]`)
	reg("Prepend", "Prepend[lst_, x_]",
		`Module[{ppN = Length[lst], ppOut = Native`+"`"+`ListNew[Length[lst] + 1], ppI = 1},
			Native`+"`"+`SetPartUnsafe[ppOut, 1, x];
			While[ppI <= ppN,
				Native`+"`"+`SetPartUnsafe[ppOut, ppI + 1, Native`+"`"+`PartUnsafe[lst, ppI]];
				ppI = ppI + 1];
			ppOut]`)
	reg("Accumulate", "Accumulate[lst_]",
		`Module[{acN = Length[lst], acOut = Native`+"`"+`ListNew[Length[lst]], acI = 2, acAcc = Native`+"`"+`PartUnsafe[lst, 1]},
			Native`+"`"+`SetPartUnsafe[acOut, 1, acAcc];
			While[acI <= acN,
				acAcc = acAcc + Native`+"`"+`PartUnsafe[lst, acI];
				Native`+"`"+`SetPartUnsafe[acOut, acI, acAcc];
				acI = acI + 1];
			acOut]`)
	reg("Mean", "Mean[lst_]", "Total[lst]/Length[lst]")
	// MemberQ/Count by value equality — in compiled code the target is
	// always a concrete value, so this coincides with the engine's
	// pattern-based semantics.
	reg("MemberQ", "MemberQ[lst_, x_]",
		`Module[{mqN = Length[lst], mqI = 1, mqHit = False, mqX = x},
			While[mqI <= mqN && mqHit === False,
				If[Native`+"`"+`PartUnsafe[lst, mqI] == mqX, mqHit = True];
				mqI = mqI + 1];
			mqHit]`)
	reg("Count", "Count[lst_, x_]",
		`Module[{cntN = Length[lst], cntI = 1, cntK = 0, cntX = x},
			While[cntI <= cntN,
				If[Native`+"`"+`PartUnsafe[lst, cntI] == cntX, cntK = cntK + 1];
				cntI = cntI + 1];
			cntK]`)

	// Select keeps matching elements: fill a full-size buffer, truncate.
	reg("Select", "Select[lst_, pred_]",
		`Module[{selN = Length[lst], selOut = Native`+"`"+`ListNew[Length[lst]], selI = 1, selK = 0, selV = Native`+"`"+`PartUnsafe[lst, 1]},
			While[selI <= selN,
				selV = Native`+"`"+`PartUnsafe[lst, selI];
				If[pred[selV] === True,
					selK = selK + 1;
					Native`+"`"+`SetPartUnsafe[selOut, selK, selV]];
				selI = selI + 1];
			Native`+"`"+`ListTake[selOut, selK]]`)

	// Sum over an iterator range.
	reg("Sum", "Sum[body_, {i_Symbol, a_, b_}]",
		`Module[{i = a, sumMax = b, sumAcc = 0},
			While[i <= sumMax, sumAcc = sumAcc + body; i = i + 1];
			sumAcc]`)
	reg("Sum", "Sum[body_, {i_Symbol, b_}]", "Sum[body, {i, 1, b}]")
	reg("Product", "Product[body_, {i_Symbol, a_, b_}]",
		`Module[{i = a, prodMax = b, prodAcc = 1},
			While[i <= prodMax, prodAcc = prodAcc*body; i = i + 1];
			prodAcc]`)
	reg("Product", "Product[body_, {i_Symbol, b_}]", "Product[body, {i, 1, b}]")

	// ConstantArray is one allocate-and-fill primitive per rank.
	reg("ConstantArray", "ConstantArray[v_, {r_, c_}]", "Native`MatrixFill[r, c, v]")
	reg("ConstantArray", "ConstantArray[v_, {n_}]", "Native`ListFill[n, v]")
	reg("ConstantArray", "ConstantArray[v_, n_]", "Native`ListFill[n, v]")

	// Random-number forms normalise to the runtime primitives.
	reg("RandomReal", "RandomReal[]", "Native`RandomReal01[]")
	reg("RandomReal", "RandomReal[{a_, b_}]", "Native`RandomRealRange[a, b]")
	reg("RandomReal", "RandomReal[hi_]", "Native`RandomRealRange[0., hi]")
	reg("RandomInteger", "RandomInteger[{a_, b_}]", "Native`RandomIntegerRange[a, b]")
	reg("RandomInteger", "RandomInteger[hi_]", "Native`RandomIntegerRange[0, hi]")
	reg("RandomInteger", "RandomInteger[]", "Native`RandomIntegerRange[0, 1]")

	e.frozen = true
	return e
})

// ExpandSlots rewrites Native`SlotFunction[body] into Function[{params},
// body'] by scanning for the highest Slot index. It runs as a post-step of
// macro expansion because the rewrite needs tree inspection, not just
// pattern matching.
func ExpandSlots(e expr.Expr) expr.Expr {
	return ExpandSlotsSource(e, nil)
}

// ExpandSlotsSource is ExpandSlots with source-span propagation: rebuilt
// nodes inherit the span of the node they replace (nil src disables). The
// traversal is bottom-up, matching expr.Replace.
func ExpandSlotsSource(e expr.Expr, src *diag.Source) expr.Expr {
	slotFn := expr.Sym("Native`SlotFunction")
	var rec func(x expr.Expr) (expr.Expr, error)
	rec = func(x expr.Expr) (expr.Expr, error) {
		if n, ok := x.(*expr.Normal); ok {
			if rebuilt, _ := rebuild(n, rec); rebuilt != nil {
				src.CopySpan(rebuilt, x)
				x = rebuilt
			}
		}
		if n, ok := expr.IsNormalN(x, slotFn, 1); ok {
			out := rewriteSlotFunction(n)
			src.CopySpan(out, x)
			return out, nil
		}
		return x, nil
	}
	out, _ := rec(e)
	return out
}

// rewriteSlotFunction converts one Native`SlotFunction[body] node into
// Function[{params}, body'] by scanning for the highest Slot index.
func rewriteSlotFunction(n *expr.Normal) expr.Expr {
	maxSlot := 0
	expr.Walk(n.Arg(1), func(sub expr.Expr) bool {
		if s, ok := expr.IsNormalN(sub, expr.SymSlot, 1); ok {
			if i, ok := s.Arg(1).(*expr.Integer); ok && i.IsMachine() && int(i.Int64()) > maxSlot {
				maxSlot = int(i.Int64())
			}
		}
		return true
	})
	params := make([]expr.Expr, maxSlot)
	renames := map[int64]*expr.Symbol{}
	for i := 1; i <= maxSlot; i++ {
		p := freshSym(expr.Sym("slot"))
		params[i-1] = p
		renames[int64(i)] = p
	}
	body := expr.Replace(n.Arg(1), func(sub expr.Expr) expr.Expr {
		if s, ok := expr.IsNormalN(sub, expr.SymSlot, 1); ok {
			if i, ok := s.Arg(1).(*expr.Integer); ok && i.IsMachine() {
				if p, found := renames[i.Int64()]; found {
					return p
				}
			}
		}
		return sub
	})
	return expr.New(expr.SymFunction, expr.List(params...), body)
}
