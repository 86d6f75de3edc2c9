package types

import (
	"sync"

	"wolfc/internal/expr"
	"wolfc/internal/parser"
)

// Builtin returns the compiler's default builtin type environment: the type
// classes, aliases, and primitive function declarations shared by every
// compilation (paper §4.4: "a default builtin type environment is
// provided"). Each call returns a new empty environment chained to the one
// standard library the process parses (on first use), so callers extend
// theirs freely (§4.7) and never see each other's declarations. An overload
// a caller declares for a name the library already has is tried before the
// library's (Lookup is nearest-environment-first).
func Builtin() *Env { return NewEnv(builtinRoot()) }

// builtinRoot is the standard library itself, frozen: every compiler in the
// process reads it concurrently and nothing outside this package can name it.
var builtinRoot = sync.OnceValue(func() *Env {
	e := NewEnv(nil)

	// Aliases (surface names → canonical constructors).
	e.DeclareType("Integer8", "Integer16", "Integer32", "Integer64",
		"UnsignedInteger8", "UnsignedInteger16", "UnsignedInteger32",
		"UnsignedInteger64", "Real32", "Real64", "ComplexReal64", "Boolean",
		"String", "Expression", "Void", "Tensor", "Function")
	e.DeclareAlias("MachineInteger", "Integer64")
	e.DeclareAlias("Integer", "Integer64")
	e.DeclareAlias("Real", "Real64")
	e.DeclareAlias("Complex", "ComplexReal64")
	e.DeclareAlias("PackedArray", "Tensor")

	// Type classes (paper §4.4: "Integral", "Ordered", "Reals", "Indexed",
	// "MemoryManaged", etc.).
	ints := []string{
		"Integer8", "Integer16", "Integer32", "Integer64",
		"UnsignedInteger8", "UnsignedInteger16", "UnsignedInteger32", "UnsignedInteger64",
	}
	reals := []string{"Real32", "Real64"}
	e.DeclareClass("Integral", ints...)
	e.DeclareClass("Reals", reals...)
	e.DeclareClass("Floating", "Real32", "Real64", "ComplexReal64")
	e.DeclareClass("Number", append(append([]string{}, ints...), "Real32", "Real64", "ComplexReal64")...)
	e.DeclareClass("Ordered", append(append([]string{}, ints...), "Real32", "Real64", "String")...)
	e.DeclareClass("Equatable", append(append([]string{}, ints...),
		"Real32", "Real64", "ComplexReal64", "String", "Boolean", "Expression")...)
	e.DeclareClass("MemoryManaged", "String", "Expression", "Tensor", "Function")
	e.DeclareClass("Container", "Tensor")
	e.DeclareClass("Indexed", "Tensor")

	// decl declares a native-backed overload and records its native's
	// effect, which every row naming that native shares (NativeEffect).
	decl := func(eff Effect, name, spec, native string) {
		if was, ok := nativeEffects[native]; ok && was != eff {
			panic("types: native " + native + " declared with two effects")
		}
		nativeEffects[native] = eff
		e.DeclareFunction(&FuncDef{
			Name:   name,
			Type:   e.MustParseSpec(parser.MustParse(spec)),
			Native: native,
		})
	}

	// Scalar arithmetic. Integer forms are overflow-checked by the runtime
	// and raise the numeric exception driving the soft fallback (F2).
	for _, op := range []string{"Plus", "Times", "Subtract"} {
		decl(pureIfInexact, op, `TypeForAll[{"a"}, {Element["a", "Number"]}, {"a", "a"} -> "a"]`, "binary_"+lower(op))
	}
	decl(pureIfInexact, "Minus", `TypeForAll[{"a"}, {Element["a", "Number"]}, {"a"} -> "a"]`, "unary_minus")
	// Mixed-width promotion, as the engine's arithmetic tower does
	// implicitly: integer operands widen to real, reals to complex. These
	// rank below the same-type overloads, so exact arithmetic is preferred
	// when it is consistent.
	for _, op := range []string{"Plus", "Times", "Subtract"} {
		decl(Pure, op, `{"Real64", "Integer64"} -> "Real64"`, "mixed_ri_"+lower(op))
		decl(Pure, op, `{"Integer64", "Real64"} -> "Real64"`, "mixed_ir_"+lower(op))
		decl(Pure, op, `{"ComplexReal64", "Real64"} -> "ComplexReal64"`, "mixed_cr_"+lower(op))
		decl(Pure, op, `{"Real64", "ComplexReal64"} -> "ComplexReal64"`, "mixed_rc_"+lower(op))
	}
	decl(Pure, "Divide", `{"Real64", "Integer64"} -> "Real64"`, "mixed_ri_divide")
	decl(Pure, "Divide", `{"Integer64", "Real64"} -> "Real64"`, "mixed_ir_divide")
	decl(Pure, "Divide", `TypeForAll[{"a"}, {Element["a", "Floating"]}, {"a", "a"} -> "a"]`, "binary_divide")
	decl(Pure, "Divide", `{"Integer64", "Integer64"} -> "Real64"`, "divide_int_real")
	decl(Throws, "Power", `{"Integer64", "Integer64"} -> "Integer64"`, "power_int")
	decl(Pure, "Power", `{"Real64", "Real64"} -> "Real64"`, "power_real")
	decl(Pure, "Power", `{"Real64", "Integer64"} -> "Real64"`, "power_real_int")
	decl(Throws, "Power", `{"ComplexReal64", "Integer64"} -> "ComplexReal64"`, "power_complex_int")
	decl(Throws, "Power", `{"ComplexReal64", "ComplexReal64"} -> "ComplexReal64"`, "power_complex")
	decl(Throws, "Mod", `TypeForAll[{"a"}, {Element["a", "Integral"]}, {"a", "a"} -> "a"]`, "mod_int")
	decl(Pure, "Mod", `{"Real64", "Real64"} -> "Real64"`, "mod_real")
	decl(Throws, "Quotient", `TypeForAll[{"a"}, {Element["a", "Integral"]}, {"a", "a"} -> "a"]`, "quotient_int")
	decl(Throws, "Abs", `{"Integer64"} -> "Integer64"`, "abs_int")
	decl(Pure, "Abs", `{"Real64"} -> "Real64"`, "abs_real")
	decl(Pure, "Abs", `{"ComplexReal64"} -> "Real64"`, "abs_complex")
	decl(Pure, "Min", `TypeForAll[{"a"}, {Element["a", "Ordered"]}, {"a", "a"} -> "a"]`, "min")
	decl(Pure, "Max", `TypeForAll[{"a"}, {Element["a", "Ordered"]}, {"a", "a"} -> "a"]`, "max")

	// Comparisons.
	for _, op := range []string{"Less", "LessEqual", "Greater", "GreaterEqual"} {
		decl(Pure, op, `TypeForAll[{"a"}, {Element["a", "Ordered"]}, {"a", "a"} -> "Boolean"]`, "cmp_"+lower(op))
	}
	for _, op := range []string{"Equal", "Unequal"} {
		decl(Pure, op, `TypeForAll[{"a"}, {Element["a", "Equatable"]}, {"a", "a"} -> "Boolean"]`, "cmp_"+lower(op))
	}
	for _, op := range []string{"Less", "LessEqual", "Greater", "GreaterEqual", "Equal", "Unequal"} {
		decl(Pure, op, `{"Real64", "Integer64"} -> "Boolean"`, "mixed_ri_cmp_"+lower(op))
		decl(Pure, op, `{"Integer64", "Real64"} -> "Boolean"`, "mixed_ir_cmp_"+lower(op))
	}
	// Pattern-dispatch miss (internal/patcomp): the compiled image of "no
	// DownValue rule matched this argument tuple". Diverges (throws), so its
	// result type is a free variable that unifies with whatever the live
	// branches of the dispatch tree produce. The operand is a dummy.
	decl(Effectful, "Compile`PatternMiss", `TypeForAll[{"a"}, {"Integer64"} -> "a"]`, "pattern_miss")
	decl(Pure, "SameQ", `{"Boolean", "Boolean"} -> "Boolean"`, "sameq_bool")
	decl(Pure, "SameQ", `TypeForAll[{"a"}, {Element["a", "Number"]}, {"a", "a"} -> "Boolean"]`, "cmp_equal")
	decl(Throws, "SameQ", `{"Expression", "Expression"} -> "Boolean"`, "sameq_expr")
	decl(Pure, "SameQ", `{"String", "String"} -> "Boolean"`, "cmp_equal")
	decl(Pure, "Not", `{"Boolean"} -> "Boolean"`, "not")
	// The eager connectives if-conversion emits (passes.FlattenCond).
	decl(Pure, "Native`And", `{"Boolean", "Boolean"} -> "Boolean"`, "and")
	decl(Pure, "Native`Or", `{"Boolean", "Boolean"} -> "Boolean"`, "or")

	// Elementary real functions; integer arguments coerce through a Real64
	// overload, mirroring the engine's N-like promotion.
	for _, fn := range []string{"Sin", "Cos", "Tan", "Exp", "Log", "Sqrt", "ArcTan", "ArcSin", "ArcCos"} {
		decl(Pure, fn, `{"Real64"} -> "Real64"`, "math_"+lower(fn))
		decl(Pure, fn, `{"Integer64"} -> "Real64"`, "math_"+lower(fn)+"_int")
	}
	decl(Pure, "ArcTan", `{"Real64", "Real64"} -> "Real64"`, "math_atan2")
	// Listable threading of the elementary functions over real tensors.
	for _, fn := range []string{"Sin", "Cos", "Tan", "Exp", "Log", "Sqrt", "Abs"} {
		decl(Throws, fn, `TypeForAll[{"r"}, {"Tensor"["Real64", "r"]} -> "Tensor"["Real64", "r"]]`,
			"tensor_math_"+lower(fn))
	}
	for _, fn := range []string{"Floor", "Ceiling", "Round"} {
		decl(Throws, fn, `{"Real64"} -> "Integer64"`, lower(fn)+"_real")
		decl(Pure, fn, `{"Integer64"} -> "Integer64"`, "identity_int")
	}
	decl(Pure, "Sign", `{"Integer64"} -> "Integer64"`, "sign_int")
	decl(Pure, "Sign", `{"Real64"} -> "Integer64"`, "sign_real")
	decl(Pure, "EvenQ", `{"Integer64"} -> "Boolean"`, "evenq")
	decl(Pure, "OddQ", `{"Integer64"} -> "Boolean"`, "oddq")
	// Not over Number: N of a complex is a complex, and to_real64 has no
	// complex form in any backend.
	for _, class := range []string{"Integral", "Reals"} {
		decl(Pure, "N", `TypeForAll[{"a"}, {Element["a", "`+class+`"]}, {"a"} -> "Real64"]`, "to_real64")
	}

	// Bit operations.
	for _, op := range []string{"BitAnd", "BitOr", "BitXor"} {
		decl(Pure, op, `TypeForAll[{"a"}, {Element["a", "Integral"]}, {"a", "a"} -> "a"]`, lower(op))
	}
	decl(Throws, "BitShiftLeft", `TypeForAll[{"a"}, {Element["a", "Integral"]}, {"a", "Integer64"} -> "a"]`, "bitshiftleft")
	decl(Throws, "BitShiftRight", `TypeForAll[{"a"}, {Element["a", "Integral"]}, {"a", "Integer64"} -> "a"]`, "bitshiftright")

	// Tensors. Checked Part honours negative indexing; the Unsafe variants
	// are emitted by macro-generated loops whose indices are provably in
	// range (paper §6: redundant index-check removal).
	decl(Pure, "Length", `TypeForAll[{"a", "r"}, {"Tensor"["a", "r"]} -> "Integer64"]`, "tensor_length")
	decl(Throws, "Length", `{"String"} -> "Integer64"`, "string_length")
	decl(Throws, "Part", `TypeForAll[{"a"}, {"Tensor"["a", 1], "Integer64"} -> "a"]`, "part_1")
	decl(Throws, "Part", `TypeForAll[{"a"}, {"Tensor"["a", 2], "Integer64", "Integer64"} -> "a"]`, "part_2")
	decl(Throws, "Part", `TypeForAll[{"a"}, {"Tensor"["a", 2], "Integer64"} -> "Tensor"["a", 1]]`, "part_row")
	decl(Throws, "Native`PartUnsafe", `TypeForAll[{"a"}, {"Tensor"["a", 1], "Integer64"} -> "a"]`, "part_unsafe_1")
	decl(Throws, "Native`PartUnsafe", `TypeForAll[{"a"}, {"Tensor"["a", 2], "Integer64", "Integer64"} -> "a"]`, "part_unsafe_2")
	decl(Throws, "Native`PartUnsafe", `TypeForAll[{"a"}, {"Tensor"["a", 2], "Integer64"} -> "Tensor"["a", 1]]`, "part_row")
	decl(Effectful, "Native`SetPart", `TypeForAll[{"a"}, {"Tensor"["a", 1], "Integer64", "a"} -> "Tensor"["a", 1]]`, "setpart_1")
	decl(Effectful, "Native`SetPart", `TypeForAll[{"a"}, {"Tensor"["a", 2], "Integer64", "Integer64", "a"} -> "Tensor"["a", 2]]`, "setpart_2")
	decl(Effectful, "Native`SetPartUnsafe", `TypeForAll[{"a"}, {"Tensor"["a", 1], "Integer64", "a"} -> "Tensor"["a", 1]]`, "setpart_unsafe_1")
	decl(Effectful, "Native`SetPartUnsafe", `TypeForAll[{"a"}, {"Tensor"["a", 2], "Integer64", "Integer64", "a"} -> "Tensor"["a", 2]]`, "setpart_unsafe_2")
	decl(Throws, "Native`ListNew", `TypeForAll[{"a"}, {"Integer64"} -> "Tensor"["a", 1]]`, "list_new")
	decl(Throws, "Native`MatrixNew", `TypeForAll[{"a"}, {"Integer64", "Integer64"} -> "Tensor"["a", 2]]`, "matrix_new")
	decl(Throws, "Native`ListFill", `TypeForAll[{"a"}, {"Integer64", "a"} -> "Tensor"["a", 1]]`, "list_fill")
	decl(Throws, "Native`MatrixFill", `TypeForAll[{"a"}, {"Integer64", "Integer64", "a"} -> "Tensor"["a", 2]]`, "matrix_fill")
	decl(Throws, "Native`Copy", `TypeForAll[{"a", "r"}, {"Tensor"["a", "r"]} -> "Tensor"["a", "r"]]`, "copy_tensor")
	decl(Effectful, "Native`MemoryAcquire", `TypeForAll[{"a"}, {"a"} -> "Void"]`, "memory_acquire")
	decl(Effectful, "Native`MemoryRelease", `TypeForAll[{"a"}, {"a"} -> "Void"]`, "memory_release")
	decl(Throws, "Native`ListTake", `TypeForAll[{"a"}, {"Tensor"["a", 1], "Integer64"} -> "Tensor"["a", 1]]`, "list_take")
	decl(Throws, "Take", `TypeForAll[{"a"}, {"Tensor"["a", 1], "Integer64"} -> "Tensor"["a", 1]]`, "list_take")

	// Rank-discriminated library functions: the overload picks the rank,
	// the Wolfram-source implementation is instantiated at it (§4.4/§4.5).
	e.DeclareFunction(&FuncDef{
		Name: "Dimensions",
		Type: e.MustParseSpec(parser.MustParse(
			`TypeForAll[{"a"}, {"Tensor"["a", 1]} -> "Tensor"["Integer64", 1]]`)),
		Impl: parser.MustParse(`Function[{lst}, {Length[lst]}]`),
	})
	e.DeclareFunction(&FuncDef{
		Name: "Dimensions",
		Type: e.MustParseSpec(parser.MustParse(
			`TypeForAll[{"a"}, {"Tensor"["a", 2]} -> "Tensor"["Integer64", 1]]`)),
		Impl: parser.MustParse(`Function[{m}, {Length[m], Length[m[[1]]]}]`),
	})
	e.DeclareFunction(&FuncDef{
		Name: "Flatten",
		Type: e.MustParseSpec(parser.MustParse(
			`TypeForAll[{"a"}, {"Tensor"["a", 2]} -> "Tensor"["a", 1]]`)),
		Impl: parser.MustParse(`Function[{m},
			Module[{flR = Length[m], flC = Length[m[[1]]], flOut, flI = 1, flJ = 1},
				flOut = Native` + "`" + `ListNew[Length[m]*Length[m[[1]]]];
				While[flI <= flR,
					flJ = 1;
					While[flJ <= flC,
						Native` + "`" + `SetPartUnsafe[flOut, (flI - 1)*flC + flJ, m[[flI, flJ]]];
						flJ = flJ + 1];
					flI = flI + 1];
				flOut]]`),
	})

	// Sort ships as a Wolfram-source implementation (insertion sort on a
	// fresh copy), instantiated per concrete element type at function
	// resolution — the paper's library-function mechanism (§4.4: "the
	// implementations are written in the Wolfram Language"; §4.5).
	sortImpl := `Function[{lst},
		Module[{out = Native` + "`" + `Copy[lst], n = Length[lst], i = 2, j = 0, key},
			key = Native` + "`" + `PartUnsafe[out, 1];
			While[i <= n,
				key = Native` + "`" + `PartUnsafe[out, i];
				j = i - 1;
				While[j >= 1 && Native` + "`" + `PartUnsafe[out, j] > key,
					Native` + "`" + `SetPartUnsafe[out, j + 1, Native` + "`" + `PartUnsafe[out, j]];
					j = j - 1];
				Native` + "`" + `SetPartUnsafe[out, j + 1, key];
				i = i + 1];
			out]]`
	e.DeclareFunction(&FuncDef{
		Name: "Sort",
		Type: e.MustParseSpec(parser.MustParse(
			`TypeForAll[{"a"}, {Element["a", "Ordered"]}, {"Tensor"["a", 1]} -> "Tensor"["a", 1]]`)),
		Impl: parser.MustParse(sortImpl),
	})
	// Sort with an explicit comparator (a function value, the capability
	// the bytecode compiler lacks — §6 QSort).
	sortByImpl := `Function[{lst, cmp},
		Module[{out = Native` + "`" + `Copy[lst], n = Length[lst], i = 2, j = 0, key},
			key = Native` + "`" + `PartUnsafe[out, 1];
			While[i <= n,
				key = Native` + "`" + `PartUnsafe[out, i];
				j = i - 1;
				While[j >= 1 && cmp[key, Native` + "`" + `PartUnsafe[out, j]] === True,
					Native` + "`" + `SetPartUnsafe[out, j + 1, Native` + "`" + `PartUnsafe[out, j]];
					j = j - 1];
				Native` + "`" + `SetPartUnsafe[out, j + 1, key];
				i = i + 1];
			out]]`
	e.DeclareFunction(&FuncDef{
		Name: "Sort",
		Type: e.MustParseSpec(parser.MustParse(
			`TypeForAll[{"a"}, {"Tensor"["a", 1], {"a", "a"} -> "Boolean"} -> "Tensor"["a", 1]]`)),
		Impl: parser.MustParse(sortByImpl),
	})

	// Tensor arithmetic (Listable threading in compiled code).
	for _, op := range []string{"Plus", "Times", "Subtract"} {
		decl(Throws, op, `TypeForAll[{"a", "r"}, {Element["a", "Number"]}, {"Tensor"["a", "r"], "Tensor"["a", "r"]} -> "Tensor"["a", "r"]]`,
			"tensor_"+lower(op))
		decl(Throws, op, `TypeForAll[{"a", "r"}, {Element["a", "Number"]}, {"Tensor"["a", "r"], "a"} -> "Tensor"["a", "r"]]`,
			"tensor_scalar_"+lower(op))
		decl(Throws, op, `TypeForAll[{"a", "r"}, {Element["a", "Number"]}, {"a", "Tensor"["a", "r"]} -> "Tensor"["a", "r"]]`,
			"scalar_tensor_"+lower(op))
	}
	decl(Throws, "Minus", `TypeForAll[{"a", "r"}, {Element["a", "Number"]}, {"Tensor"["a", "r"]} -> "Tensor"["a", "r"]]`, "tensor_minus")

	// Dot routes through the shared BLAS (the MKL stand-in, paper §6).
	decl(Throws, "Dot", `{"Tensor"["Real64", 2], "Tensor"["Real64", 2]} -> "Tensor"["Real64", 2]`, "dot_mm")
	decl(Throws, "Dot", `{"Tensor"["Real64", 2], "Tensor"["Real64", 1]} -> "Tensor"["Real64", 1]`, "dot_mv")
	decl(Throws, "Dot", `{"Tensor"["Real64", 1], "Tensor"["Real64", 1]} -> "Real64"`, "dot_vv")

	// Image/statistics kernels as natives (the scalar-loop benchmark bodies
	// remain available as compiled loops).
	decl(Throws, "Native`GaussianBlur", `{"Tensor"["Real64", 2]} -> "Tensor"["Real64", 2]`, "gaussian_blur")
	decl(Throws, "Native`Histogram", `{"Tensor"["Integer64", 1], "Integer64"} -> "Tensor"["Integer64", 1]`, "histogram_bins")

	// Random numbers (range forms are normalised by the core lowering).
	decl(Effectful, "Native`RandomReal01", `{} -> "Real64"`, "random_real01")
	decl(Effectful, "Native`RandomRealRange", `{"Real64", "Real64"} -> "Real64"`, "random_real_range")
	decl(Effectful, "Native`RandomIntegerRange", `{"Integer64", "Integer64"} -> "Integer64"`, "random_int_range")

	// Strings (the new compiler's headline expressiveness win, L1/§6 FNV1a).
	decl(Throws, "StringJoin", `{"String", "String"} -> "String"`, "string_join")
	decl(Throws, "StringLength", `{"String"} -> "Integer64"`, "string_length")
	decl(Throws, "Native`StringByteLength", `{"String"} -> "Integer64"`, "string_byte_length")
	decl(Throws, "Native`StringByte", `{"String", "Integer64"} -> "Integer64"`, "string_byte")
	decl(Throws, "ToCharacterCode", `{"String"} -> "Tensor"["Integer64", 1]`, "to_char_code")
	decl(Throws, "FromCharacterCode", `{"Tensor"["Integer64", 1]} -> "String"`, "from_char_code")
	decl(Throws, "StringTake", `{"String", "Integer64"} -> "String"`, "string_take")
	decl(Throws, "ToString", `{"Integer64"} -> "String"`, "int_to_string")
	decl(Throws, "ToString", `{"Real64"} -> "String"`, "real_to_string")

	// Complex number construction and parts.
	decl(Pure, "Complex", `{"Real64", "Real64"} -> "ComplexReal64"`, "make_complex")
	decl(Pure, "Re", `{"ComplexReal64"} -> "Real64"`, "re")
	decl(Pure, "Im", `{"ComplexReal64"} -> "Real64"`, "im")

	// Symbolic computation on the Expression type (F8). These run through
	// the engine runtime using threaded interpretation, bypassing the full
	// interpreter loop (paper §4.5).
	decl(Effectful, "Plus", `{"Expression", "Expression"} -> "Expression"`, "expr_binary_plus")
	decl(Effectful, "Times", `{"Expression", "Expression"} -> "Expression"`, "expr_binary_times")
	decl(Effectful, "Power", `{"Expression", "Expression"} -> "Expression"`, "expr_binary_power")
	decl(Effectful, "Native`KernelCall", `{"Expression"} -> "Expression"`, "kernel_call")
	decl(Throws, "Native`ToExpression", `TypeForAll[{"a"}, {Element["a", "Number"]}, {"a"} -> "Expression"]`, "box_number")

	// Type conversions between machine widths.
	for _, from := range []string{"Integer8", "Integer16", "Integer32", "Integer64",
		"UnsignedInteger8", "UnsignedInteger16", "UnsignedInteger32", "UnsignedInteger64"} {
		for _, to := range []string{"Integer8", "Integer16", "Integer32", "Integer64",
			"UnsignedInteger8", "UnsignedInteger16", "UnsignedInteger32", "UnsignedInteger64"} {
			if from != to {
				decl(Pure, "Native`Cast"+to, `{"`+from+`"} -> "`+to+`"`, "cast")
			}
		}
	}
	decl(Pure, "Native`CastReal64", `{"Integer64"} -> "Real64"`, "to_real64")

	e.frozen = true
	return e
})

// Effect is what a native may do besides return a value: what DCE, CSE,
// LICM, if-conversion and the closure backend's fusion barriers read. It
// belongs to the native, not to one row: a row outside the library that
// names a library native gets the library's class. The zero value is the
// safe one, so a native no library row declares is left where it is.
type Effect uint8

const (
	// Effectful natives write memory, draw random numbers, call the engine
	// or throw on purpose: no pass deletes, merges, moves or defers them.
	Effectful Effect = iota
	// Throws natives have no effect but may raise the numeric exception
	// that drives the interpreter fallback (F2): unused, they may be
	// deleted, and equal ones merged, but they never run speculatively.
	Throws
	// Pure natives never throw, so they may also be hoisted out of a loop
	// or speculated by if-conversion.
	Pure
	// pureIfInexact is Pure at Real64 and ComplexReal64 results and Throws
	// at the others, whose arithmetic is overflow-checked.
	pureIfInexact
)

// nativeEffects is keyed by native name; builtinRoot fills it once.
var nativeEffects = map[string]Effect{}

// NativeEffect reports the effect of the native primitive at the given
// result type. A native no library row declares is Effectful.
func NativeEffect(native string, result Type) Effect {
	builtinRoot()
	eff := nativeEffects[native]
	if eff == pureIfInexact {
		if result == TReal64 || result == TComplex {
			return Pure
		}
		return Throws
	}
	return eff
}

func lower(s string) string {
	out := make([]byte, len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 'A' && c <= 'Z' {
			c += 'a' - 'A'
		}
		out[i] = c
	}
	return string(out)
}

// TypedOf extracts a Typed[x, spec] annotation's type from an expression,
// used by compile front ends.
func TypedOf(env *Env, e expr.Expr) (expr.Expr, Type, bool, error) {
	t, ok := expr.IsNormalN(e, expr.SymTyped, 2)
	if !ok {
		return e, nil, false, nil
	}
	ty, err := env.ParseSpec(t.Arg(2))
	if err != nil {
		return nil, nil, false, err
	}
	return t.Arg(1), ty, true, nil
}
