package bench

import (
	"fmt"
	"io"
	"math/rand"

	"wolfc/internal/core"
	"wolfc/internal/expr"
	"wolfc/internal/kernel"
	"wolfc/internal/parser"
	"wolfc/internal/runtime"
	"wolfc/internal/vm"
)

// Impl selects the implementation under measurement (the bars of Figure 2).
type Impl string

const (
	// ImplGo is the hand-written Go reference (the paper's hand-tuned C).
	ImplGo Impl = "go"
	// ImplCompiled is the new compiler with abort handling on (default).
	ImplCompiled Impl = "compiled"
	// ImplCompiledNoAbort disables abort checks (Figure 2's second series).
	ImplCompiledNoAbort Impl = "compiled-noabort"
	// ImplBytecode is the legacy bytecode compiler on the WVM.
	ImplBytecode Impl = "bytecode"
	// ImplInterp is the plain interpreter.
	ImplInterp Impl = "interpreter"
)

// Impls lists the Figure 2 series in display order.
func Impls() []Impl {
	return []Impl{ImplGo, ImplCompiled, ImplCompiledNoAbort, ImplBytecode, ImplInterp}
}

// Names lists the benchmarks: Figure 2's seven plus Figure 1's random walk.
func Names() []string {
	return []string{"fnv1a", "mandelbrot", "dot", "blur", "histogram", "primeq", "qsort", "randomwalk"}
}

// Describe returns the benchmark's workload description.
func Describe(name string) string { return describe(name) }

// DefaultSize returns the paper's workload parameter for a benchmark.
func DefaultSize(name string) int {
	switch name {
	case "fnv1a":
		return 1_000_000 // string length (§6)
	case "mandelbrot":
		return 1000 // max iterations (§6)
	case "dot":
		return 1000 // matrix dimension (§6: 1000x1000)
	case "blur":
		return 1000 // image side (§6: 1000x1000)
	case "histogram":
		return 1_000_000 // element count (§6)
	case "primeq":
		return 1_000_000 // range (§6)
	case "qsort":
		return 1 << 15 // pre-sorted list length (§6)
	case "randomwalk":
		return 100_000 // walk length (§1, Figure 1)
	}
	return 0
}

// Runner executes one prepared benchmark operation and returns a checksum
// value used to validate cross-implementation agreement.
type Runner func() string

// Prepare builds a Runner for (benchmark, implementation, size). All
// compilation happens here; the Runner measures only execution.
func Prepare(name string, impl Impl, size int) (Runner, error) {
	k := kernel.New()
	k.Out = io.Discard
	k.Seed(42)
	k.IterationLimit = 1 << 62 // interpreter workloads legitimately run long
	c := core.NewCompiler(k)
	if impl == ImplCompiledNoAbort {
		c.Options.AbortHandling = false
	}
	switch name {
	case "fnv1a":
		return prepareFNV1a(k, c, impl, size)
	case "mandelbrot":
		return prepareMandelbrot(k, c, impl, size)
	case "dot":
		return prepareDot(k, c, impl, size)
	case "blur":
		return prepareBlur(k, c, impl, size)
	case "histogram":
		return prepareHistogram(k, c, impl, size)
	case "primeq":
		return preparePrimeQ(k, c, impl, size)
	case "qsort":
		return prepareQSort(k, c, impl, size)
	case "randomwalk":
		return prepareRandomWalk(k, c, impl, size)
	}
	return nil, fmt.Errorf("bench: unknown benchmark %q", name)
}

// --- helpers ---

func realTensor(v []float64, dims ...int) *runtime.Tensor {
	t := runtime.NewTensor(runtime.KR64, dims...)
	copy(t.F, v)
	t.MarkShared()
	return t
}

func intTensor(v []int64, dims ...int) *runtime.Tensor {
	t := runtime.NewTensor(runtime.KI64, dims...)
	copy(t.I, v)
	t.MarkShared()
	return t
}

func vmRealTensor(v []float64, dims ...int) *vm.Tensor {
	t := vm.NewRealTensor(dims...)
	copy(t.R, v)
	return t
}

func vmIntTensor(v []int64, dims ...int) *vm.Tensor {
	t := vm.NewIntTensor(dims...)
	copy(t.I, v)
	return t
}

// interpApply builds an interpreter call closure: the held function applied
// to the prepared arguments.
func interpApply(k *kernel.Kernel, fn expr.Expr, args ...expr.Expr) func() expr.Expr {
	call := expr.New(fn, args...)
	return func() expr.Expr {
		out, err := k.Run(call)
		if err != nil {
			panic(fmt.Sprintf("interpreter benchmark: %v", err))
		}
		return out
	}
}

func sumTensorF(t *runtime.Tensor) float64 {
	s := 0.0
	for _, v := range t.F {
		s += v
	}
	return s
}

func sumTensorI(t *runtime.Tensor) int64 {
	s := int64(0)
	for _, v := range t.I {
		s += v
	}
	return s
}

func sumF(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

func sumI(v []int64) int64 {
	s := int64(0)
	for _, x := range v {
		s += x
	}
	return s
}

func sumExprList(e expr.Expr) float64 {
	s := 0.0
	expr.Walk(e, func(x expr.Expr) bool {
		switch v := x.(type) {
		case *expr.Integer:
			if v.IsMachine() {
				s += float64(v.Int64())
			}
		case *expr.Real:
			s += v.V
		}
		return true
	})
	return s
}

// --- per-benchmark preparation ---

func prepareFNV1a(k *kernel.Kernel, c *core.Compiler, impl Impl, size int) (Runner, error) {
	input := makeASCIIString(size)
	switch impl {
	case ImplGo:
		return func() string { return fmt.Sprint(fnv1aGo(input)) }, nil
	case ImplCompiled, ImplCompiledNoAbort:
		ccf, err := c.FunctionCompile(parser.MustParse(fnv1aNewSrc))
		if err != nil {
			return nil, err
		}
		return func() string { return fmt.Sprint(ccf.CallRaw(input)) }, nil
	case ImplBytecode:
		cf, err := vm.CompileExpr(k, vmCompileExpr("{codes, _Integer, 1}", fnv1aCodesBody))
		if err != nil {
			return nil, err
		}
		codes := make([]int64, len(input))
		for i := 0; i < len(input); i++ {
			codes[i] = int64(input[i])
		}
		t := vmIntTensor(codes, len(codes))
		return func() string {
			out, err := cf.Call(k, vm.TensorValue(t))
			if err != nil {
				panic(err)
			}
			return fmt.Sprint(out.I)
		}, nil
	case ImplInterp:
		codes := make([]expr.Expr, len(input))
		for i := 0; i < len(input); i++ {
			codes[i] = expr.FromInt64(int64(input[i]))
		}
		run := interpApply(k, interpFn("codes", fnv1aCodesBody), expr.List(codes...))
		return func() string { return expr.InputForm(run()) }, nil
	}
	return nil, badImpl(impl)
}

func prepareMandelbrot(k *kernel.Kernel, c *core.Compiler, impl Impl, size int) (Runner, error) {
	maxIter := int64(size)
	switch impl {
	case ImplGo:
		return func() string { return fmt.Sprint(mandelbrotGo(maxIter)) }, nil
	case ImplCompiled, ImplCompiledNoAbort:
		ccf, err := c.FunctionCompile(newFn(`Typed[maxIter, "MachineInteger"]`, mandelbrotBody))
		if err != nil {
			return nil, err
		}
		return func() string { return fmt.Sprint(ccf.CallRaw(maxIter)) }, nil
	case ImplBytecode:
		cf, err := vm.CompileExpr(k, vmCompileExpr("{maxIter, _Integer}", mandelbrotBody))
		if err != nil {
			return nil, err
		}
		return func() string {
			out, err := cf.Call(k, vm.IntValue(maxIter))
			if err != nil {
				panic(err)
			}
			return fmt.Sprint(out.I)
		}, nil
	case ImplInterp:
		run := interpApply(k, interpFn("maxIter", mandelbrotBody), expr.FromInt64(maxIter))
		return func() string { return expr.InputForm(run()) }, nil
	}
	return nil, badImpl(impl)
}

func prepareDot(k *kernel.Kernel, c *core.Compiler, impl Impl, size int) (Runner, error) {
	n := size
	a := matrixData(n, 0.1)
	b := matrixData(n, 0.9)
	switch impl {
	case ImplGo:
		return func() string { return fmt.Sprintf("%.4f", sumF(dotGo(n, a, b))) }, nil
	case ImplCompiled, ImplCompiledNoAbort:
		ccf, err := c.FunctionCompile(newFn(
			`Typed[a, "Tensor"["Real64", 2]], Typed[b, "Tensor"["Real64", 2]]`, "Dot[a, b]"))
		if err != nil {
			return nil, err
		}
		ta := realTensor(a, n, n)
		tb := realTensor(b, n, n)
		return func() string {
			out := ccf.CallRaw(ta, tb).(*runtime.Tensor)
			return fmt.Sprintf("%.4f", sumTensorF(out))
		}, nil
	case ImplBytecode:
		cf, err := vm.CompileExpr(k, vmCompileExpr("{a, _Real, 2}, {b, _Real, 2}", "Dot[a, b]"))
		if err != nil {
			return nil, err
		}
		ta := vmRealTensor(a, n, n)
		tb := vmRealTensor(b, n, n)
		return func() string {
			out, err := cf.Call(k, vm.TensorValue(ta), vm.TensorValue(tb))
			if err != nil {
				panic(err)
			}
			s := 0.0
			for _, v := range out.T.R {
				s += v
			}
			return fmt.Sprintf("%.4f", s)
		}, nil
	case ImplInterp:
		ea := realsToExpr(a, n, n)
		eb := realsToExpr(b, n, n)
		run := interpApply(k, interpFn("a, b", "Dot[a, b]"), ea, eb)
		return func() string { return fmt.Sprintf("%.4f", sumExprList(run())) }, nil
	}
	return nil, badImpl(impl)
}

func realsToExpr(v []float64, rows, cols int) expr.Expr {
	out := make([]expr.Expr, rows)
	for i := 0; i < rows; i++ {
		row := make([]expr.Expr, cols)
		for j := 0; j < cols; j++ {
			row[j] = expr.FromFloat(v[i*cols+j])
		}
		out[i] = expr.List(row...)
	}
	return expr.List(out...)
}

func prepareBlur(k *kernel.Kernel, c *core.Compiler, impl Impl, size int) (Runner, error) {
	rows, cols := size, size
	img := imageData(rows, cols)
	params := `Typed[img, "Tensor"["Real64", 2]], Typed[rows, "MachineInteger"], Typed[cols, "MachineInteger"]`
	switch impl {
	case ImplGo:
		return func() string { return fmt.Sprintf("%.4f", sumF(blurGo(img, rows, cols))) }, nil
	case ImplCompiled, ImplCompiledNoAbort:
		ccf, err := c.FunctionCompile(newFn(params, blurBody))
		if err != nil {
			return nil, err
		}
		t := realTensor(img, rows, cols)
		return func() string {
			out := ccf.CallRaw(t, int64(rows), int64(cols)).(*runtime.Tensor)
			return fmt.Sprintf("%.4f", sumTensorF(out))
		}, nil
	case ImplBytecode:
		cf, err := vm.CompileExpr(k, vmCompileExpr(
			"{img, _Real, 2}, {rows, _Integer}, {cols, _Integer}", blurBody))
		if err != nil {
			return nil, err
		}
		t := vmRealTensor(img, rows, cols)
		return func() string {
			out, err := cf.Call(k, vm.TensorValue(t), vm.IntValue(int64(rows)), vm.IntValue(int64(cols)))
			if err != nil {
				panic(err)
			}
			s := 0.0
			for _, v := range out.T.R {
				s += v
			}
			return fmt.Sprintf("%.4f", s)
		}, nil
	case ImplInterp:
		run := interpApply(k, interpFn("img, rows, cols", blurBody),
			realsToExpr(img, rows, cols), expr.FromInt64(int64(rows)), expr.FromInt64(int64(cols)))
		return func() string { return fmt.Sprintf("%.4f", sumExprList(run())) }, nil
	}
	return nil, badImpl(impl)
}

func prepareHistogram(k *kernel.Kernel, c *core.Compiler, impl Impl, size int) (Runner, error) {
	data := uniformInts(size)
	switch impl {
	case ImplGo:
		return func() string { return fmt.Sprintf("%d %d", sumI(histogramGo(data)), histogramGo(data)[0]) }, nil
	case ImplCompiled, ImplCompiledNoAbort:
		ccf, err := c.FunctionCompile(newFn(`Typed[data, "Tensor"["Integer64", 1]]`, histogramBody))
		if err != nil {
			return nil, err
		}
		t := intTensor(data, len(data))
		return func() string {
			out := ccf.CallRaw(t).(*runtime.Tensor)
			return fmt.Sprintf("%d %d", sumTensorI(out), out.I[0])
		}, nil
	case ImplBytecode:
		cf, err := vm.CompileExpr(k, vmCompileExpr("{data, _Integer, 1}", histogramBody))
		if err != nil {
			return nil, err
		}
		t := vmIntTensor(data, len(data))
		return func() string {
			out, err := cf.Call(k, vm.TensorValue(t))
			if err != nil {
				panic(err)
			}
			s := int64(0)
			for _, v := range out.T.I {
				s += v
			}
			return fmt.Sprintf("%d %d", s, out.T.I[0])
		}, nil
	case ImplInterp:
		elems := make([]expr.Expr, len(data))
		for i, v := range data {
			elems[i] = expr.FromInt64(v)
		}
		run := interpApply(k, interpFn("data", histogramBody), expr.List(elems...))
		return func() string {
			out := run()
			l, _ := expr.IsNormal(out, expr.SymList)
			return fmt.Sprintf("%d %s", int64(sumExprList(out)), expr.InputForm(l.Arg(1)))
		}, nil
	}
	return nil, badImpl(impl)
}

func preparePrimeQ(k *kernel.Kernel, c *core.Compiler, impl Impl, size int) (Runner, error) {
	limit := int64(size)
	src := spliceSeeds(newFn(`Typed[limit, "MachineInteger"]`, primeQBody))
	switch impl {
	case ImplGo:
		seeds := primesBelow(1 << 14)
		return func() string { return fmt.Sprint(primeqGo(limit, seeds)) }, nil
	case ImplCompiled, ImplCompiledNoAbort:
		ccf, err := c.FunctionCompile(src)
		if err != nil {
			return nil, err
		}
		return func() string { return fmt.Sprint(ccf.CallRaw(limit)) }, nil
	case ImplBytecode:
		vmSrc := spliceSeeds(vmCompileExpr("{limit, _Integer}", primeQBody))
		cf, err := vm.CompileExpr(k, vmSrc)
		if err != nil {
			return nil, err
		}
		return func() string {
			out, err := cf.Call(k, vm.IntValue(limit))
			if err != nil {
				panic(err)
			}
			return fmt.Sprint(out.I)
		}, nil
	case ImplInterp:
		fn := spliceSeeds(interpFn("limit", primeQBody))
		run := interpApply(k, fn, expr.FromInt64(limit))
		return func() string { return expr.InputForm(run()) }, nil
	}
	return nil, badImpl(impl)
}

// PreparePrimeQPerCandidate builds the §6 PrimeQ constants ablation: a
// per-candidate compiled primality test driven from outside, so the
// handling of the embedded seed-table constant is paid per call. naive
// rebuilds the constant array each call; otherwise it is interned once.
func PreparePrimeQPerCandidate(size int, naive bool) (Runner, error) {
	k := kernel.New()
	k.Out = io.Discard
	c := core.NewCompiler(k)
	c.NaiveConstants = naive
	src := spliceSeeds(newFn(`Typed[n, "MachineInteger"]`, primeQOneBody))
	ccf, err := c.FunctionCompile(src)
	if err != nil {
		return nil, err
	}
	limit := int64(size)
	return func() string {
		count := int64(0)
		for n := int64(2); n < limit; n++ {
			count += ccf.CallRaw(n).(int64)
		}
		return fmt.Sprint(count)
	}, nil
}

// PrepareQSortCopyAblation builds the §6 QSort ablation: every Part
// assignment copies (the conservative mutability protocol).
func PrepareQSortCopyAblation(size int) (Runner, error) {
	k := kernel.New()
	k.Out = io.Discard
	c := core.NewCompiler(k)
	c.Options.DisableCopyElision = true
	return prepareQSort(k, c, ImplCompiled, size)
}

func prepareQSort(k *kernel.Kernel, c *core.Compiler, impl Impl, size int) (Runner, error) {
	input := sortedReals(size)
	switch impl {
	case ImplGo:
		return func() string {
			out := qsortGo(input, func(a, b float64) bool { return a < b })
			return fmt.Sprintf("%.4f %.4f", out[0], sumF(out))
		}, nil
	case ImplCompiled, ImplCompiledNoAbort:
		declareQSortHelper(c.TypeEnv)
		ccf, err := c.FunctionCompile(parser.MustParse(qsortMainSrc))
		if err != nil {
			return nil, err
		}
		cmpCCF, err := c.FunctionCompile(parser.MustParse(qsortCmpSrc))
		if err != nil {
			return nil, err
		}
		cmpVal := cmpCCF.FunctionValue()
		t := realTensor(input, len(input))
		return func() string {
			out := ccf.CallRaw(t, cmpVal).(*runtime.Tensor)
			return fmt.Sprintf("%.4f %.4f", out.F[0], sumTensorF(out))
		}, nil
	case ImplBytecode:
		// Limitation L1/F6: "Function passing cannot be represented in the
		// bytecode compiler, and therefore this program cannot be
		// represented" (SS6).
		return nil, fmt.Errorf("bytecode compiler cannot represent QSort (function values are outside the WVM's datatypes)")
	case ImplInterp:
		// Interpreted functional quicksort via DownValues recursion.
		setup := `qsHelp[a0_, lo_, hi_, cmp_] := Module[{a = a0, m, i, j, t, pivot},
  If[lo < hi,
   m = Quotient[lo + hi, 2];
   t = a[[m]]; a[[m]] = a[[hi]]; a[[hi]] = t;
   pivot = a[[hi]];
   i = lo - 1; j = lo;
   While[j < hi,
    If[cmp[a[[j]], pivot], i = i + 1; t = a[[i]]; a[[i]] = a[[j]]; a[[j]] = t];
    j = j + 1];
   i = i + 1;
   t = a[[i]]; a[[i]] = a[[hi]]; a[[hi]] = t;
   a = qsHelp[a, lo, i - 1, cmp];
   a = qsHelp[a, i + 1, hi, cmp]];
  a]`
		if _, err := k.Run(parser.MustParse(setup)); err != nil {
			return nil, err
		}
		k.RecursionLimit = 1 << 20
		elems := make([]expr.Expr, len(input))
		for i, v := range input {
			elems[i] = expr.FromFloat(v)
		}
		run := interpApply(k,
			parser.MustParse("Function[{v}, qsHelp[v, 1, Length[v], Function[{a, b}, a < b]]]"),
			expr.List(elems...))
		return func() string {
			out := run()
			l, _ := expr.IsNormal(out, expr.SymList)
			return fmt.Sprintf("%.4f %.4f", l.Arg(1).(*expr.Real).V, sumExprList(out))
		}, nil
	}
	return nil, badImpl(impl)
}

func prepareRandomWalk(k *kernel.Kernel, c *core.Compiler, impl Impl, size int) (Runner, error) {
	length := size
	switch impl {
	case ImplGo:
		rng := rand.New(rand.NewSource(42))
		return func() string {
			out := randomWalkGo(length, rng.Float64)
			last := out[len(out)-1]
			return fmt.Sprintf("%d %.2f", len(out), last[0]+last[1])
		}, nil
	case ImplCompiled, ImplCompiledNoAbort:
		ccf, err := c.FunctionCompile(parser.MustParse(randomWalkNestListSrc))
		if err != nil {
			return nil, err
		}
		return func() string {
			out := ccf.CallRaw(int64(length)).(*runtime.Tensor)
			return fmt.Sprint(out.Len())
		}, nil
	case ImplBytecode:
		// Figure 1 In[2]: the bytecode compiler needs the structural
		// rewrite into an explicit loop (no NestList, no function values).
		cf, err := vm.CompileExpr(k, vmCompileExpr("{len, _Integer}", randomWalkLoopBody))
		if err != nil {
			return nil, err
		}
		return func() string {
			out, err := cf.Call(k, vm.IntValue(int64(length)))
			if err != nil {
				panic(err)
			}
			return fmt.Sprint(out.T.Len())
		}, nil
	case ImplInterp:
		run := interpApply(k, parser.MustParse(
			`Function[{len}, NestList[Module[{arg = RandomReal[{0., 6.283185307179586}]}, {-Cos[arg], Sin[arg]} + #] &, {0., 0.}, len]]`),
			expr.FromInt64(int64(length)))
		return func() string { return fmt.Sprint(expr.Length(run())) }, nil
	}
	return nil, badImpl(impl)
}

func badImpl(impl Impl) error { return fmt.Errorf("bench: unknown implementation %q", impl) }
