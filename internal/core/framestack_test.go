package core

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"wolfc/internal/expr"
	"wolfc/internal/kernel"
	"wolfc/internal/parser"
	"wolfc/internal/runtime"
)

const cfibSrc = `Function[{Typed[n, "MachineInteger"]}, If[n < 2, n, cfib[n - 1] + cfib[n - 2]]]`

func compileCfib(tb testing.TB) *CompiledCodeFunction {
	tb.Helper()
	ccf, err := newCompiler().CompileNamed("cfib", parser.MustParse(cfibSrc))
	if err != nil {
		tb.Fatal(err)
	}
	return ccf
}

var benchCallSink any

// BenchmarkCallOverhead is what one compiled call costs: cfib[20] is 21 891
// calls and almost nothing else, entered the way the benchmark harness enters
// compiled code.
func BenchmarkCallOverhead(b *testing.B) {
	ccf := compileCfib(b)
	n := int64(20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchCallSink = ccf.CallRaw(n)
	}
}

// Compiled recursion is bounded by the frame stack, not by the Go stack: past
// maxCallDepth the call throws ExcDepth (a soft failure) where it used to kill
// the process, and the unwound invocation leaves nothing behind that the next
// one trips over.
func TestCompiledRecursionPastDepthLimitThrows(t *testing.T) {
	if raceEnabled {
		t.Skip("a quarter of a million live frames under the race detector's shadow memory is gigabytes")
	}
	ccf, err := newCompiler().CompileNamed("depth", parser.MustParse(
		`Function[{Typed[n, "MachineInteger"]}, If[n < 1, 0, depth[n - 1] + 1]]`))
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if exc, ok := recover().(*runtime.Exception); !ok || exc.Kind != runtime.ExcDepth {
				t.Fatalf("5 000 000 levels: want ExcDepth, got %v", exc)
			}
		}()
		ccf.CallRaw(int64(5_000_000))
	}()
	if got := ccf.CallRaw(int64(1000)).(int64); got != 1000 {
		t.Fatalf("the call after the depth exception = %d, want 1000", got)
	}
	// Through Apply the exception is the paper's soft failure: a warning and
	// the interpreter's answer, which here is its own recursion limit.
	var log strings.Builder
	ccf.compiler.Kernel.Out = &log
	ccf.compiler.Kernel.Run(parser.MustParse("depth = " + expr.InputForm(ccf.Source)))
	_, err = ccf.Apply([]expr.Expr{expr.FromInt64(5_000_000)})
	if !strings.Contains(log.String(), "CompiledCodeFunction::cfse") {
		t.Errorf("Apply past the depth limit printed %q, want the cfse warning", log.String())
	}
	if err == nil || !strings.Contains(err.Error(), "$RecursionLimit") {
		t.Errorf("Apply past the depth limit: error %v, want the interpreter's $RecursionLimit", err)
	}
}

// What a level costs in Go stack depends on where in its function the call
// sits: 272 bytes in the lone If above, 560 to 584 under an If, two Whiles and
// an If, 2 672 under 25 nested Ifs, and more again after a long block on the
// baseline rung, which emits a closure per instruction. A level takes that
// much of the depth limit (codegen's TestCallStackChargeCoversEveryShape
// measures it), so five million levels of any of them end in the depth
// exception, not in the process.
func TestCompiledRecursionUnderNestedRegionsThrows(t *testing.T) {
	if raceEnabled {
		t.Skip("a quarter of a million live frames under the race detector's shadow memory is gigabytes")
	}
	nested := `deepN[n - 1] + 1`
	for i := 0; i < 25; i++ {
		nested = fmt.Sprintf("If[n > %d, %s, %d]", -i-1, nested, i)
	}
	long := strings.Repeat("b = !b; ", 300) // boolean, so that a level's registers stay small
	for _, sh := range []struct {
		name, body string
		compiler   *Compiler
	}{
		{"four regions", `Module[{r = 0, i = 0, j = 0},
			While[i < 1, j = 0;
				While[j < 1, If[n > 0, r = r + deepN[n - 1] + 1]; j = j + 1];
				i = i + 1];
			r]`, newCompiler()},
		{"25 nested Ifs", nested, newCompiler()},
		{"300 instructions on the baseline rung", `Module[{b = n > 0}, ` + long + `If[b, 1, 0] + deepN[n - 1]]`, newStencilCompiler()},
	} {
		t.Run(sh.name, func(t *testing.T) {
			ccf, err := sh.compiler.CompileNamed("deepN", parser.MustParse(
				`Function[{Typed[n, "MachineInteger"]}, If[n < 1, 0, `+sh.body+`]]`))
			if err != nil {
				t.Fatal(err)
			}
			func() {
				defer func() {
					if exc, ok := recover().(*runtime.Exception); !ok || exc.Kind != runtime.ExcDepth {
						t.Fatalf("5 000 000 levels: want ExcDepth, got %v", exc)
					}
				}()
				ccf.CallRaw(int64(5_000_000))
			}()
			if got := ccf.CallRaw(int64(1000)).(int64); got != 1000 {
				t.Fatalf("the call after the depth exception = %d, want 1000", got)
			}
		})
	}
}

// One recursive function and one that calls a function value, from eight
// goroutines at once: each invocation has its own frame stack, so every
// result is the serial one (and -race sees no shared record).
func TestFrameStackConcurrentCallers(t *testing.T) {
	fib := compileCfib(t)
	sorter := compile(t, newCompiler(), `Function[{Typed[v, "Tensor"["Real64", 1]]}, Sort[v, Function[{a, b}, a > b]]]`)
	input := runtime.NewTensor(runtime.KR64, 200)
	for i := range input.F {
		input.F[i] = float64((i*37)%101) / 8
	}
	input.MarkShared()
	wantFib := fib.CallRaw(int64(16)).(int64)
	wantSorted := fmt.Sprint(sorter.CallRaw(input).(*runtime.Tensor).F)

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 5; round++ {
				if got := fib.CallRaw(int64(16)).(int64); got != wantFib {
					t.Errorf("concurrent cfib[16] = %d, serial %d", got, wantFib)
				}
				if got := fmt.Sprint(sorter.CallRaw(input).(*runtime.Tensor).F); got != wantSorted {
					t.Errorf("concurrent sort diverged from the serial result")
				}
			}
		}()
	}
	wg.Wait()
}

// Compiled code that escapes to the kernel, which applies compiled code: the
// inner invocation takes a frame stack of its own, so the outer one's live
// records (three deep here, each holding the tensor and its own n) are as
// they were when the escape returns.
func TestFrameStackSurvivesKernelReentry(t *testing.T) {
	k := kernel.New()
	k.Out = io.Discard
	c := Install(k)
	if _, err := k.Run(parser.MustParse(`inner = FunctionCompile[Function[{Typed[n, "MachineInteger"]},
		Module[{a = n*3, b = n + 7, c = 0}, c = a*b; c - a]]]`)); err != nil {
		t.Fatal(err)
	}
	outer, err := c.CompileNamed("outer", parser.MustParse(
		`Function[{Typed[v, "Tensor"["MachineInteger", 1]], Typed[n, "MachineInteger"]},
			If[n == 0,
				KernelFunction[inner][v[[1]]],
				outer[v, n - 1] + KernelFunction[List][v[[n]], n]]]`))
	if err != nil {
		t.Fatal(err)
	}
	out, err := outer.Apply([]expr.Expr{parser.MustParse("{5, 6, 7}"), expr.FromInt64(2)})
	if err != nil {
		t.Fatal(err)
	}
	// inner[5] = 165; each level adds {v[[n]], n} on the way out.
	if got, want := expr.InputForm(out), "{176, 168}"; got != want {
		t.Fatalf("outer[{5, 6, 7}, 2] = %s, want %s", got, want)
	}
}

// The RT comes from codegen's idle list, so an invocation allocates what its
// arguments and result box to and nothing else: one allocation, the boxed
// result.
func TestCallRawAllocations(t *testing.T) {
	ccf := compileCfib(t)
	n := int64(15)
	if allocs := testing.AllocsPerRun(100, func() { benchCallSink = ccf.CallRaw(n) }); allocs > 1 {
		t.Fatalf("CallRaw(cfib[15]) allocates %.0f objects per call, want at most 1", allocs)
	}
}
