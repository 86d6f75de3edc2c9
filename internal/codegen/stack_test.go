package codegen

import (
	"fmt"
	"runtime/debug"
	"strings"
	"testing"
	"unsafe"

	"wolfc/internal/expr"
	"wolfc/internal/passes"
	"wolfc/internal/runtime"
)

// spEngine records where the Go stack stands when compiled code draws a
// random integer.
type spEngine struct{ sp uintptr }

func (e *spEngine) EvalExpr(x expr.Expr) (expr.Expr, error) { return x, nil }
func (e *spEngine) Aborted() bool                           { return false }
func (e *spEngine) RandReal() float64                       { return 0 }

func (e *spEngine) RandInt(lo, hi int64) int64 {
	var here byte
	e.sp = uintptr(unsafe.Pointer(&here))
	return lo
}

// stackAt is the Go stack between this frame and the bottom of a recursion n
// levels deep, where the program draws its random integer. Nothing moves the
// stack between the draw and the return (it grows on the way down only, and
// the caller has the collector off), so both addresses are of one stack.
func stackAt(prog *Program, n int64) int {
	eng := &spEngine{}
	rt := AcquireRT(eng)
	defer rt.Release()
	prog.Main.CallValues(rt, n)
	var here byte
	return int(uintptr(unsafe.Pointer(&here)) - eng.sp)
}

// nest wraps body in k Ifs on n > 0, each a region of its own: the else arm
// keeps the optimiser from merging the conditions.
func nest(k int, body string) string {
	for i := 0; i < k; i++ {
		body = fmt.Sprintf("If[n > %d, %s, %d]", -i-1, body, i)
	}
	return body
}

// What a level of compiled recursion puts on the Go stack is at most what
// enter charges for it, CFunc.units of depth, whatever shape the function
// has: that is what makes maxCallDepth a bound on the stack and not on a
// count. Measured here as the difference between two depths of the same
// recursion.
func TestCallStackChargeCoversEveryShape(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation makes every frame larger; the charge is for the code as shipped")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var long strings.Builder
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&long, "s = s + n*%d; ", i+2)
	}
	var which strings.Builder
	for i := 0; i < 30; i++ {
		fmt.Fprintf(&which, "n == %d, %d, ", -i-1, i)
	}
	tree := "Main[n - 1]"
	for i := 0; i < 10; i++ {
		tree = fmt.Sprintf("BitXor[%s, n] + %d", tree, i+1)
	}
	// The shapes with calls of helpers are compiled without inlining, so that
	// the helpers stay calls; via names one a level enters besides Main.
	noInline := passes.DefaultOptions()
	noInline.InlinePolicy = "none"
	shapes := []struct {
		name, body, via string
		noInline        bool
	}{
		{"a lone If", `Main[n - 1] + 1`, "", false},
		{"four regions", `Module[{r = 0, i = 0, j = 0},
			While[i < 1, j = 0;
				While[j < 1, If[n > 0, r = r + Main[n - 1] + 1]; j = j + 1];
				i = i + 1];
			r]`, "", false},
		{"25 nested Ifs", nest(25, `Main[n - 1] + 1`), "", false},
		{"the last clause of a Which of 31", `Which[` + which.String() + `True, Main[n - 1] + 1]`, "", false},
		{"after 300 statements", `Module[{s = 0}, ` + long.String() + `s + Main[n - 1]]`, "", false},
		{"the ninth statement of a loop body", `Module[{s = 0, i = 0},
			While[i < 1, s = s + 1; s = s*3; s = s - i; s = s + 2; s = s*5; s = s - 1; s = s + i; s = s*7;
				s = s + Main[n - 1]; i = i + 1];
			s]`, "", false},
		{"a loop that returns from inside", `Module[{s = 0, i = 0},
			While[i < 3, If[i == 1, Return[s + Main[n - 1]]]; s = s + i; i = i + 1];
			s]`, "", false},
		{"a call as an argument of a call", `Module[{g = Function[{Typed[k, "MachineInteger"]}, k + 1]}, g[Main[n - 1]]]`, "", true},
		{"a call under a tree of twenty nodes", tree, "", false},
		{"a call in a While test", `Module[{i = 0}, While[Main[n - 1] > i, i = i + 1]; i]`, "", false},
		{"an indirect call in an If test", `Module[{h = If[n > 5000,
				Function[{Typed[k, "MachineInteger"]}, Main[k] > 0],
				Function[{Typed[k, "MachineInteger"]}, Main[k] >= 0]]},
			If[h[n - 1], 1, 0]]`, "Main`lambda2", true},
	}
	for _, sh := range shapes {
		src := `Function[{Typed[n, "MachineInteger"]}, If[n < 1, RandomInteger[{0, 0}], ` + sh.body + `]]`
		for _, fuse := range []int{FuseFull, FuseOff} {
			opts := passes.DefaultOptions()
			if sh.noInline {
				opts = noInline
			}
			prog := compileSrcWith(t, src, fuse, opts)
			charged := prog.Main.units * unitBytes
			if sh.via != "" {
				charged += prog.FuncByName(sh.via).units * unitBytes
			}
			stackAt(prog, 1200) // grow the stack first
			level := (stackAt(prog, 1100) - stackAt(prog, 100)) / 1000
			t.Logf("%s (fuse %d): %d bytes a level, charged %d", sh.name, fuse, level, charged)
			if level <= 0 || level > charged {
				t.Errorf("%s (fuse %d): a level takes %d bytes of Go stack, enter charges %d", sh.name, fuse, level, charged)
			}
		}
	}
}

// A level takes its function's units of depth and gives them back; past
// maxCallDepth units the call throws ExcDepth.
func TestCallDepthCountsUnits(t *testing.T) {
	prog := compileSrc(t, `Function[{Typed[n, "MachineInteger"]}, If[n < 1, 0, `+nest(25, `Main[n - 1] + 1`)+`]]`)
	units := prog.Main.units
	if units < 2 {
		t.Fatalf("a call under 25 Ifs takes %d unit of depth: the test wants a function that takes several", units)
	}
	rt := AcquireRT(nil)
	defer rt.Release()
	start := maxCallDepth - 10*units
	rt.depth = start
	if got := prog.Main.CallValues(rt, int64(9)); got != int64(9) {
		t.Fatalf("ten levels with room for ten = %v, want 9", got)
	}
	if rt.depth != start {
		t.Fatalf("depth %d after the call, %d before: leave did not give back what enter took", rt.depth, start)
	}
	defer func() {
		if exc, ok := recover().(*runtime.Exception); !ok || exc.Kind != runtime.ExcDepth {
			t.Fatalf("eleven levels with room for ten: want ExcDepth, got %v", exc)
		}
	}()
	prog.Main.CallValues(rt, int64(10))
}
