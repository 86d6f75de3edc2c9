package codegen

import (
	"bytes"
	"strings"
	"testing"

	"wolfc/internal/binding"
	"wolfc/internal/infer"
	"wolfc/internal/macro"
	"wolfc/internal/parser"
	"wolfc/internal/passes"
	"wolfc/internal/runtime"
	"wolfc/internal/types"
	"wolfc/internal/wir"
)

// compileSrc runs the whole pipeline to a Program.
func compileSrc(t *testing.T, src string) *Program {
	t.Helper()
	env := macro.DefaultEnv()
	e, err := env.Expand(parser.MustParse(src), nil)
	if err != nil {
		t.Fatalf("macro: %v", err)
	}
	e = macro.ExpandSlots(e)
	res, err := binding.Analyze(e)
	if err != nil {
		t.Fatalf("binding: %v", err)
	}
	tenv := types.Builtin()
	mod, err := wir.Lower(res, tenv)
	if err != nil {
		t.Fatalf("lower: %v", err)
	}
	if err := infer.Infer(mod, tenv); err != nil {
		t.Fatalf("infer: %v", err)
	}
	if err := passes.RunPipeline(mod, &passes.Context{Env: tenv, Opts: passes.DefaultOptions()}); err != nil {
		t.Fatalf("passes: %v", err)
	}
	prog, err := Compile(mod)
	if err != nil {
		t.Fatalf("codegen: %v", err)
	}
	return prog
}

func TestScalarExecution(t *testing.T) {
	prog := compileSrc(t, `Function[{Typed[x, "Real64"], Typed[y, "Real64"]}, x*y + 1.]`)
	out := prog.Main.CallValues(&RT{}, 3.0, 4.0)
	if out.(float64) != 13 {
		t.Fatalf("got %v", out)
	}
}

func TestLoopExecution(t *testing.T) {
	prog := compileSrc(t, `Function[{Typed[n, "MachineInteger"]},
		Module[{s = 0, i = 1}, While[i <= n, s = s + i; i = i + 1]; s]]`)
	if out := prog.Main.CallValues(&RT{}, int64(1000)); out.(int64) != 500500 {
		t.Fatalf("sum = %v", out)
	}
}

func TestFramePoolingIsCorrectAcrossCalls(t *testing.T) {
	// Pooled frames must be re-initialised: constants reload, object
	// registers cleared.
	prog := compileSrc(t, `Function[{Typed[n, "MachineInteger"]},
		Module[{acc = 100}, acc + n]]`)
	for i := int64(0); i < 10; i++ {
		if out := prog.Main.CallValues(&RT{}, i); out.(int64) != 100+i {
			t.Fatalf("call %d = %v", i, out)
		}
	}
}

func TestRecursionDeepFrames(t *testing.T) {
	prog := compileSrc(t, `Function[{Typed[n, "MachineInteger"]},
		If[n < 1, 0, Main[n - 1] + 1]]`)
	if out := prog.Main.CallValues(&RT{}, int64(5000)); out.(int64) != 5000 {
		t.Fatalf("deep recursion = %v", out)
	}
}

func TestClosureCapturesByValue(t *testing.T) {
	prog := compileSrc(t, `Function[{Typed[v, "Tensor"["Real64", 1]], Typed[k, "Real64"]},
		Fold[Function[{a, b}, a + b*k], 0., v]]`)
	tens := runtime.NewTensor(runtime.KR64, 3)
	copy(tens.F, []float64{1, 2, 3})
	out := prog.Main.CallValues(&RT{}, tens, 10.0)
	if out.(float64) != 60 {
		t.Fatalf("fold = %v", out)
	}
}

func TestPhiSwapCycle(t *testing.T) {
	// A loop that swaps two variables each iteration exercises the
	// parallel-move cycle breaker (a,b = b,a needs the scratch register).
	prog := compileSrc(t, `Function[{Typed[n, "MachineInteger"]},
		Module[{a = 1, b = 2, i = 0, t = 0},
			While[i < n, t = a; a = b; b = t; i = i + 1];
			a*10 + b]]`)
	if out := prog.Main.CallValues(&RT{}, int64(0)); out.(int64) != 12 {
		t.Fatalf("n=0: %v", out)
	}
	if out := prog.Main.CallValues(&RT{}, int64(1)); out.(int64) != 21 {
		t.Fatalf("n=1: %v", out)
	}
	if out := prog.Main.CallValues(&RT{}, int64(2)); out.(int64) != 12 {
		t.Fatalf("n=2: %v", out)
	}
}

func TestUntypedModuleRejected(t *testing.T) {
	mod := &wir.Module{} // Typed=false
	if _, err := Compile(mod); err == nil {
		t.Fatal("untyped module must be rejected (§4.6)")
	}
}

func TestSerializeRoundTripExecution(t *testing.T) {
	src := `Function[{Typed[n, "MachineInteger"]},
		Module[{s = 0}, Do[s += j*j, {j, 1, n}]; s]]`
	prog := compileSrc(t, src)
	var buf bytes.Buffer
	if err := Marshal(&buf, prog.Module); err != nil {
		t.Fatal(err)
	}
	mod2, err := Unmarshal(&buf, types.Builtin())
	if err != nil {
		t.Fatal(err)
	}
	prog2, err := Compile(mod2)
	if err != nil {
		t.Fatal(err)
	}
	want := prog.Main.CallValues(&RT{}, int64(50))
	got := prog2.Main.CallValues(&RT{}, int64(50))
	if want != got {
		t.Fatalf("reloaded result %v != %v", got, want)
	}
}

func TestSerializeRejectsGarbage(t *testing.T) {
	if _, err := Unmarshal(strings.NewReader("not a library"), types.Builtin()); err == nil {
		t.Fatal("bad magic must fail")
	}
	if _, err := Unmarshal(strings.NewReader(""), types.Builtin()); err == nil {
		t.Fatal("empty input must fail")
	}
}

func TestEmitCCompleteModule(t *testing.T) {
	prog := compileSrc(t, `Function[{Typed[v, "Tensor"["Real64", 1]]},
		Map[Function[{x}, Sqrt[x]], v]]`)
	src, err := EmitC(prog.Module, types.Builtin())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"wolfrt_tensor*", "sqrt(", "wolfrt_list_new", "goto",
	} {
		if !strings.Contains(src, want) {
			t.Fatalf("C emission missing %q:\n%s", want, src)
		}
	}
	// Braces balance — a cheap syntactic sanity check.
	if strings.Count(src, "{") != strings.Count(src, "}") {
		t.Fatal("unbalanced braces in C emission")
	}
}

func TestNaiveConstantsOption(t *testing.T) {
	src := `Function[{Typed[i, "MachineInteger"]}, Part[{5, 6, 7}, i]]`
	env := macro.DefaultEnv()
	e, _ := env.Expand(parser.MustParse(src), nil)
	res, _ := binding.Analyze(macro.ExpandSlots(e))
	tenv := types.Builtin()
	mod, _ := wir.Lower(res, tenv)
	if err := infer.Infer(mod, tenv); err != nil {
		t.Fatal(err)
	}
	if err := passes.RunPipeline(mod, &passes.Context{Env: tenv, Opts: passes.DefaultOptions()}); err != nil {
		t.Fatal(err)
	}
	prog, err := CompileWithOptions(mod, CompileOptions{NaiveConstants: true})
	if err != nil {
		t.Fatal(err)
	}
	// Still correct, just slower.
	if out := prog.Main.CallValues(&RT{}, int64(2)); out.(int64) != 6 {
		t.Fatalf("naive constants broke correctness: %v", out)
	}
}

func TestStringsThroughCodegen(t *testing.T) {
	prog := compileSrc(t, `Function[{Typed[s, "String"]}, StringJoin[s, s]]`)
	if out := prog.Main.CallValues(&RT{}, "ab"); out.(string) != "abab" {
		t.Fatalf("got %v", out)
	}
}

func TestVoidReturn(t *testing.T) {
	prog := compileSrc(t, `Function[{Typed[v, "Tensor"["Real64", 1]]},
		Native`+"`"+`MemoryAcquire[v]]`)
	if out := prog.Main.CallValues(&RT{}, runtime.NewTensor(runtime.KR64, 1)); out != nil {
		t.Fatalf("void function returned %v", out)
	}
}
