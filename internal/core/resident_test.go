package core

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"wolfc/internal/codegen"
	"wolfc/internal/expr"
	"wolfc/internal/fnreg"
	"wolfc/internal/kernel"
	"wolfc/internal/obs"
	"wolfc/internal/parser"
	"wolfc/internal/types"
	"wolfc/internal/wir"
)

// The program table (cache.go): the program one kernel compiled or generated
// from a store entry serves every other kernel that compiles the same source.
// The code is shared; the kernel, registry, metrics and runtime context stay
// per kernel.

// session is one engine's compiler: a kernel and a registry namespace of its
// own.
func session(t testing.TB, id string) *Compiler {
	k := kernel.New()
	k.Out = io.Discard
	reg := fnreg.NewRegistry(id)
	t.Cleanup(reg.Release)
	return NewCompilerWith(k, reg)
}

// load is a cached compile of src that the artifact tier must serve; it
// returns the function and the stages the lookup reported.
func load(t *testing.T, c *Compiler, src string) (*CompiledCodeFunction, string) {
	t.Helper()
	ccf, rep, err := c.FunctionCompileCachedRequest(parser.MustParse(src), CompileRequest{Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.ArtifactHit {
		t.Fatalf("%s was not served by the artifact tier: %+v", src, rep)
	}
	return ccf, stageNames(rep)
}

func stageNames(rep *CompileReport) string {
	names := make([]string, len(rep.Stages))
	for i, s := range rep.Stages {
		names[i] = s.Name
	}
	return strings.Join(names, " ")
}

func gaugeValue(t *testing.T, name string) float64 {
	t.Helper()
	for _, g := range obs.ProviderGauges() {
		if g.Name == name {
			return g.Value
		}
	}
	t.Fatalf("no gauge %s", name)
	return 0
}

// Two engines are served one function from the program table: the program a
// third engine compiled, wrapped in a CompiledCodeFunction of each one's own.
// The function copy-on-writes a constant tensor every call and returns it, and
// the other one escapes to whichever kernel calls it; interleaved and
// concurrent calls from both engines each see only their own answer.
func TestResidentProgramIsEngineScoped(t *testing.T) {
	coldCaches(t)
	const (
		cow    = `Function[{Typed[x, "MachineInteger"]}, Module[{t = {1, 2, 3}}, t[[1]] = x; t]]`
		escape = `Function[{Typed[x, "MachineInteger"]}, KernelFunction[scale][x]]`
	)
	writer := session(t, "resident-writer")
	for _, src := range []string{cow, escape} {
		if _, err := writer.FunctionCompileCached(parser.MustParse(src)); err != nil {
			t.Fatal(err)
		}
	}
	a, b := session(t, "resident-a"), session(t, "resident-b")
	for c, def := range map[*Compiler]string{a: "scale[x_] := 2*x", b: "scale[x_] := 3*x"} {
		if _, err := c.Kernel.Run(parser.MustParse(def)); err != nil {
			t.Fatal(err)
		}
	}
	type engineFns struct {
		c           *Compiler
		cow, escape *CompiledCodeFunction
		base, scale int64
	}
	ea, eb := &engineFns{c: a, base: 100, scale: 2}, &engineFns{c: b, base: 200, scale: 3}
	for _, e := range []*engineFns{ea, eb} {
		var cowStages, escStages string
		e.cow, cowStages = load(t, e.c, cow)
		e.escape, escStages = load(t, e.c, escape)
		const want = "key resident"
		if cowStages != want || escStages != want {
			t.Fatalf("stages %q and %q, want %q", cowStages, escStages, want)
		}
		if e.cow.BoundKernel() != e.c.Kernel || e.escape.BoundKernel() != e.c.Kernel {
			t.Fatal("a loaded function is bound to another engine's kernel")
		}
	}
	if ea.cow == eb.cow || ea.escape == eb.escape {
		t.Fatal("two engines were handed one CompiledCodeFunction")
	}
	if ea.cow.Program != eb.cow.Program || ea.escape.Program != eb.escape.Program {
		t.Fatal("the second engine did not get the first engine's program")
	}
	if hits, entries := gaugeValue(t, "compile_cache_resident_hits_total"), gaugeValue(t, "compile_cache_resident_entries"); hits != 4 || entries != 2 {
		t.Fatalf("resident gauges: %v hits, %v entries; want 4 and 2", hits, entries)
	}

	// call checks one call of each function against what this engine alone
	// would answer; it reports through t.Error so goroutines may use it.
	call := func(e *engineFns, i int64) {
		x := expr.FromInt64(e.base + i)
		if out, err := e.cow.Apply([]expr.Expr{x}); err != nil || expr.InputForm(out) != fmt.Sprintf("{%d, 2, 3}", e.base+i) {
			t.Errorf("engine %d: cow[%d] = %v, %v", e.base, e.base+i, out, err)
		}
		if out, err := e.escape.Apply([]expr.Expr{x}); err != nil || expr.InputForm(out) != fmt.Sprint(e.scale*(e.base+i)) {
			t.Errorf("engine %d: escape[%d] = %v, %v", e.base, e.base+i, out, err)
		}
	}
	// A returned tensor is the caller's: later calls, from either engine,
	// must not write into it.
	kept, err := ea.cow.Apply([]expr.Expr{expr.FromInt64(7)})
	if err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 5; i++ {
		call(ea, i)
		call(eb, i)
	}
	var wg sync.WaitGroup
	for _, e := range []*engineFns{ea, eb} {
		wg.Add(1)
		go func(e *engineFns) {
			defer wg.Done()
			for i := int64(0); i < 200; i++ {
				call(e, i)
			}
		}(e)
	}
	wg.Wait()
	if got := expr.InputForm(kept); got != "{7, 2, 3}" {
		t.Fatalf("a returned tensor was written through by later calls: %s", got)
	}
}

// The program table is keyed by what was compiled: the versioned stable key
// names the compile's whole input, so a table hit is correct without reading
// the store, and a store entry replaced, evicted or dropped under a filed
// program changes nothing a kernel is served. The store is read on a table
// miss — a new process, or after ResetCompileCache — and there it decides.
func TestTableHitsNeedNoStoreEntry(t *testing.T) {
	coldCaches(t)
	store := ArtifactStore()
	const src, other = `Function[{Typed[x, "MachineInteger"]}, x + 1]`, `Function[{Typed[x, "MachineInteger"]}, x + 2]`
	writer := session(t, "coherence-writer")
	if _, err := writer.FunctionCompileCached(parser.MustParse(src)); err != nil {
		t.Fatal(err)
	}
	key, _, err := writer.keysFor(parser.MustParse(src), CompileRequest{})
	if err != nil {
		t.Fatal(err)
	}
	// expect compiles src on a fresh engine and checks how it was served.
	expect := func(step, stages, want string) {
		t.Helper()
		ccf, rep, err := session(t, "coherence").FunctionCompileCachedRequest(parser.MustParse(src), CompileRequest{Collect: true})
		if err != nil {
			t.Fatal(err)
		}
		got := "compile"
		if rep.ArtifactHit {
			got = stageNames(rep)
		}
		if got != stages {
			t.Fatalf("%s: served by %q, want %q", step, got, stages)
		}
		if out := apply(t, ccf, "1"); out != want {
			t.Fatalf("%s: f[1] = %s, want %s", step, out, want)
		}
	}
	reads := func() uint64 { st := store.Stats(); return st.Hits + st.Misses }
	before := reads()
	expect("compiled", "key resident", "2")

	// Replaced: the store now holds another function's module under the key.
	var buf bytes.Buffer
	if err := codegen.Marshal(&buf, compile(t, writer, other).Module); err != nil {
		t.Fatal(err)
	}
	store.DropUndecodable(key)
	store.Put(key, buf.Bytes())
	expect("replaced", "key resident", "2")

	// Evicted.
	prevMax := store.SetMaxBytes(1)
	store.SetMaxBytes(prevMax)
	if st := store.Stats(); st.Entries != 0 {
		t.Fatalf("eviction left %+v", st)
	}
	expect("evicted", "key resident", "2")

	// Undecodable: a payload this build cannot decode sits under the key.
	store.Put(key, []byte("WCLB0001\x01\x04Main\x00"))
	expect("undecodable", "key resident", "2")
	if reads() != before {
		t.Fatal("a table hit read the store")
	}
	// The table goes with neither the store nor a change of store.
	SetArtifactStore(store)
	expect("after SetArtifactStore", "key resident", "2")

	// After a reset the store is read, and decides: the undecodable entry is
	// dropped and src compiled and written back; the next reset loads it.
	ResetCompileCache()
	if n := residents.size(); n != 0 {
		t.Fatalf("%d programs survived ResetCompileCache", n)
	}
	drops := store.Stats().CorruptDrops
	expect("reset, undecodable", "compile", "2")
	if st := store.Stats(); st.CorruptDrops != drops+1 {
		t.Fatalf("the undecodable entry was not dropped: %+v", st)
	}
	expect("compiled again", "key resident", "2")
	ResetCompileCache()
	expect("reset, written back", "key decode codegen", "2")
	expect("loaded", "key resident", "2")
}

// A profiled program counts its blocks in atomics inside the program, so it
// is never shared: each engine decodes its own, and counts only its calls.
func TestProfiledProgramsAreNeverResident(t *testing.T) {
	coldCaches(t)
	const src = `Function[{Typed[n, "MachineInteger"]}, Module[{s = 0, i = 1}, While[i <= n, s = s + i; i++]; s]]`
	profiled := func(id string) *Compiler {
		c := session(t, id)
		c.ProfileLevel = 1
		return c
	}
	if _, err := profiled("profiled-writer").FunctionCompileCached(parser.MustParse(src)); err != nil {
		t.Fatal(err)
	}
	a, stagesA := load(t, profiled("profiled-a"), src)
	b, stagesB := load(t, profiled("profiled-b"), src)
	if stagesA != "key decode codegen" || stagesB != stagesA {
		t.Fatalf("profiled loads served by %q and %q, want decode and codegen each", stagesA, stagesB)
	}
	if a.Program == b.Program || residents.size() != 0 {
		t.Fatalf("a profiled program was shared (%d resident)", residents.size())
	}
	for i := 0; i < 3; i++ {
		a.CallRaw(int64(10))
	}
	for i := 0; i < 5; i++ {
		b.CallRaw(int64(10))
	}
	if na, nb := a.Program.Main.BlockProfiles()[0].Count, b.Program.Main.BlockProfiles()[0].Count; na != 3 || nb != 5 {
		t.Fatalf("entry block counts %d and %d, want 3 and 5", na, nb)
	}
}

// The load paths hand wrap no registry dependencies instead of walking the
// module for them. That holds because what the store holds never calls the
// registry: maybeStoreArtifact keeps such a module out, and the modules it
// does write carry no regcall instruction.
func TestStoredModulesCarryNoRegistryCalls(t *testing.T) {
	coldCaches(t)
	c := session(t, "regcall")
	if _, err := c.reg().Reserve("regHelper", &types.Fn{Params: []types.Type{types.TInt64}, Ret: types.TInt64}, nil); err != nil {
		t.Fatal(err)
	}
	calls, plain := parser.MustParse(`Function[{Typed[x, "MachineInteger"]}, regHelper[x] + 1]`), parser.MustParse(`Function[{Typed[x, "MachineInteger"]}, x + 1]`)
	withCall, err := c.FunctionCompileCached(calls)
	if err != nil {
		t.Fatal(err)
	}
	if len(withCall.RegDeps) != 1 || !hasRegcall(withCall.Module) {
		t.Fatalf("premise: the call must resolve through the registry (RegDeps %v)", withCall.RegDeps)
	}
	stored, err := c.FunctionCompileCached(plain)
	if err != nil {
		t.Fatal(err)
	}
	if st := ArtifactStore().Stats(); st.Writes != 1 {
		t.Fatalf("want only the registry-free module written: %+v", st)
	}
	key, _, err := c.keysFor(plain, CompileRequest{})
	if err != nil {
		t.Fatal(err)
	}
	payload, ok := ArtifactStore().Get(key)
	if !ok {
		t.Fatal("the registry-free module is not in the store")
	}
	mod, err := codegen.Unmarshal(bytes.NewReader(payload), c.TypeEnv)
	if err != nil {
		t.Fatal(err)
	}
	if hasRegcall(stored.Module) || hasRegcall(mod) {
		t.Fatal("a stored module carries a regcall instruction")
	}
}

func hasRegcall(mod *wir.Module) bool {
	for _, f := range mod.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if _, ok := in.Prop("regcall"); ok {
					return true
				}
			}
		}
	}
	return false
}
