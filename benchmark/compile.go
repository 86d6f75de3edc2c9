package main

import (
	"fmt"

	"wolfc/internal/artifact"
	"wolfc/internal/core"
	"wolfc/internal/expr"
	"wolfc/internal/parser"
	"wolfc/internal/patcomp"
	"wolfc/internal/types"
)

// compileSource is one entry of the 17-source compile corpus.
type compileSource struct {
	name     string
	fn       expr.Expr
	selfName string
	declare  func(c *core.Compiler)
	// verify runs the freshly compiled function on a small input and
	// compares with expected/*.txt.
	verify func(c *core.Compiler, ccf *core.CompiledCodeFunction) bool
}

// compileCorpus builds the corpus: the nine programs, the six cold-start
// kernels, and the two functions patcomp synthesises from the gfib and
// dot2 DownValues (what the tiering engine hands the compiler when those
// definitions get hot).
func compileCorpus() ([]compileSource, error) {
	wantP, err := expectedPrograms()
	if err != nil {
		return nil, err
	}
	wantQ, err := expectedQueries()
	if err != nil {
		return nil, err
	}
	applyIs := func(ccf *core.CompiledCodeFunction, want string, args ...expr.Expr) bool {
		out, err := ccf.Apply(args)
		return err == nil && expr.InputForm(out) == want
	}
	var corpus []compileSource
	for _, p := range programs() {
		p := p
		corpus = append(corpus, compileSource{
			name: p.name, fn: p.source(), selfName: p.selfName, declare: p.declare,
			verify: func(c *core.Compiler, ccf *core.CompiledCodeFunction) bool {
				b, err := p.bind(c, ccf, 0, p.small)
				if err != nil {
					return false
				}
				if b.before != nil {
					b.before()
				}
				return checksum(b.call()) == wantP[expectedKey(p, 0, true)]
			},
		})
	}
	for _, kd := range kernelDefs {
		arg := kd.args[0]
		want := wantQ[kernelQuery(kd.name, arg)]
		corpus = append(corpus, compileSource{
			name: kd.name, fn: parsed(kd.name),
			verify: func(c *core.Compiler, ccf *core.CompiledCodeFunction) bool {
				return applyIs(ccf, want, expr.FromInt64(arg))
			},
		})
	}
	k := newKernel()
	if err := defineDownValues(k); err != nil {
		return nil, err
	}
	intList := types.TensorOf(types.TInt64, 1)
	for _, s := range []struct {
		name  string
		kinds []types.Type
		query string
	}{
		{"gfib", []types.Type{types.TInt64}, gfibQuery(gfibArgs[0])},
		{"dot2", []types.Type{intList, intList}, dot2Query(dot2Args[0])},
	} {
		sym := expr.Sym(s.name)
		def, err := patcomp.Analyze(sym, k.DownValues(sym), s.kinds)
		if err != nil {
			return nil, err
		}
		call := parser.MustParse(s.query).(*expr.Normal)
		want := wantQ[s.query]
		corpus = append(corpus, compileSource{
			name: s.name + "_synth", fn: def.Synthesize(), selfName: s.name,
			verify: func(c *core.Compiler, ccf *core.CompiledCodeFunction) bool {
				return applyIs(ccf, want, call.Args()...)
			},
		})
	}
	return corpus, nil
}

// salted wraps fn's body in a Module binding an unused constant. The
// compile-cache key hashes the macro-expanded source, so every new salt is
// a genuine miss at both cache levels while the function computes what it
// did before.
func salted(fn expr.Expr, salt int64) expr.Expr {
	f, ok := expr.IsNormalN(fn, expr.SymFunction, 2)
	if !ok {
		panic("compile corpus entry is not Function[params, body]")
	}
	local := expr.List(expr.NewS("Set", expr.Sym("benchSalt"), expr.FromInt64(salt)))
	return expr.New(expr.SymFunction, f.Arg(1), expr.NewS("Module", local, f.Arg(2)))
}

var warmSource = parser.MustParse(`Function[{Typed[w, "MachineInteger"]}, w + 1]`)

// newCorpusCompiler builds a kernel and compiler ready for the corpus. The
// first compile on a fresh Compiler pays lazy environment initialisation
// (about three steady-state compiles); a throwaway compile takes it here,
// as the tiering workers do, so no corpus row carries it.
func newCorpusCompiler(corpus []compileSource) (*core.Compiler, error) {
	c := core.NewCompiler(newKernel())
	for _, s := range corpus {
		if s.declare != nil {
			s.declare(c)
		}
	}
	_, err := c.FunctionCompile(warmSource)
	return c, err
}

// compileWL is compile_cold (warm=false) and compile_warm (warm=true).
// Both time FunctionCompileCached, source expression to callable, on the
// same salted corpus. Cold: one compiler, a fresh salt per visit, so every
// call runs the whole O2 pipeline and writes the in-memory cache and the
// artifact store. Warm: the salts of one cold round, already in the store,
// and a fresh kernel and compiler per round, so every call misses in
// memory, reads the store, and re-runs only decode and code generation.
type compileWL struct {
	warm   bool
	corpus []compileSource
	c      *core.Compiler
	salt   int64
	prev   *artifact.Store
}

func newCompileWL(warm bool, seed int64) (workload, error) {
	corpus, err := compileCorpus()
	if err != nil {
		return nil, err
	}
	w := &compileWL{warm: warm, corpus: corpus, salt: seed * 1_000_003}
	core.ResetCompileCache()
	w.prev = core.SetArtifactStore(artifact.OpenMemory())
	if w.c, err = newCorpusCompiler(corpus); err != nil {
		return nil, err
	}
	// One untimed cold round: warms every pass on every source and, for
	// compile_warm, is the round whose artifacts the window reads back.
	for r := range corpus {
		if _, _, ok := w.compile(r, w.salt+int64(r), nil, 0); !ok {
			return nil, fmt.Errorf("%s: compiled result differs from expected", corpus[r].name)
		}
	}
	return w, nil
}

func (w *compileWL) compile(row int, salt int64, tr *tracer, op int64) (int64, *core.CompileReport, bool) {
	s := w.corpus[row]
	fn := salted(s.fn, salt)
	var ccf *core.CompiledCodeFunction
	var rep *core.CompileReport
	var err error
	ns := tr.in("compile."+s.name, -1, op, func(int) {
		ccf, rep, err = w.c.FunctionCompileCachedRequest(fn, core.CompileRequest{SelfName: s.selfName, Collect: w.warm})
	})
	return ns, rep, err == nil && s.verify(w.c, ccf)
}

func (w *compileWL) rows() []string {
	names := make([]string, len(w.corpus))
	for i, s := range w.corpus {
		names[i] = s.name
	}
	return names
}

func (w *compileWL) clients() int { return 1 }
func (w *compileWL) close()       { core.SetArtifactStore(w.prev); core.ResetCompileCache() }

func (w *compileWL) op(c, i int, tr *tracer) (int, int64, bool) {
	n := len(w.corpus)
	row := i % n
	if !w.warm {
		// Salts of the window start past the set-up round's.
		ns, _, ok := w.compile(row, w.salt+int64(n+i), tr, int64(i))
		return row, ns, ok
	}
	if row == 0 {
		fresh, err := newCorpusCompiler(w.corpus)
		if err != nil {
			return row, 0, false
		}
		w.c = fresh
	}
	ns, rep, ok := w.compile(row, w.salt+int64(row), tr, int64(i))
	return row, ns, ok && rep != nil && rep.ArtifactHit
}
