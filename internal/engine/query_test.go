package engine_test

import (
	"context"
	"testing"
	"time"

	"wolfc/internal/engine"
	"wolfc/internal/expr"
)

// queryDefs are the two interpreted definitions every tenant_coldstart
// session makes (benchmark/programs/gfib.wl and dot2.wl).
const queryDefs = `gfib[n_Integer /; n < 2] := n
gfib[n_Integer] := gfib[n - 1] + gfib[n - 2]
dot2[{a_, b_}, {c_, d_}] := a*c + b*d`

// evalQueries are one query of each definition with its value: gfib[10] is
// 177 pattern dispatches, each testing n < 2, and 88 additions.
var evalQueries = []struct{ src, want string }{
	{"gfib[10]", "55"},
	{"dot2[{3, 4}, {5, 6}]", "39"},
}

// queryTimeout arms a deadline as the serving layer does on every request.
const queryTimeout = time.Minute

func newQueryEngine(tb testing.TB) *engine.Engine {
	tb.Helper()
	e := engine.New(engine.Options{})
	tb.Cleanup(e.Close)
	if _, err := e.Eval(queryDefs, 0); err != nil {
		tb.Fatal(err)
	}
	for _, q := range evalQueries {
		res, err := e.Eval(q.src, queryTimeout)
		if err != nil || expr.InputForm(res.Value) != q.want {
			tb.Fatalf("%s = %v, %v; want %s", q.src, res.Value, err, q.want)
		}
	}
	return e
}

var evalSink engine.Result

// BenchmarkEvalQuery is what one served query costs below HTTP and JSON:
// parse, evaluate in the interpreter, capture output, for each of
// evalQueries in turn.
func BenchmarkEvalQuery(b *testing.B) {
	e := newQueryEngine(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range evalQueries {
			evalSink, _ = e.EvalCtx(ctx, q.src, queryTimeout)
		}
	}
}

// TestEvalQueryAllocs bounds what BenchmarkEvalQuery allocates a round.
func TestEvalQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	e := newQueryEngine(t)
	ctx := context.Background()
	n := testing.AllocsPerRun(20, func() {
		for _, q := range evalQueries {
			evalSink, _ = e.EvalCtx(ctx, q.src, queryTimeout)
		}
	})
	t.Logf("%.0f allocations a round", n)
	if n > evalQueryAllocCeiling {
		t.Errorf("one round of evalQueries allocates %.0f objects, want at most %d", n, evalQueryAllocCeiling)
	}
}

// evalQueryAllocCeiling is the allocation count of one round of evalQueries.
// It was 12 821 while every compare of two machine integers built two
// big.Rats, an Orderless head's sorted arguments were a second copy and
// ParseAll filled a span table nothing read.
const evalQueryAllocCeiling = 5870
