package codegen

import (
	goruntime "runtime"
	"testing"

	"wolfc/internal/runtime"
)

// An exception thrown three calls deep unwinds past every leave. Release must
// still hand the pool a stack at depth 0 with no object register set: a
// pooled stack that pinned the tensors of an aborted call would keep them
// alive until some later invocation happened to overwrite them.
func TestReleaseAfterExceptionPinsNothing(t *testing.T) {
	// Main is the recursion target the front end rewrites a self-reference
	// to. Every level holds v; the innermost reads element k.
	prog := compileSrc(t, `Function[{Typed[v, "Tensor"["Real64", 1]], Typed[n, "MachineInteger"], Typed[k, "MachineInteger"]},
		If[n == 0, v[[k]], Main[v, n - 1, k] + v[[1]]]]`)
	v := runtime.NewTensor(runtime.KR64, 4).FillF(1.5)
	rt := AcquireRT(nil)
	func() {
		defer func() {
			exc, ok := recover().(*runtime.Exception)
			if !ok || exc.Kind != runtime.ExcPartRange {
				t.Fatalf("want a Part range exception, got %v", exc)
			}
		}()
		prog.Main.CallValues(rt, v, int64(3), int64(99))
	}()
	if rt.depth != 4 {
		t.Fatalf("the exception left depth %d, want the 4 records it unwound past", rt.depth)
	}
	pinned := 0
	for _, fr := range rt.frames {
		for _, o := range fr.o {
			if o == v {
				pinned++
			}
		}
	}
	if pinned < 4 {
		t.Fatalf("only %d object registers hold the tensor before Release: the test is not looking at live records", pinned)
	}
	rt.Release()
	if rt.depth != 0 || rt.Engine != nil {
		t.Fatalf("released RT has depth %d, engine %v", rt.depth, rt.Engine)
	}
	for d, fr := range rt.frames {
		for i, o := range fr.o[:cap(fr.o)] {
			if o != nil {
				t.Errorf("released RT: record %d object register %d still holds %v", d, i, o)
			}
		}
	}
	// The next invocation draws the same stack from the idle list.
	next := AcquireRT(nil)
	defer next.Release()
	if next != rt {
		t.Fatal("the next invocation did not reuse the released stack")
	}
	if got := prog.Main.CallValues(next, v, int64(3), int64(2)); got != 6.0 {
		t.Fatalf("the call after the exception = %v, want 6", got)
	}
}

// A released context, frame stack attached, is the one the next invocation
// gets, whichever goroutine (and so P) makes it and after any number of
// collections: a call allocates the same whatever the scheduler did. A stack
// deeper than maxIdleFrames records is not kept.
func TestReleasedRTIsReused(t *testing.T) {
	prog := compileSrc(t, `Function[{Typed[n, "MachineInteger"]}, If[n == 0, 0, Main[n - 1] + 1]]`)
	rt := AcquireRT(nil)
	if got := prog.Main.CallValues(rt, int64(20)); got != int64(20) {
		t.Fatalf("Main[20] = %v, want 20", got)
	}
	rt.Release()
	goruntime.GC()
	goruntime.GC()
	got := make(chan *RT)
	go func() {
		next := AcquireRT(nil)
		next.Release()
		got <- next
	}()
	if <-got != rt {
		t.Fatal("a context released before two collections was not reused on another goroutine")
	}

	deep := AcquireRT(nil)
	deep.frames = make([]*frame, maxIdleFrames+1)
	deep.Release()
	next := AcquireRT(nil)
	defer next.Release()
	if next == deep {
		t.Fatalf("a stack of %d records was kept idle", maxIdleFrames+1)
	}
}
