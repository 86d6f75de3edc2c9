package runtime

import (
	"math"
	"testing"
)

// specIndex is Part's index rule written out the slow way: a positive index
// counts from the front, a negative one from the back, zero and anything
// past either end is out of range.
func specIndex(i int64, n int) (off int, ok bool) {
	switch {
	case i >= 1 && i <= int64(n):
		return int(i - 1), true
	case i <= -1 && i >= -int64(n):
		return n + int(i), true
	}
	return 0, false
}

// FuzzTensorIndex holds the bounds test compiled code inlines (Off1, Off2)
// against the spec: it may only accept what the spec accepts as a positive
// index, with the same offset, and whatever it declines the checked
// accessor must resolve or throw exactly as the spec says.
func FuzzTensorIndex(f *testing.F) {
	for _, s := range [][4]int64{
		{1, 1, 3, 3}, {0, 1, 3, 3}, {3, 3, 3, 3}, {4, 1, 3, 3}, {-1, -3, 3, 3}, {-4, 1, 3, 3},
		{1, 0, 3, 3}, {1, 4, 3, 3}, {1, 1, 0, 0}, {math.MinInt64, math.MaxInt64, 5, 7},
		{math.MaxInt64, math.MinInt64, 200, 1}, {2, -1, 4, 6},
	} {
		f.Add(s[0], s[1], uint8(s[2]), uint8(s[3]))
	}
	f.Fuzz(func(t *testing.T, i, j int64, rows, cols uint8) {
		n, m := int(rows), int(cols)
		wi, iok := specIndex(i, n)
		wj, jok := specIndex(j, m)

		off, ok := Off1(i, n)
		if want := iok && i > 0; ok != want || ok && off != wi {
			t.Fatalf("Off1(%d, %d) = %d, %v; spec offset %d, positive in range %v", i, n, off, ok, wi, want)
		}
		v := NewTensor(KI64, n)
		for k := range v.I {
			v.I[k] = int64(k)
		}
		var got int64
		exc := catch(func() { got = v.GetI(i) })
		if iok != (exc == nil) || iok && got != int64(wi) {
			t.Fatalf("GetI(%d) on length %d = %d, exception %v; spec offset %d ok %v", i, n, got, exc, wi, iok)
		}
		if exc != nil && exc.Kind != ExcPartRange {
			t.Fatalf("GetI(%d) threw %v, want the Part range exception", i, exc)
		}

		mt := NewTensor(KI64, n, m)
		for k := range mt.I {
			mt.I[k] = int64(k)
		}
		flat := wi*m + wj
		off, ok = mt.Off2(i, j)
		if want := iok && jok && i > 0 && j > 0; ok != want || ok && off != flat {
			t.Fatalf("Off2(%d, %d) on %dx%d = %d, %v; spec offset %d, positive in range %v", i, j, n, m, off, ok, flat, want)
		}
		exc = catch(func() { got = mt.GetI2(i, j) })
		if (iok && jok) != (exc == nil) || exc == nil && got != int64(flat) {
			t.Fatalf("GetI2(%d, %d) on %dx%d = %d, exception %v; spec offset %d", i, j, n, m, got, exc, flat)
		}
		// The store takes the same two paths as the load.
		exc = catch(func() { mt.SetI2(i, j, -1) })
		if (iok && jok) != (exc == nil) || exc == nil && mt.I[flat] != -1 {
			t.Fatalf("SetI2(%d, %d) on %dx%d: exception %v", i, j, n, m, exc)
		}
	})
}
