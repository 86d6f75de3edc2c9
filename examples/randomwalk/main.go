// Random walk: Figure 1's notebook session — the same NestList program
// interpreted (In[1]), bytecode compiled after a structural rewrite
// (In[2]), and compiled by the new compiler with only a Typed annotation
// added (In[3]) — with timings and a small character plot of the walk.
package main

import (
	"fmt"
	"log"
	"time"

	"wolfc/internal/core"
	"wolfc/internal/expr"
	"wolfc/internal/kernel"
	"wolfc/internal/parser"
	"wolfc/internal/runtime"
	"wolfc/internal/vm"
)

const nestListWalk = `Function[{Typed[len, "MachineInteger"]},
 NestList[
  Module[{arg = RandomReal[{0., 6.283185307179586}]}, {-Cos[arg], Sin[arg]} + #] &,
  {0., 0.},
  len]]`

const loopWalk = `Compile[{{len, _Integer}},
 Module[{out = ConstantArray[0., {len + 1, 2}], arg = 0., x = 0., y = 0., i = 1},
  While[i <= len,
   arg = RandomReal[{0., 6.283185307179586}];
   x = x - Cos[arg];
   y = y + Sin[arg];
   out[[i + 1, 1]] = x;
   out[[i + 1, 2]] = y;
   i = i + 1];
  out]]`

func main() {
	k := kernel.New()
	k.Seed(7)
	vm.Install(k)
	c := core.NewCompiler(k)

	const interpLen = 2000
	const compiledLen = 100000

	// In[1]: interpreted.
	interp := parser.MustParse(`Function[{len},
		NestList[Module[{arg = RandomReal[{0., 6.283185307179586}]}, {-Cos[arg], Sin[arg]} + #] &, {0., 0.}, len]]`)
	t0 := time.Now()
	out, err := k.Run(expr.New(interp, expr.FromInt64(interpLen)))
	if err != nil {
		log.Fatal(err)
	}
	dInterp := time.Since(t0)
	fmt.Printf("In[1] interpreted         len=%-7d %12v  (%.1f µs/step)\n",
		interpLen, dInterp, float64(dInterp.Microseconds())/interpLen)

	// In[2]: bytecode Compile — note the structural rewrite the paper
	// describes: NestList and the pure function are outside the WVM's
	// reach, so the walk becomes an explicit loop.
	cfExpr, err := k.Run(parser.MustParse(loopWalk))
	if err != nil {
		log.Fatal(err)
	}
	t0 = time.Now()
	_, err = k.Run(expr.New(cfExpr, expr.FromInt64(compiledLen)))
	if err != nil {
		log.Fatal(err)
	}
	dVM := time.Since(t0)
	fmt.Printf("In[2] bytecode Compile    len=%-7d %12v  (%.2f µs/step)\n",
		compiledLen, dVM, float64(dVM.Microseconds())/compiledLen)

	// In[3]: the new compiler on the unmodified NestList code.
	ccf, err := c.FunctionCompile(parser.MustParse(nestListWalk))
	if err != nil {
		log.Fatal(err)
	}
	t0 = time.Now()
	walk := ccf.CallRaw(int64(compiledLen)).(*runtime.Tensor)
	dNew := time.Since(t0)
	fmt.Printf("In[3] FunctionCompile     len=%-7d %12v  (%.2f µs/step)\n",
		compiledLen, dNew, float64(dNew.Microseconds())/compiledLen)

	perStepInterp := float64(dInterp.Nanoseconds()) / interpLen
	perStepVM := float64(dVM.Nanoseconds()) / compiledLen
	perStepNew := float64(dNew.Nanoseconds()) / compiledLen
	fmt.Printf("\nper-step speedup over the interpreter: bytecode %.0fx, new compiler %.0fx\n",
		perStepInterp/perStepVM, perStepInterp/perStepNew)
	fmt.Printf("new compiler over bytecode: %.1fx\n\n", perStepVM/perStepNew)

	plotWalk(walk)
	_ = out
}

// plotWalk draws the walk in a character grid (the ListLinePlot of In[4]).
func plotWalk(t *runtime.Tensor) {
	const W, H = 64, 24
	n := t.Len()
	minX, maxX, minY, maxY := 0.0, 0.0, 0.0, 0.0
	at := func(i int) (float64, float64) { // the walk is one n x 2 packed matrix
		return t.GetF2(int64(i+1), 1), t.GetF2(int64(i+1), 2)
	}
	for i := 0; i < n; i++ {
		x, y := at(i)
		minX, maxX = min(minX, x), max(maxX, x)
		minY, maxY = min(minY, y), max(maxY, y)
	}
	grid := make([][]byte, H)
	for r := range grid {
		grid[r] = make([]byte, W)
		for c := range grid[r] {
			grid[r][c] = ' '
		}
	}
	for i := 0; i < n; i++ {
		x, y := at(i)
		cx := int((x - minX) / (maxX - minX + 1e-12) * (W - 1))
		cy := int((y - minY) / (maxY - minY + 1e-12) * (H - 1))
		grid[H-1-cy][cx] = '*'
	}
	fmt.Println("Out[4] (ListLinePlot of the walk):")
	for _, row := range grid {
		fmt.Println(string(row))
	}
}

func min(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}

func max(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
