package main

import (
	"fmt"

	"wolfc/internal/expr"
	"wolfc/internal/kernel"
	"wolfc/internal/parser"
)

// kernelDef is one of the six cold-start kernels (copied from wolfbench's
// coldstart corpus): medium-sized nested loops whose compile cost is real
// and whose call with a small argument is nearly free.
type kernelDef struct {
	name string
	args []int64 // the pool the seed draws call arguments from
}

var kernelDefs = []kernelDef{
	{"mandelcount", []int64{3, 4, 5, 6}},
	{"convgrid", []int64{3, 4, 5, 6}},
	{"horner", []int64{12, 16, 20, 24}},
	{"gcdsum", []int64{8, 10, 12, 14}},
	{"square", []int64{7, 41, 100, 12345}},
	{"rhalf", []int64{13, 14, 101, 1000}},
}

// serveKernels is the number of explicit FunctionCompile kernels a served
// session binds: the four loop kernels, each in two variants that differ
// by an added constant, so sessions share eight distinct artifacts.
const serveKernels = 8

// serveKernelSource returns the source session symbol k<i> is bound to.
func serveKernelSource(i int) string {
	return fmt.Sprintf(`Function[{Typed[k9, "MachineInteger"]}, (%s)[k9] + %d]`,
		sourceText(kernelDefs[i/2].name), i%2)
}

func serveKernelArgs(i int) []int64 { return kernelDefs[i/2].args }

// The DownValues definitions a session makes, and the calls that exercise
// them. gfib and dot2 have machine arguments and get promoted through the
// tiers; diff differentiates symbolically and must stay interpreted. (It
// is not called d: dot2's pattern variable d would then count as a call to
// it in the tiering engine's dependency scan, and dot2 would wait for a
// partner that never gets machine arguments.)
var (
	gfibArgs = []int64{10, 11, 12}
	dot2Args = [][4]int64{{3, 4, 5, 6}, {1, 2, 3, 4}, {7, 9, 2, 8}, {12, 5, 6, 11}}
	derivs   = []string{
		"diff[(x^5)*(x^3 + x^2), x]",
		"diff[x^3 + 2*x, x]",
		"diff[(x^2 + 1)*(x^4), x]",
		"diff[x^4*x^2 + x^3, x]",
	}
)

func gfibQuery(n int64) string { return fmt.Sprintf("gfib[%d]", n) }
func dot2Query(a [4]int64) string {
	return fmt.Sprintf("dot2[{%d, %d}, {%d, %d}]", a[0], a[1], a[2], a[3])
}
func kernelQuery(name string, arg int64) string { return fmt.Sprintf("%s[%d]", name, arg) }
func serveQueryKey(i int, arg int64) string     { return fmt.Sprintf("serve%d[%d]", i, arg) }

// defineDownValues evaluates the gfib, dot2 and diff definitions in k.
func defineDownValues(k *kernel.Kernel) error {
	for _, f := range []string{"gfib", "dot2", "deriv"} {
		defs, err := parser.ParseAll(sourceText(f))
		if err != nil {
			return err
		}
		for _, d := range defs {
			if _, err := k.Run(d); err != nil {
				return err
			}
		}
	}
	return nil
}

// regenQueries evaluates every query of every pool in a plain kernel: no
// compiler installed, no tiering.
func regenQueries() ([]string, error) {
	k := newKernel()
	if err := defineDownValues(k); err != nil {
		return nil, err
	}
	var lines []string
	add := func(key string, e expr.Expr) error {
		out, err := k.Run(e)
		if err != nil {
			return fmt.Errorf("%s: %w", key, err)
		}
		lines = append(lines, key+"\t"+expr.InputForm(out))
		return nil
	}
	for _, kd := range kernelDefs {
		fn := untyped(parsed(kd.name))
		for _, a := range kd.args {
			if err := add(kernelQuery(kd.name, a), expr.New(fn, expr.FromInt64(a))); err != nil {
				return nil, err
			}
		}
	}
	for i := 0; i < serveKernels; i++ {
		fn := untyped(parser.MustParse(serveKernelSource(i)))
		for _, a := range serveKernelArgs(i) {
			if err := add(serveQueryKey(i, a), expr.New(fn, expr.FromInt64(a))); err != nil {
				return nil, err
			}
		}
	}
	var texts []string
	for _, n := range gfibArgs {
		texts = append(texts, gfibQuery(n))
	}
	for _, a := range dot2Args {
		texts = append(texts, dot2Query(a))
	}
	texts = append(texts, derivs...)
	for _, q := range texts {
		if err := add(q, parser.MustParse(q)); err != nil {
			return nil, err
		}
	}
	return lines, nil
}
