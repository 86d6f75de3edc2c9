// Command patgen generates the differential fuzz corpus for compiled
// pattern dispatch (ISSUE 10): a deterministic pseudo-random batch of
// DownValue definitions — literal rules, _Integer/_Real blanks, /; guards
// at argument and whole-LHS position, list destructuring, repeated
// variables, multi-argument heads — followed by calls that drive every
// dispatch path: plain hits, guard misses, kind mismatches, lengths no
// rule covers, and arguments (strings, bignums) outside the compiled
// fragment entirely.
//
// The checked-in corpus is produced by
//
//	go run ./cmd/patgen > examples/patterns/corpus.wl
//
// and TestTierDifferential (cmd) replays it through wolfrepl four ways (plain,
// tiered, stencil-pinned, O2-only) requiring bit-identical stdout. The
// generator is seeded and self-contained so the corpus can be regrown or
// widened (-defs, -seed) when the compilable fragment grows.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
)

var (
	seed = flag.Int64("seed", 10, "PRNG seed; same seed, same corpus")
	defs = flag.Int("defs", 14, "number of generated symbols")
)

type gen struct {
	r *rand.Rand
	w *strings.Builder
}

func (g *gen) emit(format string, args ...any) {
	fmt.Fprintf(g.w, format+"\n", args...)
}

// smallInt is a call/literal operand kept small enough that no generated
// body (products of two args plus offsets) can overflow Integer64.
func (g *gen) smallInt() int { return g.r.Intn(21) - 4 }

func (g *gen) smallReal() string {
	return fmt.Sprintf("%.1f", float64(g.r.Intn(80))/4.0-5.0)
}

// body renders a scalar arithmetic body over the bound variables.
func (g *gen) body(vars []string) string {
	if len(vars) == 0 {
		return fmt.Sprint(g.r.Intn(100))
	}
	v := vars[g.r.Intn(len(vars))]
	switch g.r.Intn(4) {
	case 0:
		return fmt.Sprintf("%s*%d + %d", v, g.r.Intn(5)+2, g.r.Intn(9))
	case 1:
		return fmt.Sprintf("%s - %d", v, g.r.Intn(7))
	case 2:
		if len(vars) > 1 {
			return fmt.Sprintf("%s*%d - %s", vars[0], g.r.Intn(4)+1, vars[1])
		}
		return fmt.Sprintf("%s + %s", v, v)
	default:
		return fmt.Sprintf("%d - %s", g.r.Intn(12), v)
	}
}

// guard renders a /; test over v.
func (g *gen) guard(v string) string {
	switch g.r.Intn(4) {
	case 0:
		return fmt.Sprintf("%s > %d", v, g.smallInt())
	case 1:
		return fmt.Sprintf("%s < %d", v, g.smallInt())
	case 2:
		return fmt.Sprintf("Mod[%s, %d] == %d", v, g.r.Intn(3)+2, g.r.Intn(2))
	default:
		return fmt.Sprintf("%s > %d && %s < %d", v, g.smallInt()-6, v, g.smallInt()+8)
	}
}

// scalarPat renders one scalar argument pattern binding v (or a literal).
func (g *gen) scalarPat(v string) (pat string, bound bool) {
	switch g.r.Intn(6) {
	case 0:
		return fmt.Sprint(g.smallInt()), false // literal discriminator
	case 1:
		return v + "_Integer", true
	case 2:
		return fmt.Sprintf("%s_Integer /; %s", v, g.guard(v)), true
	case 3:
		return v + "_Real", true
	case 4:
		return fmt.Sprintf("%s_ /; %s", v, g.guard(v)), true
	default:
		return v + "_", true
	}
}

// defScalar emits a 1- or 2-argument scalar symbol with ordered rules and
// returns the call arguments that exercise it.
func (g *gen) defScalar(name string, arity int) []string {
	nrules := g.r.Intn(3) + 2
	for i := 0; i < nrules; i++ {
		pats := make([]string, arity)
		var vars []string
		for j := range pats {
			v := string(rune('x' + j))
			p, bound := g.scalarPat(v)
			// The last rule leans total so most calls hit.
			if i == nrules-1 && g.r.Intn(3) != 0 {
				p, bound = v+"_", true
			}
			pats[j] = p
			if bound {
				vars = append(vars, v)
			}
		}
		lhs := fmt.Sprintf("%s[%s]", name, strings.Join(pats, ", "))
		// Whole-LHS condition: evaluated by the matcher after every
		// argument binds.
		if len(vars) > 0 && g.r.Intn(5) == 0 {
			lhs = fmt.Sprintf("%s /; %s", lhs, g.guard(vars[g.r.Intn(len(vars))]))
		}
		g.emit("%s := %s", lhs, g.body(vars))
	}
	var calls []string
	for i := 0; i < 5; i++ {
		args := make([]string, arity)
		for j := range args {
			switch g.r.Intn(8) {
			case 0:
				args[j] = g.smallReal() // kind mismatch or _Real hit
			case 1:
				args[j] = `"s"` // outside the fragment: never sketches
			case 2:
				args[j] = "2^70" // bignum: strict-kind guard miss
			default:
				args[j] = fmt.Sprint(g.smallInt())
			}
		}
		calls = append(calls, fmt.Sprintf("%s[%s]", name, strings.Join(args, ", ")))
	}
	return calls
}

// defList emits a list-destructuring symbol and its calls.
func (g *gen) defList(name string) []string {
	n := g.r.Intn(2) + 2 // destructured length 2 or 3
	elems := make([]string, n)
	var vars []string
	for j := range elems {
		v := string(rune('a' + j))
		if g.r.Intn(4) == 0 {
			elems[j] = fmt.Sprint(g.smallInt())
		} else {
			elems[j] = v + "_"
			vars = append(vars, v)
		}
	}
	g.emit("%s[{%s}] := %s", name, strings.Join(elems, ", "), g.body(vars))
	if g.r.Intn(2) == 0 {
		g.emit("%s[{u_}] := -u", name)
	}
	var calls []string
	for i := 0; i < 5; i++ {
		m := []int{n, n, n, 1, n + 1, n - 1}[g.r.Intn(6)] // mostly hits
		parts := make([]string, m)
		for j := range parts {
			if g.r.Intn(7) == 0 {
				parts[j] = g.smallReal() // mixed list: kind guard miss
			} else {
				parts[j] = fmt.Sprint(g.smallInt())
			}
		}
		calls = append(calls, fmt.Sprintf("%s[{%s}]", name, strings.Join(parts, ", ")))
	}
	return calls
}

// defRepeat emits a repeated-variable symbol (f[x_, x_] matches only when
// both arguments are SameQ) and its calls.
func (g *gen) defRepeat(name string) []string {
	g.emit("%s[x_, x_] := x*2 + 1", name)
	g.emit("%s[x_, y_] := x - y", name)
	var calls []string
	for i := 0; i < 4; i++ {
		a := g.smallInt()
		b := a
		if g.r.Intn(2) == 0 {
			b = g.smallInt()
		}
		calls = append(calls, fmt.Sprintf("%s[%d, %d]", name, a, b))
	}
	// SameQ is exact: an Integer never equals a Real, even numerically.
	calls = append(calls, fmt.Sprintf("%s[3, 3.0]", name))
	return calls
}

func main() {
	flag.Parse()
	g := &gen{r: rand.New(rand.NewSource(*seed)), w: &strings.Builder{}}
	g.emit("(* Generated by cmd/patgen -seed %d -defs %d — do not hand-edit. *)", *seed, *defs)
	g.emit("(* Differential fuzz corpus for compiled pattern dispatch (ISSUE 10): *)")
	g.emit("(* cmd's TestTierDifferential replays this through wolfrepl plain, tiered, *)")
	g.emit("(* stencil-pinned, and O2-only, and requires bit-identical stdout. *)")

	var calls []string
	for i := 0; i < *defs; i++ {
		name := fmt.Sprintf("p%d", i)
		switch g.r.Intn(5) {
		case 0:
			calls = append(calls, g.defList(name)...)
		case 1:
			calls = append(calls, g.defRepeat(name)...)
		case 2:
			calls = append(calls, g.defScalar(name, 2)...)
		default:
			calls = append(calls, g.defScalar(name, 1)...)
		}
	}
	// Replay the call batch three times: the first round is interpreted and
	// crosses the promotion threshold, later rounds dispatch compiled, and
	// every call appears in both regimes so a divergence cannot hide.
	for round := 0; round < 3; round++ {
		for _, c := range calls {
			g.emit("%s", c)
		}
	}
	os.Stdout.WriteString(g.w.String())
}
