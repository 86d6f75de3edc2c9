package types

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// Property tests for the unifier that inference leans on (§4.4): generated
// random types, not hand-picked cases.

// genGroundType builds a random variable-free type.
func genGroundType(rng *rand.Rand, depth int) Type {
	atoms := []Type{TInt64, TReal64, TBool, TString, TComplex}
	if depth <= 0 || rng.Intn(3) == 0 {
		return atoms[rng.Intn(len(atoms))]
	}
	switch rng.Intn(3) {
	case 0:
		return TensorOf(genGroundType(rng, depth-1), 1+rng.Intn(2))
	case 1:
		n := rng.Intn(3)
		params := make([]Type, n)
		for i := range params {
			params[i] = genGroundType(rng, depth-1)
		}
		return &Fn{Params: params, Ret: genGroundType(rng, depth-1)}
	default:
		return &Compound{Ctor: "Pair", Args: []Type{
			genGroundType(rng, depth-1), genGroundType(rng, depth-1)}}
	}
}

// punch replaces random subterms of a ground type with fresh variables of
// u, returning the punched type. Unifying it against the original must
// always succeed and reconstruct the original.
func punch(rng *rand.Rand, u *Unifier, t Type) Type {
	if rng.Intn(4) == 0 {
		return u.NewVar("h")
	}
	switch x := t.(type) {
	case *Compound:
		args := make([]Type, len(x.Args))
		for i, a := range x.Args {
			args[i] = punch(rng, u, a)
		}
		return &Compound{Ctor: x.Ctor, Args: args}
	case *Fn:
		params := make([]Type, len(x.Params))
		for i, p := range x.Params {
			params[i] = punch(rng, u, p)
		}
		return &Fn{Params: params, Ret: punch(rng, u, x.Ret)}
	}
	return t
}

// bindings lists every variable of u with what it is bound to (nil while
// free): the whole state Undo must restore.
func bindings(u *Unifier, vars []*Var) []Type {
	out := make([]Type, len(vars))
	for i, v := range vars {
		if r := u.Resolve(v); r != Type(v) {
			out[i] = r
		}
	}
	return out
}

func sameBindings(a, b []Type) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Reflexivity: every ground type unifies with itself and binds nothing.
func TestUnifyReflexiveQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ty := genGroundType(rng, 1+rng.Intn(3))
		u := NewUnifier()
		return u.Unify(ty, ty) && u.Mark() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Solving holes: a ground type unifies with any hole-punched copy of
// itself, and resolving the punched copy afterwards reconstructs the ground
// type exactly.
func TestUnifySolvesHolesQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ground := genGroundType(rng, 1+rng.Intn(3))
		u := NewUnifier()
		holey := punch(rng, u, ground)
		if !u.Unify(holey, ground) {
			return false
		}
		return u.Zonk(holey).String() == ground.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Unification is symmetric in solvability and result.
func TestUnifySymmetricQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ground := genGroundType(rng, 1+rng.Intn(3))
		u := NewUnifier()
		a := punch(rng, u, ground)
		b := punch(rng, u, ground)
		ok1 := u.Unify(a, b)
		r1 := u.Zonk(a)
		u.Undo(0)
		ok2 := u.Unify(b, a)
		r2 := u.Zonk(a)
		if ok1 != ok2 {
			return false
		}
		if !ok1 {
			return true
		}
		// Where a hole met a hole the two directions bind different (alpha-
		// equivalent) variables, so compare only ground results exactly.
		if !IsGround(r1) || !IsGround(r2) {
			return true
		}
		return r1.String() == r2.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// trialCase builds one speculative unification over some earlier, kept
// bindings: the shape of every overload trial the inference solver makes.
// Half the trials are against an unrelated type, so many fail, most of them
// after binding something.
func trialCase(rng *rand.Rand) (u *Unifier, vars []*Var, a, b Type) {
	u = NewUnifier()
	groundA := genGroundType(rng, 1+rng.Intn(3))
	a = punch(rng, u, groundA)
	b = genGroundType(rng, 1+rng.Intn(3))
	if rng.Intn(2) == 0 {
		b = punch(rng, u, groundA)
	}
	pre := u.NewVar("pre")
	u.Unify(pre, genGroundType(rng, 2))
	vars = append(FreeVars(&Fn{Params: []Type{a, b}, Ret: pre}), pre)
	// Bind some of the holes for good before the trial.
	for _, v := range vars {
		if rng.Intn(3) == 0 {
			u.Unify(v, genGroundType(rng, 1))
		}
	}
	return u, vars, a, b
}

// Undo to a mark restores the bindings to their state at the mark exactly,
// whether the unification in between succeeded or failed — the invariant
// the inference solver's overload trials depend on. In particular a failed
// trial leaves no binding behind.
func TestUndoToMarkRestoresQuick(t *testing.T) {
	failed := 0
	f := func(seed int64) bool {
		u, vars, a, b := trialCase(rand.New(rand.NewSource(seed)))
		before := bindings(u, vars)
		mark := u.Mark()
		if !u.Unify(a, b) {
			failed++
		}
		u.Undo(mark)
		return u.Mark() == mark && len(u.Bound(mark)) == 0 && sameBindings(before, bindings(u, vars))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	if failed < 50 {
		t.Fatalf("only %d of 500 trials failed: the property was hardly tested on failures", failed)
	}
}

// Failure is monotone: a pair that does not unify under some bindings does
// not unify under any extension of them. This is what lets the solver drop
// an overload option for good the first time it fails.
func TestUnifyFailureIsMonotoneQuick(t *testing.T) {
	failed := 0
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		u, vars, a, b := trialCase(rng)
		mark := u.Mark()
		ok := u.Unify(a, b)
		u.Undo(mark)
		if ok {
			return true
		}
		failed++
		// Extend the bindings: every hole still free takes a random type.
		for _, v := range vars {
			if u.Resolve(v) == Type(v) {
				u.Unify(v, genGroundType(rng, 1+rng.Intn(2)))
			}
		}
		return !u.Unify(a, b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	if failed < 50 {
		t.Fatalf("only %d of 500 cases failed before the extension", failed)
	}
}

// Neither outcome of a trial allocates: bindings go into the variables and
// onto a trail that is reused.
func TestTrialAllocatesNothing(t *testing.T) {
	u := NewUnifier()
	a, r := u.NewVar("a"), u.NewVar("r")
	want := &Fn{Params: []Type{TensorOf(a, 1), TInt64}, Ret: r}
	good := &Fn{Params: []Type{TensorOf(TReal64, 1), TInt64}, Ret: TReal64}
	bad := &Fn{Params: []Type{TensorOf(TReal64, 1), TReal64}, Ret: TReal64}
	loop := &Fn{Params: []Type{TensorOf(r, 1), TInt64}, Ret: TensorOf(a, 1)} // occurs check
	u.Unify(want, good)
	u.Undo(0) // the trail has its capacity now
	n := testing.AllocsPerRun(100, func() {
		for _, opt := range []Type{good, bad, loop} {
			mark := u.Mark()
			if u.Unify(want, opt) != (opt == Type(good)) {
				t.Fatalf("wrong verdict for %v", opt)
			}
			u.Undo(mark)
		}
	})
	if n != 0 {
		t.Fatalf("three trials allocate %v times", n)
	}
}

// Mangled names separate distinct signatures. A top-level function type is
// keyed by its parameter tuple only (§4.5: overloads are chosen by argument
// types; the return type is resolution's output), so the property compares
// that domain, not the full type.
func TestMangleSeparatesTypesQuick(t *testing.T) {
	signature := func(t Type) string {
		if fn, ok := t.(*Fn); ok {
			parts := make([]string, len(fn.Params))
			for i, p := range fn.Params {
				parts[i] = p.String()
			}
			return "(" + strings.Join(parts, ",") + ")"
		}
		return t.String()
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := genGroundType(rng, 1+rng.Intn(3))
		b := genGroundType(rng, 1+rng.Intn(3))
		// A bare type T and a function {T} -> R mangle to the same symbol
		// by design, so only compare within the same kind.
		_, aFn := a.(*Fn)
		_, bFn := b.(*Fn)
		if aFn != bFn {
			return true
		}
		if signature(a) == signature(b) {
			return Mangle("f", a) == Mangle("f", b)
		}
		return Mangle("f", a) != Mangle("f", b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
