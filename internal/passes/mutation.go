package passes

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"wolfc/internal/types"
	"wolfc/internal/wir"
)

// InsertCopies implements the static half of the mutability protocol (F5,
// §4.5): a Part assignment must not be observable through another name for
// the same tensor. Two names arise in two ways, and each gets an explicit
// Native`Copy where it arises:
//
//   - the assignment's tensor operand is still live afterwards (w = v;
//     w[[i]] = x; ... v ...), or is a constant, which must read the same on
//     the next trip round a loop: the operand is copied at the assignment;
//   - a phi takes an operand that stays live past the edge (r = If[c, a, b],
//     or a loop entered with a value that is read again after it) and some
//     tensor the phi is connected to is assigned to: the operand is copied
//     on the edge, once, rather than at every assignment in the loop.
//
// Afterwards every Part assignment's tensor operand is an instruction
// result or parameter that dies at the assignment and that no other live
// value refers to, which is what lets the memory pass treat the assignment
// as consuming it (InsertRefCounts) and the backends run the chain in place
// in one register. The dynamic half (the Shared flag on values entering
// from the interpreter) is handled by the runtime's copy-on-write.
//
// With DisableCopyElision set, every Part assignment copies — the ablation
// matching the paper's QSort discussion — and no elementwise operation writes
// over an operand (reuseTemporaries).
func InsertCopies(mod *wir.Module, opts Options) {
	for _, f := range mod.Funcs {
		insertCopies(f, opts)
		if !opts.DisableCopyElision {
			reuseTemporaries(f)
		}
	}
}

func insertCopies(f *wir.Function, opts Options) {
	tensor := func(v wir.Value) bool { return trackedValue(v) && types.IsTensor(v.Type()) }
	var stores []*wir.Instr
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == wir.OpCall && isSetPart(in.Callee) && len(in.Args) > 0 {
				stores = append(stores, in)
			}
		}
	}
	if len(stores) == 0 {
		return
	}
	lv := ComputeLiveness(f, tensor)
	id := nextID(f)
	copyOf := func(v wir.Value) *wir.Instr {
		cp := &wir.Instr{
			IDNum: id, Op: wir.OpCall, Callee: "Native`Copy", Native: "copy_tensor",
			Ty: v.Type(), Args: []wir.Value{v},
		}
		id++
		cp.SetProp("overload", &types.FuncDef{Name: "Native`Copy", Native: "copy_tensor"})
		return cp
	}
	copyAtPhis(f, lv, stores, tensor, copyOf)
	for _, b := range f.Blocks {
		for idx := 0; idx < len(b.Instrs); idx++ {
			in := b.Instrs[idx]
			if in.Op != wir.OpCall || !isSetPart(in.Callee) || len(in.Args) == 0 {
				continue
			}
			if !opts.DisableCopyElision && tensor(in.Args[0]) && !lv.LiveAfter(b, idx, in.Args[0]) {
				continue
			}
			cp := copyOf(in.Args[0])
			cp.Block = b
			b.Instrs = append(b.Instrs[:idx], append([]*wir.Instr{cp}, b.Instrs[idx:]...)...)
			idx++ // now pointing at the SetPart again
			in.Args[0] = cp
		}
	}
}

// copyAtPhis separates the names a phi would otherwise give one tensor:
// where an operand outlives the edge (or feeds a second phi on it) and the
// phi belongs to a web some Part assignment writes, the phi gets a copy
// made at the end of the predecessor.
func copyAtPhis(f *wir.Function, lv *Liveness, stores []*wir.Instr,
	tensor func(wir.Value) bool, copyOf func(wir.Value) *wir.Instr) {
	// Webs: values that may be one object — a phi and its operands, an
	// assignment's result and its operand.
	web := webs{}
	for _, b := range f.Blocks {
		for _, phi := range b.Phis {
			for _, a := range phi.Args {
				if tensor(phi) && tensor(a) {
					web.union(phi, a)
				}
			}
		}
	}
	for _, st := range stores {
		if tensor(st.Args[0]) {
			web.union(st, st.Args[0])
		}
	}
	written := map[wir.Value]bool{}
	for _, st := range stores {
		written[web.find(st)] = true
	}
	for _, s := range f.Blocks {
		for pi, p := range s.Preds {
			taken := map[wir.Value]bool{}
			for _, phi := range s.Phis {
				if !tensor(phi) || pi >= len(phi.Args) || !tensor(phi.Args[pi]) || !written[web.find(phi)] {
					continue
				}
				a := phi.Args[pi]
				if !lv.LiveIn[s][a] && !taken[a] {
					taken[a] = true // the only name from here on
					continue
				}
				cp := copyOf(a)
				cp.Block = p
				n := len(p.Instrs) - 1
				p.Instrs = append(p.Instrs[:n], cp, p.Instrs[n])
				phi.Args[pi] = cp
			}
		}
	}
}

// Elementwise tensor arithmetic writes its result over an operand nothing
// can see again. In {-Cos[a], Sin[a]} + v the list is dead one instruction
// after it is made, and the sum has its shape and type: the sum may be written
// into it. The instruction is renamed native_intoK, K the operand it writes
// over, and from there on it consumes that operand as a Part assignment
// consumes its tensor (InsertRefCounts moves the reference to the result, no
// acquire and release pair). Two kinds of operand qualify, each with the
// result's exact type, the first preferred:
//
//   - a loop-carried phi that dies at the instruction and whose web (the
//     phis, their operands and Part assignments connected to it, which may
//     all be one object) is private: every other member is a phi, a constant
//     (Shared, so the runtime copies it the one time it arrives) or a fresh
//     tensor, none is live after the instruction or another operand of it,
//     and none is handed to compiled code or captured. Figure 1's walk
//     carries its point this way: the step's sum is stored in the result
//     (a packed array, so the store copies it) and comes round as the next
//     step's operand, so each step writes over the last one's point;
//   - a dying temporary: made by Native`List, a fill, Native`Copy or another
//     elementwise operation, so it is an object of this function's own that
//     no parameter, constant or phi also names, and this is its one use, in
//     the block that defines it, so that it dies here, every time it is made,
//     and has been handed to nothing (a call, a closure) that could still
//     hold it.
//
// The runtime's Into forms still allocate when the operand is flagged Shared.
func reuseTemporaries(f *wir.Function) {
	var count []int
	var webs *tensorWebs
	for _, b := range f.Blocks {
		for idx, in := range b.Instrs {
			if in.Op != wir.OpCall || in.ResolvedFn != nil {
				continue
			}
			native := in.NativeName()
			ks := ElementwiseOperands(native)
			if ks == nil {
				continue
			}
			into := -1
			for _, k := range ks {
				if p, ok := in.Args[k].(*wir.Instr); ok && p.Op == wir.OpPhi && types.Equal(p.Ty, in.Ty) {
					if webs == nil {
						webs = newTensorWebs(f)
					}
					if webs.carriedDying(in, b, idx, p) {
						into = k
						break
					}
				}
			}
			for _, k := range ks {
				if into >= 0 {
					break
				}
				def, ok := in.Args[k].(*wir.Instr)
				if !ok || !freshTensor(def) || !types.Equal(def.Ty, in.Ty) || def.Block != b {
					continue
				}
				if count == nil {
					count, _ = uses(f)
				}
				if count[def.IDNum] == 1 {
					into = k
				}
			}
			if into >= 0 {
				in.Native = fmt.Sprintf("%s_into%d", native, into+1)
			}
		}
	}
}

// webs is a union-find over values that may name one object.
type webs map[wir.Value]wir.Value

func (w webs) find(v wir.Value) wir.Value {
	p, ok := w[v]
	if !ok || p == v {
		return v
	}
	r := w.find(p)
	w[v] = r
	return r
}

func (w webs) union(a, b wir.Value) { w[w.find(a)] = w.find(b) }

// tensorWebs partitions a function's tensor values into webs that may name
// one object — a phi and its operands, a Part assignment's result and its
// tensor operand — with their members, their users and their liveness.
type tensorWebs struct {
	lv      *Liveness
	web     webs
	members map[wir.Value][]wir.Value
	users   map[wir.Value][]*wir.Instr
}

func newTensorWebs(f *wir.Function) *tensorWebs {
	tensor := func(v wir.Value) bool { return types.IsTensor(v.Type()) }
	w := &tensorWebs{
		lv:      ComputeLiveness(f, func(v wir.Value) bool { return trackedValue(v) && tensor(v) }),
		web:     webs{},
		members: map[wir.Value][]wir.Value{},
		users:   map[wir.Value][]*wir.Instr{},
	}
	f.Each(func(in *wir.Instr) {
		for _, a := range in.Args {
			if tensor(a) {
				w.users[a] = append(w.users[a], in)
			}
		}
		switch {
		case in.Op == wir.OpPhi && tensor(in):
			for _, a := range in.Args {
				w.web.union(in, a)
			}
		case in.Op == wir.OpCall && strings.HasPrefix(in.NativeName(), "setpart_") && len(in.Args) > 0:
			w.web.union(in, in.Args[0])
		}
	})
	listed := map[wir.Value]bool{}
	for v := range w.web {
		for _, m := range []wir.Value{v, w.web.find(v)} { // a root need not be a key
			if !listed[m] {
				listed[m] = true
				r := w.web.find(m)
				w.members[r] = append(w.members[r], m)
			}
		}
	}
	return w
}

// carriedDying reports whether in, the idx-th instruction of b, may write
// over p, a phi operand of its type (see reuseTemporaries).
func (w *tensorWebs) carriedDying(in *wir.Instr, b *wir.Block, idx int, p *wir.Instr) bool {
	if w.lv.LiveAfter(b, idx, p) {
		return false
	}
	for _, m := range w.members[w.web.find(p)] {
		switch x := m.(type) {
		case *wir.Const:
			continue
		case *wir.Instr:
			if x != p && x != in && x.Op != wir.OpPhi && !freshTensor(x) && !strings.HasPrefix(x.NativeName(), "setpart_") {
				return false
			}
		default:
			return false
		}
		if m != p && m != in && (slices.Contains(in.Args, m) || w.lv.LiveAfter(b, idx, m)) {
			return false
		}
		// Compiled code could hand the object back under another name.
		for _, u := range w.users[m] {
			switch u.CallKind() {
			case "direct", "indirect", "registry", "kernel":
				return false
			}
			if u.Op == wir.OpClosure {
				return false
			}
		}
	}
	return true
}

// CutInto splits the name of an elementwise native that writes its result
// over an operand, native_intoK, into the plain native and that operand's
// index; into is -1 for any other name.
func CutInto(name string) (native string, into int) {
	if base, k, ok := strings.Cut(name, "_into"); ok && (k == "1" || k == "2") {
		return base, int(k[0] - '1')
	}
	return name, -1
}

// ElementwiseOperands lists the tensor operands of a plain elementwise
// native, the ones its result can be written over; nil for any other native.
func ElementwiseOperands(native string) []int {
	switch {
	case native == "tensor_plus", native == "tensor_times", native == "tensor_subtract":
		return []int{0, 1}
	case strings.HasPrefix(native, "scalar_tensor_"):
		return []int{1}
	case strings.HasPrefix(native, "tensor_scalar_"), strings.HasPrefix(native, "tensor_math_"), native == "tensor_minus":
		return []int{0}
	}
	return nil
}

// freshTensor reports whether def makes a new tensor each time it runs.
func freshTensor(def *wir.Instr) bool {
	if def.Op != wir.OpCall || def.ResolvedFn != nil {
		return false
	}
	if def.Callee == "Native`List" {
		return true
	}
	switch native, _ := CutInto(def.NativeName()); native {
	case "list_fill", "matrix_fill", "copy_tensor":
		return true
	default:
		return ElementwiseOperands(native) != nil
	}
}

// isSetPart matches only the checked, rebinding Part assignment produced by
// user code (w[[i]] = v). The Unsafe variant is emitted by macro-generated
// loops filling freshly allocated lists in place without rebinding; copying
// those would discard the writes, and freshness makes the copy unnecessary.
func isSetPart(callee string) bool {
	return callee == "Native`SetPart"
}

// trackedValue reports whether v has a live range: constants and function
// references are materialised at frame set-up and never die.
func trackedValue(v wir.Value) bool {
	switch v.(type) {
	case *wir.Instr, *wir.Param:
		return true
	}
	return false
}

// The memory-management pass (F7, §4.5) works on an ownership discipline.
// Every managed value that is used holds exactly one reference from its
// definition to its death, and an instruction either borrows an operand or
// consumes it:
//
//   - a native's result arrives unowned and is acquired after the call; a
//     compiled callee's result (direct, indirect or registry call) arrives
//     owned, because Return hands the callee's reference to the caller;
//   - a parameter is the caller's reference, so the callee acquires its own
//     at entry;
//   - a checked Part assignment consumes its tensor operand and hands that
//     reference to its result (InsertCopies made the operand die there), so
//     a chain of assignments touches no count — the runtime moves the
//     reference only on the cold copy-on-write branch, where the result is
//     a different object;
//   - a phi takes over the reference of an operand that dies on the edge,
//     and needs an acquire on the edge otherwise;
//   - everything else borrows, and the value is released after its last use
//     (or on the edge along which it dies).
//
// On this backend the host garbage collector owns the storage and the
// counts are bookkeeping; the C backend frees at zero, so there the
// discipline is what keeps a returned tensor alive.

// consumedOperand returns the index of the operand whose reference in
// consumes and hands to its result, or -1: the tensor of a checked Part
// assignment, and the temporary an elementwise operation writes its result
// into (reuseTemporaries).
func consumedOperand(in *wir.Instr) int {
	if in.Op != wir.OpCall || len(in.Args) == 0 {
		return -1
	}
	switch native, into := CutInto(in.NativeName()); {
	case native == "setpart_1", native == "setpart_2":
		return 0
	case into >= 0 && into < len(in.Args):
		return into
	}
	return -1
}

// arrivesOwned reports whether in's result already carries a reference when
// it is defined: compiled callees return owned values.
func arrivesOwned(in *wir.Instr) bool {
	switch in.CallKind() {
	case "direct", "indirect", "registry":
		return true
	}
	return false
}

// InsertRefCounts places MemoryAcquire/MemoryRelease calls according to the
// ownership discipline above. Edges that need an operation and are critical
// are split.
func InsertRefCounts(mod *wir.Module, env *types.Env) {
	for _, f := range mod.Funcs {
		insertRefCounts(f, env)
	}
}

func insertRefCounts(f *wir.Function, env *types.Env) {
	managed := func(v wir.Value) bool { return managedValue(env, v) }
	if !hasManaged(f, managed) {
		return
	}
	lv := ComputeLiveness(f, managed)
	instrUses, paramUses := uses(f)
	used := func(v wir.Value) bool {
		if p, ok := v.(*wir.Param); ok {
			return paramUses[p.Index] > 0
		}
		return instrUses[v.(*wir.Instr).IDNum] > 0
	}
	id := nextID(f)
	refOp := func(native string, v wir.Value) *wir.Instr {
		callee := "Native`MemoryAcquire"
		if native == "memory_release" {
			callee = "Native`MemoryRelease"
		}
		rc := &wir.Instr{
			IDNum: id, Op: wir.OpCall, Callee: callee, Native: native,
			Ty: types.TVoid, Args: []wir.Value{v},
		}
		id++
		rc.SetProp("overload", &types.FuncDef{Name: callee, Native: native})
		return rc
	}
	acquire := func(v wir.Value) *wir.Instr { return refOp("memory_acquire", v) }
	release := func(v wir.Value) *wir.Instr { return refOp("memory_release", v) }

	// head[b] goes at the top of b (after a leading abort check, which must
	// stay first for the backend's poll folding); tail[b] goes before b's
	// terminator.
	head := map[*wir.Block][]*wir.Instr{}
	tail := map[*wir.Block][]*wir.Instr{}
	type split struct {
		from, to *wir.Block
		ops      []*wir.Instr
	}
	var splits []split

	entry := f.Entry()
	for _, p := range f.Params {
		if managed(p) && used(p) {
			head[entry] = append(head[entry], acquire(p))
		}
	}
	for _, b := range f.Blocks {
		for _, phi := range b.Phis {
			if managed(phi) && !used(phi) {
				head[b] = append(head[b], release(phi))
			}
		}
		// Index of each managed value's last use in b.
		lastUse := map[wir.Value]int{}
		for idx, in := range b.Instrs {
			for _, a := range in.Args {
				if managed(a) {
					lastUse[a] = idx
				}
			}
		}
		liveAfter := func(v wir.Value, idx int) bool {
			return lastUse[v] > idx || lv.LiveOut[b][v]
		}
		out := make([]*wir.Instr, 0, len(b.Instrs)+2)
		for idx, in := range b.Instrs {
			var consumed wir.Value
			switch k := consumedOperand(in); {
			case k >= 0:
				consumed = in.Args[k]
				// The operand's own reference is not free to take when it
				// lives on (or is a constant): make one first.
				if !managed(consumed) || liveAfter(consumed, idx) {
					out = append(out, acquire(consumed))
				}
			case in.Op == wir.OpReturn && len(in.Args) == 1 && env.MemberOf(in.Args[0].Type(), "MemoryManaged"):
				consumed = in.Args[0]
				if !managed(consumed) {
					out = append(out, acquire(consumed))
				}
			}
			out = append(out, in)
			if in.IsTerminator() {
				break
			}
			if managed(in) {
				owned := consumed != nil || arrivesOwned(in)
				switch {
				case !owned && used(in):
					out = append(out, acquire(in))
				case owned && !used(in):
					out = append(out, release(in))
				}
			}
			for ai, a := range in.Args {
				if !managed(a) || a == consumed || liveAfter(a, idx) || slices.Contains(in.Args[:ai], a) {
					continue
				}
				out = append(out, release(a))
			}
		}
		b.Instrs = out

		succs := uniqueSuccs(b)
		for _, s := range succs {
			pi := s.PredIndex(b)
			var ops []*wir.Instr
			moved := map[wir.Value]bool{}
			for _, phi := range s.Phis {
				if !managed(phi) || pi < 0 || pi >= len(phi.Args) {
					continue
				}
				a := phi.Args[pi]
				if managed(a) && !lv.LiveIn[s][a] && !moved[a] {
					moved[a] = true // the phi takes over a's reference
					continue
				}
				ops = append(ops, acquire(a))
			}
			for _, v := range sortedValues(lv.LiveOut[b]) {
				if !lv.LiveIn[s][v] && !moved[v] {
					ops = append(ops, release(v))
				}
			}
			switch {
			case len(ops) == 0:
			case len(succs) == 1:
				tail[b] = append(tail[b], ops...)
			case len(s.Preds) == 1:
				head[s] = append(head[s], ops...)
			default:
				splits = append(splits, split{b, s, ops})
			}
		}
	}
	for _, b := range f.Blocks {
		if hs := head[b]; len(hs) > 0 {
			at := 0
			if b.Instrs[0].Op == wir.OpAbortCheck {
				at = 1
			}
			b.Instrs = append(b.Instrs[:at], append(hs, b.Instrs[at:]...)...)
		}
		if ts := tail[b]; len(ts) > 0 {
			n := len(b.Instrs) - 1
			b.Instrs = append(b.Instrs[:n], append(ts, b.Instrs[n])...)
		}
		for _, in := range b.Instrs {
			in.Block = b
		}
	}
	for _, sp := range splits {
		e := &wir.Block{Label: "edge", Fn: f, Preds: []*wir.Block{sp.from}, AbortInhibit: sp.to.AbortInhibit}
		jump := &wir.Instr{IDNum: id, Op: wir.OpBranch, Targets: []*wir.Block{sp.to}}
		id++
		e.Instrs = append(sp.ops, jump)
		for _, in := range e.Instrs {
			in.Block = e
		}
		for ti, t := range sp.from.Term().Targets {
			if t == sp.to {
				sp.from.Term().Targets[ti] = e
			}
		}
		sp.to.Preds[sp.to.PredIndex(sp.from)] = e
		f.Blocks = append(f.Blocks, e)
	}
	renumber(f)
}

// hasManaged reports whether f defines or receives any managed value.
func hasManaged(f *wir.Function, managed func(wir.Value) bool) bool {
	found := slices.ContainsFunc(f.Params, func(p *wir.Param) bool { return managed(p) })
	f.Each(func(in *wir.Instr) { found = found || managed(in) })
	return found
}

// uniqueSuccs returns b's successors with a repeated target (a conditional
// branch whose arms coincide) listed once.
func uniqueSuccs(b *wir.Block) []*wir.Block {
	s := b.Succs()
	if len(s) == 2 && s[0] == s[1] {
		return s[:1]
	}
	return s
}

// sortedValues orders a live set deterministically (parameters by index,
// then instructions by id): map order must not leak into the IR.
func sortedValues(set map[wir.Value]bool) []wir.Value {
	out := make([]wir.Value, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	key := func(v wir.Value) int {
		switch x := v.(type) {
		case *wir.Param:
			return x.Index - (1 << 30)
		case *wir.Instr:
			return x.IDNum
		}
		return 0
	}
	sort.Slice(out, func(i, j int) bool { return key(out[i]) < key(out[j]) })
	return out
}

// managedValue reports whether the value's type is in the MemoryManaged
// class (paper §4.4 lists "MemoryManaged" among the type classes).
func managedValue(env *types.Env, v wir.Value) bool {
	if !trackedValue(v) {
		return false
	}
	t := v.Type()
	return t != nil && env.MemberOf(t, "MemoryManaged")
}

// VerifyRefCounts checks the ownership discipline InsertRefCounts
// establishes, by counting references along every path: no value is used or
// released without holding one, every predecessor of a block delivers the
// same holdings, and a Return leaves nothing held but the value it hands to
// the caller. Acquired once and released (or consumed) once on every path
// is exactly what that amounts to.
func VerifyRefCounts(mod *wir.Module, env *types.Env) error {
	for _, f := range mod.Funcs {
		if err := verifyRefCounts(f, env); err != nil {
			return fmt.Errorf("refcounts %s: %w", f.Name, err)
		}
	}
	return nil
}

func verifyRefCounts(f *wir.Function, env *types.Env) error {
	managed := func(v wir.Value) bool { return managedValue(env, v) }
	type holdings map[wir.Value]int
	drop := func(h holdings, v wir.Value, what string, in *wir.Instr) error {
		if h[v] == 0 {
			return fmt.Errorf("%s of %s in %s holds no reference (%s)", what, v.Name(), in.Block.Label, in.Name())
		}
		if h[v]--; h[v] == 0 {
			delete(h, v)
		}
		return nil
	}
	equal := func(a, b holdings) bool {
		if len(a) != len(b) {
			return false
		}
		for v, n := range a {
			if b[v] != n {
				return false
			}
		}
		return true
	}
	atEntry := map[*wir.Block]holdings{f.Entry(): {}}
	cfg := Analyze(f)
	for _, i := range cfg.Order {
		b := cfg.Blocks[i]
		h := holdings{}
		for v, n := range atEntry[b] {
			h[v] = n
		}
		for _, in := range b.Instrs {
			native := ""
			if in.Op == wir.OpCall {
				native = in.NativeName()
			}
			for _, a := range in.Args {
				// A parameter not yet acquired is still the caller's.
				if _, isParam := a.(*wir.Param); managed(a) && !isParam && native != "memory_acquire" && h[a] == 0 {
					return fmt.Errorf("%s uses %s in %s after its reference is gone", in.Name(), a.Name(), b.Label)
				}
			}
			switch {
			case native == "memory_acquire":
				h[in.Args[0]]++
			case native == "memory_release":
				if err := drop(h, in.Args[0], "release", in); err != nil {
					return err
				}
			case consumedOperand(in) >= 0:
				if err := drop(h, in.Args[consumedOperand(in)], "consuming assignment", in); err != nil {
					return err
				}
				h[in]++
			case in.Op == wir.OpReturn:
				if len(in.Args) == 1 && env.MemberOf(in.Args[0].Type(), "MemoryManaged") {
					if err := drop(h, in.Args[0], "return", in); err != nil {
						return err
					}
				}
				for v, n := range h {
					return fmt.Errorf("return in %s leaves %d reference(s) to %s", b.Label, n, v.Name())
				}
			case managed(in) && arrivesOwned(in):
				h[in]++
			}
		}
		for _, s := range uniqueSuccs(b) {
			hs := holdings{}
			for v, n := range h {
				hs[v] = n
			}
			pi := s.PredIndex(b)
			for _, phi := range s.Phis {
				if !managed(phi) || pi < 0 || pi >= len(phi.Args) {
					continue
				}
				if err := drop(hs, phi.Args[pi], "phi operand", phi); err != nil {
					return err
				}
				hs[phi]++
			}
			if prev, seen := atEntry[s]; !seen {
				atEntry[s] = hs
			} else if !equal(prev, hs) {
				return fmt.Errorf("edge %s -> %s delivers different holdings than an earlier edge", b.Label, s.Label)
			}
		}
	}
	return nil
}
