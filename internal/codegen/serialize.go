package codegen

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"wolfc/internal/expr"
	"wolfc/internal/types"
	"wolfc/internal/wir"
)

// TWIR module serialisation: the persistence format behind
// FunctionCompileExportLibrary/LibraryFunctionLoad (paper §4.6 F10). The
// typed IR is written out; loading re-runs code generation, giving
// ahead-of-time compilation semantics without recompiling from source.

// WCLB0002: each distinct type is written once, where it is first used, and
// referred to by its index in the module's type table afterwards.
const libraryMagic = "WCLB0002"

// Marshal writes the typed module to w. It is encoded in memory and written
// with one Write; a *bytes.Buffer is encoded into directly.
func Marshal(w io.Writer, mod *wir.Module) error {
	if !mod.Typed {
		return fmt.Errorf("export: module must be typed")
	}
	buf, direct := w.(*bytes.Buffer)
	if !direct {
		buf = new(bytes.Buffer)
	}
	buf.WriteString(libraryMagic)
	e := &encoder{w: buf, fnIndex: make(map[*wir.Function]int, len(mod.Funcs)), typeIndex: map[types.Type]int{}, typeByName: map[string]int{}}
	for i, f := range mod.Funcs {
		e.fnIndex[f] = i
	}
	writeUvarint(buf, uint64(len(mod.Funcs)))
	for _, f := range mod.Funcs {
		if err := e.function(f); err != nil {
			return err
		}
	}
	if direct {
		return nil
	}
	_, err := w.Write(buf.Bytes())
	return err
}

// encoder is one Marshal: the output, and the indices cross-references are
// written as. A type's index is its position in the order types are first
// written; typeIndex finds it by pointer and typeByName by spelling, for
// equal types that are not one object.
type encoder struct {
	w          *bytes.Buffer
	fnIndex    map[*wir.Function]int
	typeIndex  map[types.Type]int
	typeByName map[string]int
}

func writeUvarint(w *bytes.Buffer, v uint64) {
	w.Write(binary.AppendUvarint(w.AvailableBuffer(), v))
}

func writeString(w *bytes.Buffer, s string) {
	writeUvarint(w, uint64(len(s)))
	w.WriteString(s)
}

// writeType refers to a type the module has written before by its table
// index plus one; a new type is a zero followed by its TypeSpecifier
// expression, and takes the next index.
func (e *encoder) writeType(t types.Type) error {
	if t == nil {
		t = types.TVoid // an untyped instruction reloads as Void
	}
	idx, ok := e.typeIndex[t]
	if !ok {
		name := t.String()
		if idx, ok = e.typeByName[name]; !ok {
			idx = len(e.typeByName)
			e.typeByName[name] = idx
			e.typeIndex[t] = idx
			writeUvarint(e.w, 0)
			return expr.Encode(e.w, types.Spec(t))
		}
		e.typeIndex[t] = idx
	}
	writeUvarint(e.w, uint64(idx)+1)
	return nil
}

func (e *encoder) function(f *wir.Function) error {
	w := e.w
	writeString(w, f.Name)
	writeUvarint(w, uint64(len(f.Params)))
	for _, p := range f.Params {
		writeString(w, p.Sym.Name)
		capture := uint64(0)
		if p.Capture {
			capture = 1
		}
		writeUvarint(w, capture)
		if err := e.writeType(p.Ty); err != nil {
			return err
		}
	}
	if err := e.writeType(f.RetTy); err != nil {
		return err
	}
	blockIndex := map[*wir.Block]int{}
	for i, b := range f.Blocks {
		blockIndex[b] = i
	}
	writeUvarint(w, uint64(len(f.Blocks)))
	for _, b := range f.Blocks {
		writeString(w, b.Label)
		writeUvarint(w, uint64(len(b.Preds)))
		for _, p := range b.Preds {
			writeUvarint(w, uint64(blockIndex[p]))
		}
		writeUvarint(w, uint64(len(b.Phis)))
		for _, phi := range b.Phis {
			if err := e.instr(phi, blockIndex); err != nil {
				return err
			}
		}
		writeUvarint(w, uint64(len(b.Instrs)))
		for _, in := range b.Instrs {
			if err := e.instr(in, blockIndex); err != nil {
				return err
			}
		}
	}
	return nil
}

const (
	refInstr byte = iota
	refParam
	refConst
	refFuncRef
)

func (e *encoder) value(v wir.Value) error {
	w := e.w
	switch x := v.(type) {
	case *wir.Instr:
		w.WriteByte(refInstr)
		writeUvarint(w, uint64(x.IDNum))
	case *wir.Param:
		w.WriteByte(refParam)
		writeUvarint(w, uint64(x.Index))
	case *wir.Const:
		w.WriteByte(refConst)
		if err := expr.Encode(w, x.Expr); err != nil {
			return err
		}
		return e.writeType(x.Ty)
	case *wir.FuncRef:
		w.WriteByte(refFuncRef)
		writeUvarint(w, uint64(e.fnIndex[x.Fn]))
	default:
		return fmt.Errorf("export: unknown value %T", v)
	}
	return nil
}

func (e *encoder) instr(in *wir.Instr, blockIndex map[*wir.Block]int) error {
	w := e.w
	writeUvarint(w, uint64(in.IDNum))
	w.WriteByte(byte(in.Op))
	writeString(w, in.Callee)
	writeString(w, in.NativeName())
	target := -1
	if in.ResolvedFn != nil {
		target = e.fnIndex[in.ResolvedFn]
	}
	writeUvarint(w, uint64(target+1))
	if err := e.writeType(in.Ty); err != nil {
		return err
	}
	writeUvarint(w, uint64(len(in.Args)))
	for _, a := range in.Args {
		if err := e.value(a); err != nil {
			return err
		}
	}
	writeUvarint(w, uint64(len(in.Targets)))
	for _, t := range in.Targets {
		writeUvarint(w, uint64(blockIndex[t]))
	}
	return nil
}

// Decode limits: a library is kilobytes of IR, so any count beyond these
// bounds is corruption, not data. They exist so a flipped bit in a varint
// cannot make the decoder attempt a multi-gigabyte allocation.
const (
	maxDecodeString = 1 << 20 // symbol/label/callee names
	maxDecodeCount  = 1 << 20 // functions, params, blocks, phis, instrs, args, targets, instruction ids
)

// Unmarshal reads a module written by Marshal. The input is untrusted —
// the artifact store feeds it bytes straight from disk — so every length
// is bounded, every cross-reference index is range-checked, and a
// recover() backstop converts any decoder panic into an error: corrupt
// or truncated input must never take the process down.
func Unmarshal(r io.Reader, env *types.Env) (mod *wir.Module, err error) {
	defer func() {
		if p := recover(); p != nil {
			mod, err = nil, fmt.Errorf("import: corrupt library: %v", p)
		}
	}()
	br := bufio.NewReader(r)
	magic := make([]byte, len(libraryMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, err
	}
	if string(magic) != libraryMagic {
		return nil, fmt.Errorf("import: bad library magic %q", magic)
	}
	nFuncs, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if nFuncs > maxDecodeCount {
		return nil, fmt.Errorf("import: implausible function count %d", nFuncs)
	}
	mod = &wir.Module{Typed: true}
	d := &decoder{br: br, env: env, mod: mod}
	for i := 0; i < int(nFuncs); i++ {
		if err := d.readFunction(); err != nil {
			return nil, fmt.Errorf("import: function %d: %w", i, err)
		}
	}
	// References to functions resolve once every function is read (checked:
	// an index may point at a function the stream never delivered).
	for _, fx := range d.fnRefs {
		if fx.ref >= len(mod.Funcs) {
			return nil, fmt.Errorf("import: function index %d out of range (%d functions)", fx.ref, len(mod.Funcs))
		}
		target := mod.Funcs[fx.ref]
		if fx.arg < 0 {
			fx.in.ResolvedFn = target
		} else {
			fx.in.Args[fx.arg] = &wir.FuncRef{Fn: target, Ty: target.FnType()}
		}
	}
	if err := mod.Lint(); err != nil {
		return nil, fmt.Errorf("import: invalid module: %w", err)
	}
	return mod, nil
}

// forwardRef is one forward reference: operand arg of in (the instruction's
// resolved callee when arg is negative) is entry ref of a table that is not
// complete yet.
type forwardRef struct {
	in  *wir.Instr
	arg int
	ref int
}

type decoder struct {
	br  *bufio.Reader
	env *types.Env
	mod *wir.Module
	// types is the module's type table, in the order the stream defines them.
	types []types.Type
	// fnRefs wait for the end of the module; instrRefs and instrByID (indexed
	// by instruction id) are the function being read, resolved at its end.
	fnRefs    []forwardRef
	instrRefs []forwardRef
	instrByID []*wir.Instr
	scratch   []byte
}

func (d *decoder) readUvarint() (uint64, error) { return binary.ReadUvarint(d.br) }

// readCount reads a collection length and rejects implausible values
// before anything is allocated from them.
func (d *decoder) readCount(what string) (int, error) {
	n, err := d.readUvarint()
	if err != nil {
		return 0, err
	}
	if n > maxDecodeCount {
		return 0, fmt.Errorf("implausible %s count %d", what, n)
	}
	return int(n), nil
}

func (d *decoder) readString() (string, error) {
	n, err := d.readUvarint()
	if err != nil || n == 0 {
		return "", err
	}
	if n > maxDecodeString {
		return "", fmt.Errorf("implausible string length %d", n)
	}
	if uint64(cap(d.scratch)) < n {
		d.scratch = make([]byte, n)
	}
	buf := d.scratch[:n]
	if _, err := io.ReadFull(d.br, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

// readType reads a type reference: zero defines the table's next entry from
// the TypeSpecifier expression that follows, n > 0 is entry n-1.
func (d *decoder) readType() (types.Type, error) {
	n, err := d.readUvarint()
	if err != nil {
		return nil, err
	}
	if n > 0 {
		if n > uint64(len(d.types)) {
			return nil, fmt.Errorf("type index %d out of range (%d types)", n-1, len(d.types))
		}
		return d.types[n-1], nil
	}
	e, err := expr.Decode(d.br)
	if err != nil {
		return nil, err
	}
	t, err := d.env.ParseSpec(e)
	if err != nil {
		return nil, err
	}
	d.types = append(d.types, t)
	return t, nil
}

func (d *decoder) readFunction() error {
	name, err := d.readString()
	if err != nil {
		return err
	}
	f := d.mod.NewFunction(name)
	f.Blocks = nil // NewFunction adds an entry block; rebuild from the wire
	nParams, err := d.readCount("parameter")
	if err != nil {
		return err
	}
	for i := 0; i < nParams; i++ {
		pname, err := d.readString()
		if err != nil {
			return err
		}
		capture, err := d.readUvarint()
		if err != nil {
			return err
		}
		ty, err := d.readType()
		if err != nil {
			return err
		}
		f.Params = append(f.Params, &wir.Param{
			Sym: expr.Sym(pname), Index: i, Ty: ty, Capture: capture == 1,
		})
	}
	if f.RetTy, err = d.readType(); err != nil {
		return err
	}
	nBlocks, err := d.readCount("block")
	if err != nil {
		return err
	}
	blocks := make([]*wir.Block, nBlocks)
	for i := range blocks {
		blocks[i] = f.NewBlock("b")
	}
	d.instrRefs, d.instrByID = d.instrRefs[:0], d.instrByID[:0]
	for i := range blocks {
		b := blocks[i]
		if b.Label, err = d.readString(); err != nil {
			return err
		}
		nPreds, err := d.readCount("predecessor")
		if err != nil {
			return err
		}
		for j := 0; j < nPreds; j++ {
			pi, err := d.readUvarint()
			if err != nil {
				return err
			}
			if pi >= uint64(len(blocks)) {
				return fmt.Errorf("predecessor index %d out of range (%d blocks)", pi, len(blocks))
			}
			b.Preds = append(b.Preds, blocks[pi])
		}
		nPhis, err := d.readCount("phi")
		if err != nil {
			return err
		}
		for j := 0; j < nPhis; j++ {
			in, err := d.readInstr(f, blocks)
			if err != nil {
				return err
			}
			in.Block = b
			b.Phis = append(b.Phis, in)
		}
		nInstrs, err := d.readCount("instruction")
		if err != nil {
			return err
		}
		for j := 0; j < nInstrs; j++ {
			in, err := d.readInstr(f, blocks)
			if err != nil {
				return err
			}
			in.Block = b
			b.Instrs = append(b.Instrs, in)
		}
	}
	// Operands that name instructions resolve now that the function is whole
	// (checked: an id may be one the stream never delivered).
	for _, fx := range d.instrRefs {
		if fx.ref >= len(d.instrByID) || d.instrByID[fx.ref] == nil {
			return fmt.Errorf("argument references undefined instruction %%%d", fx.ref)
		}
		fx.in.Args[fx.arg] = d.instrByID[fx.ref]
	}
	return nil
}

func (d *decoder) readInstr(f *wir.Function, blocks []*wir.Block) (*wir.Instr, error) {
	id, err := d.readCount("instruction id")
	if err != nil {
		return nil, err
	}
	opByte, err := d.br.ReadByte()
	if err != nil {
		return nil, err
	}
	in := &wir.Instr{IDNum: id, Op: wir.Op(opByte)}
	for len(d.instrByID) <= id {
		d.instrByID = append(d.instrByID, nil)
	}
	d.instrByID[id] = in
	if in.Callee, err = d.readString(); err != nil {
		return nil, err
	}
	if in.Native, err = d.readString(); err != nil {
		return nil, err
	}
	target, err := d.readCount("resolved function")
	if err != nil {
		return nil, err
	}
	if target > 0 {
		d.fnRefs = append(d.fnRefs, forwardRef{in: in, arg: -1, ref: target - 1})
	}
	if in.Ty, err = d.readType(); err != nil {
		return nil, err
	}
	nArgs, err := d.readCount("argument")
	if err != nil {
		return nil, err
	}
	in.Args = make([]wir.Value, nArgs)
	for i := range in.Args {
		tag, err := d.br.ReadByte()
		if err != nil {
			return nil, err
		}
		switch tag {
		case refInstr:
			rid, err := d.readCount("instruction id")
			if err != nil {
				return nil, err
			}
			d.instrRefs = append(d.instrRefs, forwardRef{in: in, arg: i, ref: rid})
		case refParam:
			pidx, err := d.readUvarint()
			if err != nil {
				return nil, err
			}
			if pidx >= uint64(len(f.Params)) {
				return nil, fmt.Errorf("parameter index %d out of range (%d params)", pidx, len(f.Params))
			}
			in.Args[i] = f.Params[pidx]
		case refConst:
			ce, err := expr.Decode(d.br)
			if err != nil {
				return nil, err
			}
			ty, err := d.readType()
			if err != nil {
				return nil, err
			}
			in.Args[i] = &wir.Const{Expr: ce, Ty: ty}
		case refFuncRef:
			fi, err := d.readCount("function")
			if err != nil {
				return nil, err
			}
			d.fnRefs = append(d.fnRefs, forwardRef{in: in, arg: i, ref: fi})
		default:
			return nil, fmt.Errorf("import: bad value tag %d", tag)
		}
	}
	nTargets, err := d.readCount("branch target")
	if err != nil {
		return nil, err
	}
	in.Targets = make([]*wir.Block, nTargets)
	for i := range in.Targets {
		bi, err := d.readUvarint()
		if err != nil {
			return nil, err
		}
		if bi >= uint64(len(blocks)) {
			return nil, fmt.Errorf("branch-target index %d out of range (%d blocks)", bi, len(blocks))
		}
		in.Targets[i] = blocks[bi]
	}
	return in, nil
}
