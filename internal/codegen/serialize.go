package codegen

import (
	"bufio"
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

const libraryMagic = "WCLB0001"

// Marshal writes the typed module to w.
func Marshal(w io.Writer, mod *wir.Module) error {
	if !mod.Typed {
		return fmt.Errorf("export: module must be typed")
	}
	bw := bufio.NewWriter(w)
	bw.WriteString(libraryMagic)
	fnIndex := map[*wir.Function]int{}
	for i, f := range mod.Funcs {
		fnIndex[f] = i
	}
	writeUvarint(bw, uint64(len(mod.Funcs)))
	for _, f := range mod.Funcs {
		if err := marshalFunction(bw, f, fnIndex); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func writeUvarint(w *bufio.Writer, v uint64) {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], v)
	w.Write(buf[:n])
}

func writeString(w *bufio.Writer, s string) {
	writeUvarint(w, uint64(len(s)))
	w.WriteString(s)
}

// writeType serialises a type by round-tripping through its TypeSpecifier
// expression form.
func writeType(w *bufio.Writer, t types.Type) error {
	return expr.Encode(w, typeSpecExpr(t))
}

// typeSpecExpr renders a ground type as a TypeSpecifier expression.
func typeSpecExpr(t types.Type) expr.Expr {
	switch x := t.(type) {
	case *types.Atomic:
		return expr.FromString(x.Name)
	case *types.Literal:
		return expr.FromInt64(x.Value)
	case *types.Compound:
		args := make([]expr.Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = typeSpecExpr(a)
		}
		return expr.New(expr.FromString(x.Ctor), args...)
	case *types.Fn:
		params := make([]expr.Expr, len(x.Params))
		for i, p := range x.Params {
			params[i] = typeSpecExpr(p)
		}
		return expr.New(expr.SymRule, expr.List(params...), typeSpecExpr(x.Ret))
	}
	return expr.FromString("Void")
}

func marshalFunction(w *bufio.Writer, f *wir.Function, fnIndex map[*wir.Function]int) error {
	writeString(w, f.Name)
	writeUvarint(w, uint64(len(f.Params)))
	for _, p := range f.Params {
		writeString(w, p.Sym.Name)
		capture := uint64(0)
		if p.Capture {
			capture = 1
		}
		writeUvarint(w, capture)
		if err := writeType(w, p.Ty); err != nil {
			return err
		}
	}
	if err := writeType(w, f.RetTy); err != nil {
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
			if err := marshalInstr(w, phi, f, fnIndex, blockIndex); err != nil {
				return err
			}
		}
		writeUvarint(w, uint64(len(b.Instrs)))
		for _, in := range b.Instrs {
			if err := marshalInstr(w, in, f, fnIndex, blockIndex); err != nil {
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

func marshalValue(w *bufio.Writer, v wir.Value, f *wir.Function, fnIndex map[*wir.Function]int) error {
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
		return writeType(w, x.Ty)
	case *wir.FuncRef:
		w.WriteByte(refFuncRef)
		writeUvarint(w, uint64(fnIndex[x.Fn]))
	default:
		return fmt.Errorf("export: unknown value %T", v)
	}
	return nil
}

func marshalInstr(w *bufio.Writer, in *wir.Instr, f *wir.Function,
	fnIndex map[*wir.Function]int, blockIndex map[*wir.Block]int) error {
	writeUvarint(w, uint64(in.IDNum))
	w.WriteByte(byte(in.Op))
	writeString(w, in.Callee)
	writeString(w, in.NativeName())
	target := -1
	if in.ResolvedFn != nil {
		target = fnIndex[in.ResolvedFn]
	}
	writeUvarint(w, uint64(target+1))
	if err := writeType(w, in.Ty); err != nil {
		return err
	}
	writeUvarint(w, uint64(len(in.Args)))
	for _, a := range in.Args {
		if err := marshalValue(w, a, f, fnIndex); err != nil {
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
	maxDecodeCount  = 1 << 20 // functions, params, blocks, phis, instrs, args, targets
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
		if _, err := d.readFunction(); err != nil {
			return nil, fmt.Errorf("import: function %d: %w", i, err)
		}
	}
	// Resolve deferred references (checked: indices may point at functions
	// or instructions the truncated stream never delivered).
	for _, fix := range d.fixups {
		if err := fix(); err != nil {
			return nil, fmt.Errorf("import: %w", err)
		}
	}
	if err := mod.Lint(); err != nil {
		return nil, fmt.Errorf("import: invalid module: %w", err)
	}
	return mod, nil
}

type decoder struct {
	br     *bufio.Reader
	env    *types.Env
	mod    *wir.Module
	fixups []func() error
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
	if err != nil {
		return "", err
	}
	if n > maxDecodeString {
		return "", fmt.Errorf("implausible string length %d", n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(d.br, buf); err != nil {
		return "", err
	}
	return string(buf), nil
}

func (d *decoder) readType() (types.Type, error) {
	e, err := expr.Decode(d.br)
	if err != nil {
		return nil, err
	}
	return d.env.ParseSpec(e)
}

func (d *decoder) readFunction() (*wir.Function, error) {
	name, err := d.readString()
	if err != nil {
		return nil, err
	}
	f := d.mod.NewFunction(name)
	f.Blocks = nil // NewFunction adds an entry block; rebuild from the wire
	nParams, err := d.readCount("parameter")
	if err != nil {
		return nil, err
	}
	for i := 0; i < nParams; i++ {
		pname, err := d.readString()
		if err != nil {
			return nil, err
		}
		capture, err := d.readUvarint()
		if err != nil {
			return nil, err
		}
		ty, err := d.readType()
		if err != nil {
			return nil, err
		}
		f.Params = append(f.Params, &wir.Param{
			Sym: expr.Sym(pname), Index: i, Ty: ty, Capture: capture == 1,
		})
	}
	if f.RetTy, err = d.readType(); err != nil {
		return nil, err
	}
	nBlocks, err := d.readCount("block")
	if err != nil {
		return nil, err
	}
	blocks := make([]*wir.Block, nBlocks)
	for i := range blocks {
		blocks[i] = f.NewBlock("b")
	}
	instrByID := map[int]*wir.Instr{}
	for i := range blocks {
		b := blocks[i]
		if b.Label, err = d.readString(); err != nil {
			return nil, err
		}
		nPreds, err := d.readCount("predecessor")
		if err != nil {
			return nil, err
		}
		for j := 0; j < nPreds; j++ {
			pi, err := d.readUvarint()
			if err != nil {
				return nil, err
			}
			if pi >= uint64(len(blocks)) {
				return nil, fmt.Errorf("predecessor index %d out of range (%d blocks)", pi, len(blocks))
			}
			b.Preds = append(b.Preds, blocks[pi])
		}
		nPhis, err := d.readCount("phi")
		if err != nil {
			return nil, err
		}
		for j := 0; j < nPhis; j++ {
			in, err := d.readInstr(f, blocks, instrByID)
			if err != nil {
				return nil, err
			}
			in.Block = b
			b.Phis = append(b.Phis, in)
		}
		nInstrs, err := d.readCount("instruction")
		if err != nil {
			return nil, err
		}
		for j := 0; j < nInstrs; j++ {
			in, err := d.readInstr(f, blocks, instrByID)
			if err != nil {
				return nil, err
			}
			in.Block = b
			b.Instrs = append(b.Instrs, in)
		}
	}
	return f, nil
}

func (d *decoder) readInstr(f *wir.Function, blocks []*wir.Block, instrByID map[int]*wir.Instr) (*wir.Instr, error) {
	id, err := d.readUvarint()
	if err != nil {
		return nil, err
	}
	opByte, err := d.br.ReadByte()
	if err != nil {
		return nil, err
	}
	in := &wir.Instr{IDNum: int(id), Op: wir.Op(opByte)}
	instrByID[in.IDNum] = in
	if in.Callee, err = d.readString(); err != nil {
		return nil, err
	}
	if in.Native, err = d.readString(); err != nil {
		return nil, err
	}
	target, err := d.readUvarint()
	if err != nil {
		return nil, err
	}
	if target > 0 {
		ti := int(target - 1)
		d.fixups = append(d.fixups, func() error {
			if ti >= len(d.mod.Funcs) {
				return fmt.Errorf("resolved-function index %d out of range (%d functions)", ti, len(d.mod.Funcs))
			}
			in.ResolvedFn = d.mod.Funcs[ti]
			return nil
		})
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
			rid, err := d.readUvarint()
			if err != nil {
				return nil, err
			}
			idx := i
			irid := int(rid)
			d.fixups = append(d.fixups, func() error {
				ref, ok := instrByID[irid]
				if !ok {
					return fmt.Errorf("argument references undefined instruction %%%d", irid)
				}
				in.Args[idx] = ref
				return nil
			})
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
			fi, err := d.readUvarint()
			if err != nil {
				return nil, err
			}
			idx := i
			ffi := int(fi)
			d.fixups = append(d.fixups, func() error {
				if ffi >= len(d.mod.Funcs) {
					return fmt.Errorf("function-ref index %d out of range (%d functions)", ffi, len(d.mod.Funcs))
				}
				target := d.mod.Funcs[ffi]
				in.Args[idx] = &wir.FuncRef{Fn: target, Ty: target.FnType()}
				return nil
			})
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
