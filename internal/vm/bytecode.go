package vm

import (
	"fmt"
	"strings"
)

// Op is a Wolfram Virtual Machine opcode. The WVM is a stack machine: each
// instruction pops its operands from and pushes its result to an operand
// stack of boxed Values.
type Op uint8

const (
	OpNop        Op = iota
	OpPushConst     // push consts[A]
	OpLoad          // push slot A
	OpStore         // pop into slot A
	OpDup           // duplicate top of stack
	OpPop           // discard top of stack
	OpJmp           // pc = A
	OpJmpIfFalse    // pop; if false pc = A
	OpJmpIfTrue     // pop; if true pc = A

	// Typed arithmetic. Integer forms are overflow-checked and raise a
	// numeric exception for interpreter fallback (F2).
	OpAddI
	OpAddR
	OpSubI
	OpSubR
	OpMulI
	OpMulR
	OpDivR
	OpModI
	OpQuotI
	OpNegI
	OpNegR
	OpPowI
	OpPowR
	OpBAnd
	OpBOr
	OpBXor
	OpShl
	OpShr
	OpToReal // coerce int on top of stack to real

	// Comparisons (typed).
	OpLtI
	OpLtR
	OpLeI
	OpLeR
	OpGtI
	OpGtR
	OpGeI
	OpGeR
	OpEqI
	OpEqR
	OpNeI
	OpNeR
	OpNot

	// Calls into the maths runtime: A = function id.
	OpMath1 // unary real function
	OpMath2 // binary real function

	// Tensor operations (boxed; see paper §6 on unboxing overhead).
	OpLength
	OpLengthV  // A = slot; length of a tensor variable without copying
	OpPart     // A = number of indices; pops indices then tensor
	OpPartV    // A = slot, B = number of indices; indexes the slot directly
	OpSetPart  // A = slot, B = number of indices; pops value then indices; mutates in place (slots uniquely own their tensors under copy-on-read)
	OpNewTable // unused placeholder; see OpRuntime for builders

	// Runtime library calls (Dot, Total, random, table building): A = id,
	// B = argc.
	OpRuntime

	// Escape hatch: evaluate escapes[A] in the interpreter with the current
	// variable bindings (paper §2.2 "inserts a statement which invokes the
	// interpreter at runtime").
	OpCallInterp

	// OpCoerce converts the dynamically-typed result of an interpreter
	// escape to the statically expected kind (A), raising a type error for
	// interpreter-fallback otherwise.
	OpCoerce

	// Abort polling at loop heads (F3).
	OpAbortCheck

	OpRet
)

var opNames = map[Op]string{
	OpNop: "Nop", OpPushConst: "PushConst", OpLoad: "Load", OpStore: "Store",
	OpDup: "Dup", OpPop: "Pop", OpJmp: "Jmp", OpJmpIfFalse: "JmpIfFalse",
	OpJmpIfTrue: "JmpIfTrue", OpAddI: "AddI", OpAddR: "AddR", OpSubI: "SubI",
	OpSubR: "SubR", OpMulI: "MulI", OpMulR: "MulR", OpDivR: "DivR",
	OpModI: "ModI", OpQuotI: "QuotI", OpNegI: "NegI", OpNegR: "NegR",
	OpPowI: "PowI", OpPowR: "PowR", OpBAnd: "BAnd", OpBOr: "BOr",
	OpBXor: "BXor", OpShl: "Shl", OpShr: "Shr", OpToReal: "ToReal", OpLtI: "LtI",
	OpLtR: "LtR", OpLeI: "LeI", OpLeR: "LeR", OpGtI: "GtI", OpGtR: "GtR",
	OpGeI: "GeI", OpGeR: "GeR", OpEqI: "EqI", OpEqR: "EqR", OpNeI: "NeI",
	OpNeR: "NeR", OpNot: "Not",
	OpMath1: "Math1", OpMath2: "Math2",
	OpLength: "Length", OpLengthV: "LengthV", OpPart: "Part", OpPartV: "PartV",
	OpSetPart: "SetPart", OpNewTable: "NewTable", OpRuntime: "Runtime", OpCallInterp: "CallInterp",
	OpAbortCheck: "AbortCheck", OpCoerce: "Coerce", OpRet: "Ret",
}

// Instr is one bytecode instruction with up to two immediate operands.
type Instr struct {
	Op   Op
	A, B int32
}

func (in Instr) String() string {
	name := opNames[in.Op]
	switch in.Op {
	case OpNop, OpDup, OpPop, OpRet, OpAbortCheck, OpNot,
		OpAddI, OpAddR, OpSubI, OpSubR, OpMulI, OpMulR, OpDivR, OpModI,
		OpQuotI, OpNegI, OpNegR, OpPowI, OpPowR, OpToReal,
		OpBAnd, OpBOr, OpBXor, OpShl, OpShr,
		OpLtI, OpLtR, OpLeI, OpLeR, OpGtI, OpGtR, OpGeI, OpGeR,
		OpEqI, OpEqR, OpNeI, OpNeR, OpLength:
		return name
	case OpRuntime, OpSetPart, OpPartV:
		return fmt.Sprintf("%s %d %d", name, in.A, in.B)
	default:
		return fmt.Sprintf("%s %d", name, in.A)
	}
}

// Math function ids for OpMath1/OpMath2.
const (
	MfSin = iota
	MfCos
	MfTan
	MfExp
	MfLog
	MfSqrt
	MfAbs
	MfFloor
	MfCeiling
	MfRound
	MfArcTan
	MfArcSin
	MfArcCos
	MfSign
	// Binary
	MfArcTan2
	MfMin
	MfMax
	MfLog2 // Log[b, x]
	MfPow
)

var mathNames = []string{
	"Sin", "Cos", "Tan", "Exp", "Log", "Sqrt", "Abs", "Floor", "Ceiling",
	"Round", "ArcTan", "ArcSin", "ArcCos", "Sign", "ArcTan2", "Min", "Max",
	"Log2", "Pow",
}

// Runtime function ids for OpRuntime.
const (
	RtDot = iota
	RtTotal
	RtRandomReal // argc 0 or 2 (lo, hi)
	RtRandomInt  // argc 2 (lo, hi)
	RtTableReal  // argc 1: length n -> zero real tensor
	RtTableInt   // argc 1: length n -> zero int tensor
	RtTranspose  // argc 1
	RtReverse    // argc 1
	RtFlatten    // argc 1
	RtN          // argc 1: int->real identity on tensors/scalars
	RtTake       // argc 2: (tensor, n) -> first n elements
)

var runtimeNames = []string{
	"Dot", "Total", "RandomReal", "RandomInteger", "TableReal", "TableInt",
	"Transpose", "Reverse", "Flatten", "N", "Take",
}

// Disassemble renders the bytecode for inspection, in the spirit of the
// serialised CompiledFunction shown in paper §2.2.
func (cf *CompiledFunction) Disassemble() string {
	var b strings.Builder
	fmt.Fprintf(&b, "WVMFunction[%d args, %d slots, %d consts]\n",
		cf.NumArgs, len(cf.SlotKinds), len(cf.Consts))
	for i, s := range cf.SlotKinds {
		fmt.Fprintf(&b, "  slot %d: %v\n", i, s)
	}
	for pc, in := range cf.Code {
		fmt.Fprintf(&b, "%4d  %s\n", pc, in.String())
	}
	return b.String()
}
