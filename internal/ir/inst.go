package ir

import (
	"fmt"

	"llhd/internal/logic"
)

// Opcode identifies an LLHD instruction (§2.5 of the paper).
type Opcode uint8

// The LLHD instruction set. Constants are instructions, as in the assembly
// text ("%zero = const i32 0").
const (
	OpInvalid Opcode = iota

	// Constants and aggregates.
	OpConstInt   // const iN K / const nN K
	OpConstTime  // const time T
	OpConstLogic // const lN "01XZ": nine-valued logic literal
	OpArray      // [T v0, v1, ...]: array literal
	OpStruct     // {v0, v1, ...}: struct literal

	// Unary data flow.
	OpNot // bitwise complement
	OpNeg // two's-complement negation

	// Binary data flow.
	OpAnd
	OpOr
	OpXor
	OpAdd
	OpSub
	OpMul
	OpUdiv
	OpSdiv
	OpUmod
	OpSmod
	OpShl
	OpShr  // logical shift right
	OpAshr // arithmetic shift right

	// Comparisons (result i1).
	OpEq
	OpNeq
	OpUlt
	OpUgt
	OpUle
	OpUge
	OpSlt
	OpSgt
	OpSle
	OpSge

	// Selection.
	OpMux // mux T %array, %sel

	// Bit-precise insertion/extraction (§2.5.5). Imm0 is the field index
	// or slice offset; Imm1 is the slice length for the *s forms.
	OpInsF // insert field/element
	OpInsS // insert slice
	OpExtF // extract field/element (also on pointers and signals)
	OpExtS // extract slice (also on pointers and signals)

	// Signals (§2.5.2).
	OpSig // sig T %init: create signal (entity only)
	OpPrb // prb T$ %sig: probe current value
	OpDrv // drv T$ %sig, %value after %delay [if %cond]

	// Registers (§2.5.3, entity only).
	OpReg // reg T$ %sig, (%value mode %trigger [if %gate])... after %delay

	// Netlist connectivity (§2.2).
	OpCon // con T$ %a, %b: connect two signals
	OpDel // del T$ %out, %in, %delay: pure transport delay

	// Hierarchy (§2.5.1, entity only).
	OpInst // inst @unit (inputs...) -> (outputs...)

	// Memory (§2.5.8).
	OpVar   // var T %init: stack slot, yields T*
	OpLd    // ld T* %ptr
	OpSt    // st T* %ptr, %value
	OpAlloc // alloc T: heap slot, yields T*
	OpFree  // free T* %ptr

	// Control flow (§2.5.7).
	OpCall // call R @fn (args...)
	OpRet  // ret / ret T %value
	OpBr   // br %dest / br %cond, %ifFalse, %ifTrue
	OpPhi  // phi T [%v, %bb]...
	OpWait // wait %dest [for %time], %sig...
	OpHalt // halt
	OpUnreachable

	numOpcodes
)

var opNames = [...]string{
	OpInvalid:     "<invalid>",
	OpConstInt:    "const",
	OpConstTime:   "const",
	OpConstLogic:  "const",
	OpArray:       "array",
	OpStruct:      "struct",
	OpNot:         "not",
	OpNeg:         "neg",
	OpAnd:         "and",
	OpOr:          "or",
	OpXor:         "xor",
	OpAdd:         "add",
	OpSub:         "sub",
	OpMul:         "mul",
	OpUdiv:        "udiv",
	OpSdiv:        "sdiv",
	OpUmod:        "umod",
	OpSmod:        "smod",
	OpShl:         "shl",
	OpShr:         "shr",
	OpAshr:        "ashr",
	OpEq:          "eq",
	OpNeq:         "neq",
	OpUlt:         "ult",
	OpUgt:         "ugt",
	OpUle:         "ule",
	OpUge:         "uge",
	OpSlt:         "slt",
	OpSgt:         "sgt",
	OpSle:         "sle",
	OpSge:         "sge",
	OpMux:         "mux",
	OpInsF:        "insf",
	OpInsS:        "inss",
	OpExtF:        "extf",
	OpExtS:        "exts",
	OpSig:         "sig",
	OpPrb:         "prb",
	OpDrv:         "drv",
	OpReg:         "reg",
	OpCon:         "con",
	OpDel:         "del",
	OpInst:        "inst",
	OpVar:         "var",
	OpLd:          "ld",
	OpSt:          "st",
	OpAlloc:       "alloc",
	OpFree:        "free",
	OpCall:        "call",
	OpRet:         "ret",
	OpBr:          "br",
	OpPhi:         "phi",
	OpWait:        "wait",
	OpHalt:        "halt",
	OpUnreachable: "unreachable",
}

// String returns the assembly mnemonic of the opcode.
func (op Opcode) String() string {
	if int(op) < len(opNames) {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", int(op))
}

// IsTerminator reports whether op ends a basic block.
func (op Opcode) IsTerminator() bool {
	switch op {
	case OpBr, OpWait, OpHalt, OpRet, OpUnreachable:
		return true
	}
	return false
}

// IsConst reports whether op is a constant.
func (op Opcode) IsConst() bool {
	return op == OpConstInt || op == OpConstTime || op == OpConstLogic
}

// IsBinary reports whether op is a two-operand pure data-flow instruction.
func (op Opcode) IsBinary() bool { return op >= OpAnd && op <= OpAshr }

// IsCompare reports whether op is a comparison.
func (op Opcode) IsCompare() bool { return op >= OpEq && op <= OpSge }

// IsCommutative reports whether the operands of op may be swapped.
func (op Opcode) IsCommutative() bool {
	switch op {
	case OpAnd, OpOr, OpXor, OpAdd, OpMul, OpEq, OpNeq:
		return true
	}
	return false
}

// HasSideEffects reports whether the instruction does something beyond
// producing its result value, and therefore must not be removed by DCE
// even when unused.
func (op Opcode) HasSideEffects() bool {
	switch op {
	case OpDrv, OpReg, OpCon, OpDel, OpInst, OpSt, OpFree, OpCall,
		OpRet, OpBr, OpPhi, OpWait, OpHalt, OpUnreachable, OpSig, OpVar, OpAlloc:
		return true
	}
	return false
}

// IsPure reports whether op computes its result from operands alone: no
// side effects and no dependence on mutable state. Pure instructions are
// subject to CSE and hoisting.
func (op Opcode) IsPure() bool {
	switch op {
	case OpConstInt, OpConstTime, OpConstLogic, OpArray, OpStruct, OpNot,
		OpNeg, OpMux, OpInsF, OpInsS:
		return true
	}
	if op.IsBinary() || op.IsCompare() {
		return true
	}
	return false
}

// RegMode describes when a reg trigger stores its value (§2.5.3).
type RegMode uint8

// Trigger modes for reg.
const (
	RegLow  RegMode = iota // while trigger is low
	RegHigh                // while trigger is high
	RegRise                // on a rising edge
	RegFall                // on a falling edge
	RegBoth                // on either edge
)

var regModeNames = [...]string{"low", "high", "rise", "fall", "both"}

// String returns the assembly keyword for the mode.
func (m RegMode) String() string {
	if int(m) < len(regModeNames) {
		return regModeNames[m]
	}
	return fmt.Sprintf("mode(%d)", int(m))
}

// RegTrigger is one (value, trigger) clause of a reg instruction: store
// Value when Trigger fires under Mode, optionally gated by Gate ("if").
type RegTrigger struct {
	Mode    RegMode
	Value   Value // value to store
	Trigger Value // the observed i1
	Gate    Value // optional "if" condition, nil if absent
}

// Inst is a single LLHD instruction. The interpretation of Args, Dests and
// the immediate fields depends on Op; see the Opcode constants.
//
// Operand layout by opcode:
//
//	drv:   Args = [signal, value, delay] or [signal, value, delay, cond]
//	reg:   Args[0] = signal, Delay = after-delay; Triggers hold the clauses
//	mux:   Args = [array, selector]
//	insf:  Args = [target, value], Imm0 = index
//	inss:  Args = [target, value], Imm0 = offset, Imm1 = length
//	extf:  Args = [target], Imm0 = index
//	exts:  Args = [target], Imm0 = offset, Imm1 = length
//	call:  Callee = @name, Args = arguments
//	inst:  Callee = @name, Args = input signals then output signals,
//	       NumIns = number of inputs
//	br:    unconditional: Dests = [dest]
//	       conditional: Args = [cond], Dests = [ifFalse, ifTrue]
//	wait:  Dests = [resume], Args = observed signals, TimeArg = optional
//	phi:   Args = incoming values, Dests = incoming blocks
//	con:   Args = [a, b]
//	del:   Args = [out, in, delay]
type Inst struct {
	Op   Opcode
	Ty   *Type // result type (void for pure side effects)
	name string

	Args  []Value
	Dests []*Block

	// Immediates and op-specific payload.
	IVal     uint64       // const int value (masked to width)
	TVal     Time         // const time value
	LVal     logic.Vector // const logic value (length = type width)
	Imm0     int          // insf/extf index, inss/exts offset
	Imm1     int          // inss/exts length
	Callee   string       // call/inst target global name
	NumIns   int          // inst: number of input signals in Args
	TimeArg  Value        // wait: optional timeout
	Delay    Value        // reg: the "after" delay (may be nil)
	Triggers []RegTrigger // reg clauses

	block *Block
	vid   int32 // dense value ID + 1 under the unit's Numbering; 0 = unnumbered
}

// Type returns the result type of the instruction.
func (in *Inst) Type() *Type { return in.Ty }

// ValueName returns the instruction's result name hint.
func (in *Inst) ValueName() string { return in.name }

// SetName sets the result name hint.
func (in *Inst) SetName(name string) { in.name = name }

// Block returns the block containing the instruction, or nil if detached.
func (in *Inst) Block() *Block { return in.block }

func (in *Inst) String() string {
	if in.name != "" {
		return "%" + in.name
	}
	return fmt.Sprintf("%%<%s>", in.Op)
}

// Operands calls fn for every value operand of the instruction, including
// those tucked into op-specific fields (wait timeout, reg triggers).
func (in *Inst) Operands(fn func(Value)) {
	for _, a := range in.Args {
		fn(a)
	}
	if in.TimeArg != nil {
		fn(in.TimeArg)
	}
	if in.Delay != nil {
		fn(in.Delay)
	}
	for _, t := range in.Triggers {
		fn(t.Value)
		fn(t.Trigger)
		if t.Gate != nil {
			fn(t.Gate)
		}
	}
}

// ReplaceOperands rewrites every operand of in that has an entry in repl
// to the end of its replacement chain (Resolve), and returns the number of
// operands rewritten.
func (in *Inst) ReplaceOperands(repl map[Value]Value) int {
	n := 0
	replace := func(v *Value) {
		if *v == nil {
			return
		}
		if _, ok := repl[*v]; ok {
			*v = Resolve(repl, *v)
			n++
		}
	}
	for i := range in.Args {
		replace(&in.Args[i])
	}
	replace(&in.TimeArg)
	replace(&in.Delay)
	for i := range in.Triggers {
		t := &in.Triggers[i]
		replace(&t.Value)
		replace(&t.Trigger)
		replace(&t.Gate)
	}
	return n
}

// ReplaceDest substitutes every destination block equal to old with new.
func (in *Inst) ReplaceDest(old, new *Block) int {
	n := 0
	for i, b := range in.Dests {
		if b == old {
			in.Dests[i] = new
			n++
		}
	}
	return n
}

// Clone returns a shallow copy of the instruction with copied operand
// slices. The clone is detached from any block.
func (in *Inst) Clone() *Inst {
	cp := *in
	cp.block = nil
	cp.Args = append([]Value(nil), in.Args...)
	cp.Dests = append([]*Block(nil), in.Dests...)
	cp.Triggers = append([]RegTrigger(nil), in.Triggers...)
	cp.LVal = in.LVal.Clone()
	return &cp
}

// IsConstInt reports whether the instruction is an integer constant.
func (in *Inst) IsConstInt() bool { return in.Op == OpConstInt }

// ConstIntValue returns the constant value of an OpConstInt, panicking on
// other opcodes.
func (in *Inst) ConstIntValue() uint64 {
	if in.Op != OpConstInt {
		panic("ir: ConstIntValue on non-constant " + in.Op.String())
	}
	return in.IVal
}

// MaskWidth truncates v to the lowest w bits (w in 1..64).
func MaskWidth(v uint64, w int) uint64 {
	if w >= 64 {
		return v
	}
	return v & (1<<uint(w) - 1)
}

// SignExtend interprets the w-bit value v as signed and returns it as an
// int64.
func SignExtend(v uint64, w int) int64 {
	if w >= 64 {
		return int64(v)
	}
	if v&(1<<uint(w-1)) != 0 {
		return int64(v | ^uint64(0)<<uint(w))
	}
	return int64(v)
}
