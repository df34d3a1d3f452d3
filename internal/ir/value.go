package ir

import "fmt"

// Value is an SSA value: something an instruction can use as an operand.
// Values are instruction results (*Inst), unit arguments (*Arg), or global
// unit references (*Unit, used as call / inst targets).
type Value interface {
	// Type returns the type of the value.
	Type() *Type
	// ValueName returns the name hint of the value, without sigil. It may
	// be empty, in which case printers assign an anonymous number.
	ValueName() string
}

// Arg is a formal argument of a unit. For processes and entities the
// arguments are the input and output signals; for functions they are the
// (by-value) parameters.
type Arg struct {
	name   string
	ty     *Type
	Index  int  // position within inputs or outputs
	Output bool // true if this is an output of a process/entity
	unit   *Unit
	vid    int32 // dense value ID + 1 under the unit's Numbering; 0 = unnumbered
}

// Type returns the argument's type.
func (a *Arg) Type() *Type { return a.ty }

// ValueName returns the argument's name hint.
func (a *Arg) ValueName() string { return a.name }

// SetName sets the argument's name hint.
func (a *Arg) SetName(name string) { a.name = name }

// Unit returns the unit this argument belongs to.
func (a *Arg) Unit() *Unit { return a.unit }

func (a *Arg) String() string {
	if a.name != "" {
		return "%" + a.name
	}
	return fmt.Sprintf("%%arg%d", a.Index)
}

// Block is a basic block in a control-flow unit, or the single implicit
// instruction container of an entity. The last instruction of a block in a
// control-flow unit must be a terminator.
type Block struct {
	name  string
	Insts []*Inst
	unit  *Unit
}

// ValueName returns the block's label name hint.
func (b *Block) ValueName() string { return b.name }

// SetName sets the block's label name hint.
func (b *Block) SetName(name string) { b.name = name }

// Unit returns the unit that contains the block.
func (b *Block) Unit() *Unit { return b.unit }

func (b *Block) String() string {
	if b.name != "" {
		return "%" + b.name
	}
	return "%<block>"
}

// Terminator returns the block's terminating instruction, or nil if the
// block is empty or ends in a non-terminator.
func (b *Block) Terminator() *Inst {
	if len(b.Insts) == 0 {
		return nil
	}
	last := b.Insts[len(b.Insts)-1]
	if last.Op.IsTerminator() {
		return last
	}
	return nil
}

// Succs returns the successor blocks of b, derived from its terminator.
func (b *Block) Succs() []*Block {
	t := b.Terminator()
	if t == nil {
		return nil
	}
	return t.Dests
}

// Append adds inst at the end of the block and claims ownership.
func (b *Block) Append(inst *Inst) {
	inst.block = b
	b.Insts = append(b.Insts, inst)
	b.invalidateNumbering()
}

// Adopt claims ownership of an instruction that was moved into the block
// by direct slice manipulation (pass splicing). It only updates the parent
// pointer; the caller is responsible for list membership.
func (b *Block) Adopt(inst *Inst) {
	inst.block = b
	b.invalidateNumbering()
}

// invalidateNumbering drops the owning unit's cached value numbering after
// an instruction-list mutation.
func (b *Block) invalidateNumbering() {
	if b.unit != nil {
		b.unit.invalidateNumbering()
	}
}

// InsertBefore inserts inst immediately before pos. If pos is not found the
// instruction is appended.
func (b *Block) InsertBefore(inst *Inst, pos *Inst) {
	inst.block = b
	b.invalidateNumbering()
	for i, in := range b.Insts {
		if in == pos {
			b.Insts = append(b.Insts, nil)
			copy(b.Insts[i+1:], b.Insts[i:])
			b.Insts[i] = inst
			return
		}
	}
	b.Insts = append(b.Insts, inst)
}

// Remove removes inst from the block. It does not touch uses; callers must
// have replaced them already.
func (b *Block) Remove(inst *Inst) {
	for i, in := range b.Insts {
		if in == inst {
			b.Insts = append(b.Insts[:i], b.Insts[i+1:]...)
			inst.block = nil
			b.invalidateNumbering()
			return
		}
	}
}

// RemoveIf removes every instruction for which drop returns true, in one
// pass over the block. drop sees the instructions in order and must not
// modify the block. Like Remove it does not touch uses. It returns the
// number of instructions removed.
func (b *Block) RemoveIf(drop func(*Inst) bool) int {
	kept := b.Insts[:0]
	for _, in := range b.Insts {
		if drop(in) {
			in.block = nil
		} else {
			kept = append(kept, in)
		}
	}
	n := len(b.Insts) - len(kept)
	if n > 0 {
		clear(b.Insts[len(kept):])
		b.Insts = kept
		b.invalidateNumbering()
	}
	return n
}

// Index returns the position of inst within the block, or -1.
func (b *Block) Index(inst *Inst) int {
	for i, in := range b.Insts {
		if in == inst {
			return i
		}
	}
	return -1
}
