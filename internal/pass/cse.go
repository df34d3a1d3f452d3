package pass

import "llhd/internal/ir"

// CSE returns the common subexpression elimination pass (§4.1): pure
// instructions with identical opcode and operands are deduplicated when the
// existing definition dominates the duplicate.
func CSE() Pass {
	return &unitPass{name: "cse", run: cseUnit}
}

// cseKey is the structural identity of a pure instruction. Operand
// identity is pointer identity (SSA values): the first two operands are
// held directly, and any further ones (array and struct literals) as the
// ID cseTails gives the rest of the sequence. The time and logic literals
// count only for their constant opcodes.
type cseKey struct {
	op         ir.Opcode
	ty         *ir.Type
	ival       uint64
	imm0, imm1 int
	tval       ir.Time
	lval       string
	a0, a1     ir.Value
	tail       int
}

// cseTails interns operand sequences: ID 0 is the empty sequence, and the
// sequence (prev..., v) has the ID recorded under {ID of prev..., v}.
type cseTails map[cseTail]int

type cseTail struct {
	prev int
	v    ir.Value
}

func (tails cseTails) key(in *ir.Inst) cseKey {
	key := cseKey{op: in.Op, ty: in.Ty, ival: in.IVal, imm0: in.Imm0, imm1: in.Imm1}
	switch in.Op {
	case ir.OpConstTime:
		key.tval = in.TVal
	case ir.OpConstLogic:
		key.lval = in.LVal.String()
	}
	args := in.Args
	if len(args) > 0 {
		key.a0 = args[0]
	}
	if len(args) > 1 {
		key.a1 = args[1]
	}
	for _, a := range args[min(len(args), 2):] {
		t := cseTail{key.tail, a}
		id, ok := tails[t]
		if !ok {
			id = len(tails) + 1
			tails[t] = id
		}
		key.tail = id
	}
	return key
}

// cseUnit builds a control-flow unit's dominator tree once, as CSE never
// changes the CFG. Each sweep replaces every duplicate its first
// occurrence dominates. The sweep records replacements and resolves each
// instruction's operands through them before keying it, so every key sees
// the operands an immediate rewrite would have left, and rewrites the rest
// of the unit in one walk at the end. Sweeps repeat while one replaces
// something, since a replacement can equalize keys recorded apart. Each
// replacement deletes an instruction.
func cseUnit(u *ir.Unit) (bool, error) {
	var dt *ir.DomTree // entities are data flow: every definition is visible
	if u.Kind != ir.UnitEntity {
		dt = ir.NewDomTree(u)
	}
	tails := cseTails{}
	seen := map[cseKey]*ir.Inst{}
	repl := map[ir.Value]ir.Value{}
	changed := false
	for {
		clear(seen)
		clear(repl)
		for _, b := range u.Blocks {
			b.RemoveIf(func(in *ir.Inst) bool {
				if !in.Op.IsPure() && !in.Op.IsConst() {
					return false
				}
				in.ReplaceOperands(repl)
				key := tails.key(in)
				prev, ok := seen[key]
				if !ok && in.Op.IsCommutative() && len(in.Args) == 2 {
					// Match the pair in either order.
					key.a0, key.a1 = key.a1, key.a0
					prev, ok = seen[key]
					key.a0, key.a1 = key.a1, key.a0
				}
				if !ok {
					seen[key] = in
					return false
				}
				if dt == nil || dt.Dominates(prev.Block(), b) {
					repl[in] = prev
					return true
				}
				return false
			})
		}
		if len(repl) == 0 {
			return changed, nil
		}
		u.ReplaceUses(repl)
		changed = true
	}
}
