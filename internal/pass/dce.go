package pass

import "llhd/internal/ir"

// DCE returns the dead code elimination pass (§4.1): unused pure
// instructions, single-entry phis, and unreachable blocks are removed.
func DCE() Pass {
	return &unitPass{name: "dce", run: dceUnit}
}

// dceUnit counts the uses of every value once, indexed by the unit's
// numbering, and then removes dead instructions from a worklist: removing
// one releases its operands, which may leave them dead in turn. The
// removed set is the one repeated sweeps would reach. Instructions with
// side effects stay, except unused phis.
func dceUnit(u *ir.Unit) (bool, error) {
	pruneDeadPhiEdges(u)
	nb := u.Numbering()
	uses := make([]int32, nb.Len())
	forEachOperandID := func(in *ir.Inst, fn func(id int, v ir.Value)) {
		in.Operands(func(v ir.Value) {
			if id := nb.ID(v); id >= 0 {
				fn(id, v)
			}
		})
	}
	removable := func(in *ir.Inst) bool {
		return !in.Op.HasSideEffects() || in.Op == ir.OpPhi
	}
	var work []*ir.Inst
	u.ForEachInst(func(_ *ir.Block, in *ir.Inst) {
		forEachOperandID(in, func(id int, _ ir.Value) { uses[id]++ })
	})
	u.ForEachInst(func(_ *ir.Block, in *ir.Inst) {
		if uses[nb.ID(in)] == 0 && removable(in) {
			work = append(work, in)
		}
	})
	if len(work) == 0 {
		return false, nil
	}
	dead := make([]bool, nb.Len())
	for len(work) > 0 {
		in := work[len(work)-1]
		work = work[:len(work)-1]
		dead[nb.ID(in)] = true
		forEachOperandID(in, func(id int, v ir.Value) {
			if uses[id]--; uses[id] == 0 {
				if d, ok := v.(*ir.Inst); ok && removable(d) {
					work = append(work, d)
				}
			}
		})
	}
	for _, b := range u.Blocks {
		b.RemoveIf(func(in *ir.Inst) bool { return dead[nb.ID(in)] })
	}
	return true, nil
}
