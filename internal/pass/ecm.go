package pass

import (
	"slices"

	"llhd/internal/ir"
)

// ECM returns the Early Code Motion pass (§4.2): pure instructions are
// eagerly hoisted into predecessor blocks — as far up the dominator tree
// as their operands allow — to facilitate later control flow elimination.
// It subsumes loop-invariant code motion. prb instructions are special:
// they must not move across wait (that would change which point in time is
// sampled), so they hoist at most to the entry block of their temporal
// region.
func ECM() Pass {
	return &unitPass{
		name:  "ecm",
		kinds: []ir.UnitKind{ir.UnitProc, ir.UnitFunc},
		run:   ecmUnit,
	}
}

// ecmUnit builds the dominator tree, depths and temporal regions once, as
// hoisting never changes the CFG. Each sweep hoists every candidate;
// sweeps repeat while one moves something, since a hoist can free its
// users. Each hoist strictly raises an instruction in the dominator tree.
func ecmUnit(u *ir.Unit) (bool, error) {
	dt := ir.NewDomTree(u)
	depth := domDepths(u, dt)
	trs := TemporalRegions(u)
	changed := false
	for {
		moved := false
		for _, b := range u.Blocks {
			for _, in := range slices.Clone(b.Insts) {
				if !hoistable(in) {
					continue
				}
				target := hoistTarget(u, dt, depth, in, b)
				if in.Op == ir.OpPrb {
					// Walk back down the dom chain until the TR matches.
					for target != nil && !trs.SameTR(target, b) {
						target = domChild(dt, target, b)
					}
				}
				if target == nil || target == b {
					continue
				}
				b.Remove(in)
				insertAfterOperands(target, in)
				moved = true
			}
		}
		if !moved {
			return changed, nil
		}
		changed = true
	}
}

func hoistable(in *ir.Inst) bool {
	if in.Op == ir.OpPrb {
		return true
	}
	return in.Op.IsPure() || in.Op.IsConst()
}

// hoistTarget finds the highest block that all operand definitions
// dominate: the deepest definition block on the dominator chain.
func hoistTarget(u *ir.Unit, dt *ir.DomTree, depth map[*ir.Block]int, in *ir.Inst, b *ir.Block) *ir.Block {
	if !dt.Reachable(b) {
		return nil
	}
	target := u.Entry()
	ok := true
	in.Operands(func(v ir.Value) {
		def, isInst := v.(*ir.Inst)
		if !isInst {
			return // args and globals are defined at entry
		}
		db := def.Block()
		if db == nil || !dt.Reachable(db) {
			ok = false
			return
		}
		if !dt.Dominates(db, b) {
			ok = false // malformed or cross-path use; leave alone
			return
		}
		if depth[db] > depth[target] {
			target = db
		}
	})
	if !ok {
		return nil
	}
	return target
}

// insertAfterOperands places in into target after the last of its operands
// defined in target — and always after the block's phi prefix, which the
// engines resolve as one contiguous leading run — and in any case before
// the terminator, preserving def-before-use order.
func insertAfterOperands(target *ir.Block, in *ir.Inst) {
	pos := -1
	for i, x := range target.Insts {
		if x.Op != ir.OpPhi {
			break
		}
		pos = i
	}
	in.Operands(func(v ir.Value) {
		if def, ok := v.(*ir.Inst); ok && def.Block() == target {
			if i := target.Index(def); i > pos {
				pos = i
			}
		}
	})
	term := target.Terminator()
	if pos == -1 {
		if term != nil {
			target.InsertBefore(in, term)
		} else {
			target.Append(in)
		}
		return
	}
	if pos+1 < len(target.Insts) {
		target.InsertBefore(in, target.Insts[pos+1])
	} else {
		target.Append(in)
	}
}

// domDepths computes the depth of each block in the dominator tree.
func domDepths(u *ir.Unit, dt *ir.DomTree) map[*ir.Block]int {
	depth := map[*ir.Block]int{}
	var depthOf func(b *ir.Block) int
	depthOf = func(b *ir.Block) int {
		if d, ok := depth[b]; ok {
			return d
		}
		id := dt.IDom(b)
		if id == nil || id == b {
			depth[b] = 0
			return 0
		}
		d := depthOf(id) + 1
		depth[b] = d
		return d
	}
	for _, b := range u.Blocks {
		if dt.Reachable(b) {
			depthOf(b)
		}
	}
	return depth
}

// domChild returns the block one step below anc on the dominator chain
// toward desc, or nil when desc == anc.
func domChild(dt *ir.DomTree, anc, desc *ir.Block) *ir.Block {
	if anc == desc {
		return nil
	}
	cur := desc
	for {
		id := dt.IDom(cur)
		if id == nil || id == cur {
			return nil
		}
		if id == anc {
			return cur
		}
		cur = id
	}
}
