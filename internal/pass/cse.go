package pass

import (
	"fmt"
	"slices"
	"strings"

	"llhd/internal/ir"
)

// CSE returns the common subexpression elimination pass (§4.1): pure
// instructions with identical opcode and operands are deduplicated when the
// existing definition dominates the duplicate.
func CSE() Pass {
	return &unitPass{name: "cse", run: cseUnit}
}

// cseKey builds a structural identity key for a pure instruction. Operand
// identity is pointer identity (SSA values), so the key embeds operand
// addresses.
func cseKey(in *ir.Inst) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d:%p:%d:%d:%d", in.Op, in.Ty, in.IVal, in.Imm0, in.Imm1)
	if in.Op == ir.OpConstTime {
		fmt.Fprintf(&b, ":%v", in.TVal)
	}
	if in.Op == ir.OpConstLogic {
		fmt.Fprintf(&b, ":%v", in.LVal)
	}
	args := in.Args
	// Canonicalize commutative operand order by address.
	if in.Op.IsCommutative() && len(args) == 2 {
		a0, a1 := fmt.Sprintf("%p", args[0]), fmt.Sprintf("%p", args[1])
		if a0 > a1 {
			fmt.Fprintf(&b, ":%s:%s", a1, a0)
			return b.String()
		}
	}
	for _, a := range args {
		fmt.Fprintf(&b, ":%p", a)
	}
	return b.String()
}

// cseUnit builds the dominator tree once, as CSE never changes the CFG.
// Each sweep replaces every duplicate its first occurrence dominates;
// sweeps repeat while one replaces something, since a replacement can
// equalize keys recorded apart. Each replacement deletes an instruction.
func cseUnit(u *ir.Unit) (bool, error) {
	dt := ir.NewDomTree(u)
	changed := false
	for {
		seen := map[string]*ir.Inst{}
		replaced := false
		for _, b := range u.Blocks {
			for _, in := range slices.Clone(b.Insts) {
				if !in.Op.IsPure() && !in.Op.IsConst() {
					continue
				}
				key := cseKey(in)
				prev, ok := seen[key]
				if !ok {
					seen[key] = in
					continue
				}
				if u.Kind == ir.UnitEntity || dt.Dominates(prev.Block(), b) {
					u.ReplaceAllUses(in, prev)
					b.Remove(in)
					replaced = true
				}
			}
		}
		if !replaced {
			return changed, nil
		}
		changed = true
	}
}
