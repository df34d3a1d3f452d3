package pass

import (
	"fmt"
	"strings"

	"llhd/internal/ir"
)

// Inline returns the function-call inlining pass. §4.1: "To facilitate
// later transformations, all function calls are inlined at this point."
// Intrinsics (llhd.*) are kept. Recursive calls are left in place (the
// lowering rejects the process later if they prevent structural form).
type inlinePass struct{}

// Inline returns the inlining pass.
func Inline() Pass { return &inlinePass{} }

func (*inlinePass) Name() string { return "inline" }

func (*inlinePass) Run(m *ir.Module) (bool, error) {
	changed := false
	for _, u := range m.Units {
		if u.Kind == ir.UnitEntity {
			continue
		}
		// Recursive calls are never inlined, so the loop ends.
		for call := findInlinableCall(m, u); call != nil; call = findInlinableCall(m, u) {
			if err := inlineCall(m, u, call); err != nil {
				return changed, fmt.Errorf("inline: @%s: %w", u.Name, err)
			}
			changed = true
		}
	}
	return changed, nil
}

func findInlinableCall(m *ir.Module, u *ir.Unit) *ir.Inst {
	var found *ir.Inst
	u.ForEachInst(func(_ *ir.Block, in *ir.Inst) {
		if found != nil || in.Op != ir.OpCall {
			return
		}
		if strings.HasPrefix(in.Callee, "llhd.") {
			return
		}
		callee := m.Unit(in.Callee)
		if callee == nil || callee.Kind != ir.UnitFunc {
			return
		}
		if callee == u || callsItself(m, callee, map[*ir.Unit]bool{}) {
			return // direct or transitive recursion
		}
		found = in
	})
	return found
}

func callsItself(m *ir.Module, u *ir.Unit, seen map[*ir.Unit]bool) bool {
	if seen[u] {
		return true
	}
	seen[u] = true
	recursive := false
	u.ForEachInst(func(_ *ir.Block, in *ir.Inst) {
		if in.Op != ir.OpCall || strings.HasPrefix(in.Callee, "llhd.") {
			return
		}
		callee := m.Unit(in.Callee)
		if callee != nil && callsItself(m, callee, seen) {
			recursive = true
		}
	})
	delete(seen, u)
	return recursive
}

// inlineCall splices the callee's blocks into the caller at the call site.
func inlineCall(m *ir.Module, u *ir.Unit, call *ir.Inst) error {
	callee := m.Unit(call.Callee)
	site := call.Block()
	siteIdx := site.Index(call)

	// Split the call block: everything after the call moves to a new
	// continuation block.
	cont := u.InsertBlockAfter(site.ValueName()+".cont", site)
	cont.Insts = append(cont.Insts, site.Insts[siteIdx+1:]...)
	for _, in := range cont.Insts {
		cont.Adopt(in)
	}
	site.Insts = site.Insts[:siteIdx]
	// Successor phis must now name the continuation block as predecessor.
	for _, succ := range cont.Succs() {
		for _, in := range succ.Insts {
			if in.Op == ir.OpPhi {
				in.ReplaceDest(site, cont)
			}
		}
	}

	// Clone the callee body.
	valueMap := map[ir.Value]ir.Value{}
	blockMap := map[*ir.Block]*ir.Block{}
	for i, a := range callee.Inputs {
		valueMap[a] = call.Args[i]
	}
	prev := site
	for _, b := range callee.Blocks {
		nb := u.InsertBlockAfter(callee.Name+"."+b.ValueName(), prev)
		prev = nb
		blockMap[b] = nb
	}
	// Collect return sites to wire the continuation.
	type retSite struct {
		block *ir.Block
		value ir.Value
	}
	var rets []retSite
	for _, b := range callee.Blocks {
		nb := blockMap[b]
		for _, in := range b.Insts {
			if in.Op == ir.OpRet {
				var rv ir.Value
				if len(in.Args) == 1 {
					rv = in.Args[0]
				}
				rets = append(rets, retSite{nb, rv})
				// Replace ret with a branch to the continuation.
				br := &ir.Inst{Op: ir.OpBr, Ty: ir.VoidType(), Dests: []*ir.Block{cont}}
				nb.Append(br)
				continue
			}
			cp := in.Clone()
			valueMap[in] = cp
			nb.Append(cp)
		}
	}
	// Rewrite cloned operands and destinations.
	for _, b := range callee.Blocks {
		nb := blockMap[b]
		for _, in := range nb.Insts {
			remapInst(in, valueMap, blockMap)
		}
	}
	// Remap ret values after cloning (they may reference cloned insts).
	for i := range rets {
		if rets[i].value != nil {
			if nv, ok := valueMap[rets[i].value]; ok {
				rets[i].value = nv
			}
		}
	}

	// Branch from the call site into the inlined entry.
	entry := blockMap[callee.Entry()]
	site.Append(&ir.Inst{Op: ir.OpBr, Ty: ir.VoidType(), Dests: []*ir.Block{entry}})

	// Replace the call's value with the return value (phi when multiple
	// return sites exist).
	if !call.Ty.IsVoid() {
		var replacement ir.Value
		switch len(rets) {
		case 0:
			return fmt.Errorf("@%s has no return", callee.Name)
		case 1:
			replacement = rets[0].value
		default:
			phi := &ir.Inst{Op: ir.OpPhi, Ty: call.Ty}
			for _, r := range rets {
				phi.Args = append(phi.Args, r.value)
				phi.Dests = append(phi.Dests, r.block)
			}
			cont.InsertBefore(phi, firstNonPhi(cont))
			replacement = phi
		}
		u.ReplaceAllUses(call, replacement)
	}
	return nil
}

func firstNonPhi(b *ir.Block) *ir.Inst {
	for _, in := range b.Insts {
		if in.Op != ir.OpPhi {
			return in
		}
	}
	return nil
}

func remapInst(in *ir.Inst, vm map[ir.Value]ir.Value, bm map[*ir.Block]*ir.Block) {
	for i, a := range in.Args {
		if nv, ok := vm[a]; ok {
			in.Args[i] = nv
		}
	}
	if in.TimeArg != nil {
		if nv, ok := vm[in.TimeArg]; ok {
			in.TimeArg = nv
		}
	}
	if in.Delay != nil {
		if nv, ok := vm[in.Delay]; ok {
			in.Delay = nv
		}
	}
	for i := range in.Triggers {
		if nv, ok := vm[in.Triggers[i].Value]; ok {
			in.Triggers[i].Value = nv
		}
		if nv, ok := vm[in.Triggers[i].Trigger]; ok {
			in.Triggers[i].Trigger = nv
		}
		if in.Triggers[i].Gate != nil {
			if nv, ok := vm[in.Triggers[i].Gate]; ok {
				in.Triggers[i].Gate = nv
			}
		}
	}
	for i, d := range in.Dests {
		if nd, ok := bm[d]; ok {
			in.Dests[i] = nd
		}
	}
}
