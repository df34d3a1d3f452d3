package pass

import "llhd/internal/ir"

// InstSimplify returns the IS peephole pass (§4.1), the analog of LLVM's
// instruction combining: short instruction sequences are reduced to
// simpler forms.
func InstSimplify() Pass {
	return &unitPass{name: "inst-simplify", run: simplifyUnit}
}

func constOf(v ir.Value) (*ir.Inst, bool) {
	in, ok := v.(*ir.Inst)
	if !ok || in.Op != ir.OpConstInt {
		return nil, false
	}
	return in, true
}

func isAllOnes(in *ir.Inst) bool {
	return in.IVal == ir.MaskWidth(^uint64(0), in.Ty.Width)
}

// simplifyInst returns a replacement value for in (or nil), and reports
// whether it rewrote the instruction in place. repl holds the sweep's
// pending replacements: in's own operands are already resolved through it,
// and the returned value is resolved by the caller.
func simplifyInst(in *ir.Inst, repl map[ir.Value]ir.Value) (ir.Value, bool) {
	// Normalize: put a constant operand second for commutative ops.
	if in.Op.IsCommutative() && len(in.Args) == 2 {
		if _, ok := constOf(in.Args[0]); ok {
			if _, ok := constOf(in.Args[1]); !ok {
				in.Args[0], in.Args[1] = in.Args[1], in.Args[0]
			}
		}
	}
	x := func(i int) ir.Value { return in.Args[i] }
	// Two-valued identities (x&x=x, not(not x)=x, ...) do not hold in the
	// nine-valued logic domain: And(W,W)=X and Not(Not(H))=1, so identity
	// rewrites are restricted to integer/enum types (miscompile found by
	// the differential fuzzer, seed 16).
	intTy := in.Ty.IsInt() || in.Ty.IsEnum()

	switch in.Op {
	case ir.OpAnd:
		if k, ok := constOf(x(1)); ok {
			if k.IVal == 0 {
				return k, false // x & 0 = 0
			}
			if isAllOnes(k) {
				return x(0), false // x & ~0 = x
			}
		}
		if x(0) == x(1) && intTy {
			return x(0), false // x & x = x
		}
	case ir.OpOr:
		if k, ok := constOf(x(1)); ok {
			if k.IVal == 0 {
				return x(0), false // x | 0 = x
			}
			if isAllOnes(k) {
				return k, false // x | ~0 = ~0
			}
		}
		if x(0) == x(1) && intTy {
			return x(0), false
		}
	case ir.OpXor:
		if k, ok := constOf(x(1)); ok && k.IVal == 0 {
			return x(0), false // x ^ 0 = x
		}
	case ir.OpAdd, ir.OpSub, ir.OpShl, ir.OpShr, ir.OpAshr:
		if k, ok := constOf(x(1)); ok && k.IVal == 0 {
			return x(0), false
		}
	case ir.OpMul:
		if k, ok := constOf(x(1)); ok {
			if k.IVal == 1 {
				return x(0), false
			}
			if k.IVal == 0 {
				return k, false
			}
		}
	case ir.OpUdiv, ir.OpSdiv:
		if k, ok := constOf(x(1)); ok && k.IVal == 1 {
			return x(0), false
		}
	case ir.OpNot:
		// not(not x) = x — integers only; nine-valued Not collapses weak
		// and undefined states, so the round trip is lossy on logic.
		if inner, ok := x(0).(*ir.Inst); ok && inner.Op == ir.OpNot && intTy {
			return inner.Args[0], false
		}
	case ir.OpEq:
		if x(0) == x(1) {
			return nil, false // handled by fold when const; leave
		}
		// eq(x, 1) = x and eq(x, 0) = not x for i1.
		if in.Args[0].Type().IsBool() {
			if k, ok := constOf(x(1)); ok {
				if k.IVal == 1 {
					return x(0), false
				}
				in.Op = ir.OpNot
				in.Args = []ir.Value{x(0)}
				return nil, true
			}
		}
	case ir.OpNeq:
		if in.Args[0].Type().IsBool() {
			if k, ok := constOf(x(1)); ok {
				if k.IVal == 0 {
					return x(0), false // neq(x, 0) = x
				}
				in.Op = ir.OpNot
				in.Args = []ir.Value{x(0)}
				return nil, true
			}
			// i1 neq is xor.
			in.Op = ir.OpXor
			in.Ty = ir.IntType(1)
			return nil, true
		}
	case ir.OpMux:
		// mux over identical choices collapses.
		if arr, ok := x(0).(*ir.Inst); ok && arr.Op == ir.OpArray && len(arr.Args) > 0 {
			arr.ReplaceOperands(repl)
			same := true
			for _, a := range arr.Args[1:] {
				if a != arr.Args[0] {
					same = false
					break
				}
			}
			if same {
				return arr.Args[0], false
			}
		}
	case ir.OpPhi:
		// A phi whose incoming values are all the same value v — or v plus
		// references to the phi itself (loop-carried identity) — is v.
		var only ir.Value
		trivial := true
		for _, a := range in.Args {
			if a == in {
				continue
			}
			if only == nil {
				only = a
			} else if a != only {
				trivial = false
				break
			}
		}
		if trivial && only != nil {
			return only, false
		}
	case ir.OpExtF:
		// extf of a literal aggregate — static index form only (the
		// dynamic form carries its index as a second operand and Imm0 is
		// meaningless there).
		if agg, ok := x(0).(*ir.Inst); ok && len(in.Args) == 1 &&
			(agg.Op == ir.OpArray || agg.Op == ir.OpStruct) {
			if in.Imm0 < len(agg.Args) {
				return agg.Args[in.Imm0], false
			}
		}
	}
	return nil, false
}

// simplifyUnit applies every replacement and in-place rewrite in one
// sweep, and sweeps again while one changes something: a replacement can
// simplify an instruction already passed (a loop phi fed by a later
// value). The sweep records replacements and resolves each instruction's
// operands through them before simplifying it, then rewrites the rest of
// the unit in one walk. Replacements delete instructions and in-place
// rewrites only turn eq/neq into not/xor, so the loop ends.
func simplifyUnit(u *ir.Unit) (bool, error) {
	changed := false
	for {
		rewrote := false
		repl := map[ir.Value]ir.Value{}
		for _, b := range u.Blocks {
			b.RemoveIf(func(in *ir.Inst) bool {
				in.ReplaceOperands(repl)
				r, mutated := simplifyInst(in, repl)
				rewrote = rewrote || mutated
				if r == nil {
					return false
				}
				if r = ir.Resolve(repl, r); r == in {
					return false
				}
				repl[in] = r
				rewrote = true
				return true
			})
		}
		u.ReplaceUses(repl)
		if !rewrote {
			break
		}
		changed = true
	}

	// Fold "br cond, same, same" into an unconditional branch.
	for _, b := range u.Blocks {
		t := b.Terminator()
		if t != nil && t.Op == ir.OpBr && len(t.Dests) == 2 && t.Dests[0] == t.Dests[1] {
			t.Args = nil
			t.Dests = t.Dests[:1]
			changed = true
		}
	}
	return changed, nil
}
