package bytecode

import (
	"errors"
	"fmt"
	"strings"

	"llhd/internal/engine"
	"llhd/internal/ir"
	"llhd/internal/val"
)

// Status is the outcome of one activation.
type Status int

const (
	// StatusSuspend: the unit armed its wake-up and yielded; Frame.PC
	// holds the resume point.
	StatusSuspend Status = iota
	// StatusHalt: the unit halted (or a function returned).
	StatusHalt
)

// errStepBudget is the internal runaway-loop sentinel; the entry points
// (Exec, invoke) turn it into their step-budget diagnostics.
var errStepBudget = errors.New("bytecode: step budget exhausted")

// maxJumps bounds control-flow transfers per activation: straight-line
// code stays check-free and only jumps, branches and calls pay the
// counter.
const maxJumps = 100_000_000

// Runtime is the per-session execution state over one shared Program:
// the pooled function call frames. Sharing a Runtime across concurrently
// running sessions would race on the wake path; sharing the Program is
// the point.
type Runtime struct {
	prog  *Program
	pools [][]*Frame // by Unit.FuncIdx
	depth int        // live function frames, bounded by engine.MaxCallDepth
}

// NewRuntime builds a session-private runtime over a shared program.
func NewRuntime(p *Program) *Runtime { return &Runtime{prog: p} }

// Exec runs one activation of a process or entity frame: from Frame.PC
// to the next suspension point or halt. Errors are returned unwrapped;
// the caller attaches the instance name.
func (rt *Runtime) Exec(e *engine.Engine, u *Unit, fr *Frame, self engine.ProcID) (Status, error) {
	st, err := rt.run(e, u, fr, self)
	if err == errStepBudget {
		err = fmt.Errorf("step budget exhausted: %w", engine.ErrStepLimit)
	}
	return st, err
}

// invoke runs a compiled function on a pooled call frame, seeding its
// arguments from the caller's registers. A call nested deeper than
// engine.MaxCallDepth fails as a step-limit error instead of recursing
// until the Go stack overflows.
func (rt *Runtime) invoke(e *engine.Engine, fu *Unit, caller []val.Value, argRegs []int32) (val.Value, error) {
	if rt.depth >= engine.MaxCallDepth {
		return val.Value{}, fmt.Errorf("call depth exceeded in @%s: %w", fu.Name, engine.ErrStepLimit)
	}
	fr := rt.acquire(fu)
	defer rt.release(fu, fr)
	for i, as := range fu.Args {
		fr.Regs[as] = caller[argRegs[i]]
	}
	st, err := rt.run(e, fu, fr, 0)
	switch {
	case err == errStepBudget:
		return val.Value{}, fmt.Errorf("@%s: step budget exhausted: %w", fu.Name, engine.ErrStepLimit)
	case err != nil:
		return val.Value{}, err
	case st == StatusSuspend:
		return val.Value{}, fmt.Errorf("@%s: function suspended", fu.Name)
	}
	return fr.Ret, nil
}

// acquire returns a pooled call frame with its register file reset from
// the constant template (non-constant slots read as zero values, exactly
// like a freshly allocated file), and counts it against the call depth.
func (rt *Runtime) acquire(fu *Unit) *Frame {
	rt.depth++
	for len(rt.pools) <= fu.FuncIdx {
		rt.pools = append(rt.pools, nil)
	}
	if pool := rt.pools[fu.FuncIdx]; len(pool) > 0 {
		fr := pool[len(pool)-1]
		rt.pools[fu.FuncIdx] = pool[:len(pool)-1]
		copy(fr.Regs, fu.ConstRegs)
		fr.PC = 0
		fr.Ret = val.Value{}
		return fr
	}
	return fu.newFuncFrame()
}

// release returns a call frame to its pool and the call depth; recursion
// pops deeper frames, so release order is naturally LIFO.
func (rt *Runtime) release(fu *Unit, fr *Frame) {
	rt.depth--
	rt.pools[fu.FuncIdx] = append(rt.pools[fu.FuncIdx], fr)
}

// storeInt writes a two-state scalar in place: only Kind/Width/Bits are
// touched, leaving any stale L/Elems payload behind. Every consumer of a
// val.Value switches on Kind first, so the stale pointers are inert —
// this is what lets the integer fast path run without constructing (and
// zeroing) a fresh 64-byte value per op.
func storeInt(r *val.Value, w int, bits uint64) {
	if w <= 0 {
		w = 1 // mirror val.Int's width clamp
	}
	r.Kind = val.KindInt
	r.Width = w
	r.Bits = ir.MaskWidth(bits, w)
}

func storeBool(r *val.Value, b bool) {
	r.Kind = val.KindInt
	r.Width = 1
	if b {
		r.Bits = 1
	} else {
		r.Bits = 0
	}
}

// moveVal copies src into dst with the scalar-int fast path: two-state
// integers touch only Kind/Width/Bits (stale L/Elems stay inert, exactly
// as with storeInt), everything else takes the full struct copy. A full
// val.Value assignment costs a 64-byte copy plus GC write barriers for
// the pointer fields, and moves dominate lowered code — this is the
// dispatch loop's hottest path.
func moveVal(dst, src *val.Value) {
	if src.Kind == val.KindInt {
		dst.Kind = val.KindInt
		dst.Width = src.Width
		dst.Bits = src.Bits
		return
	}
	*dst = *src
}

// driveReg schedules a drive of the register's value: two-state scalars go
// through the engine's field-level DriveInt (no 64-byte value copy, no
// clone check), everything else through the generic Drive.
func driveReg(e *engine.Engine, r engine.SigRef, v *val.Value, delay ir.Time) {
	if v.Kind == val.KindInt {
		e.DriveInt(r, v.Width, v.Bits, delay)
		return
	}
	e.Drive(r, *v, delay)
}

// run is the threaded dispatch loop. It executes from fr.PC until the
// activation suspends, halts, or fails. All mutable state is reached
// through fr; u is shared read-only across sessions.
func (rt *Runtime) run(e *engine.Engine, u *Unit, fr *Frame, self engine.ProcID) (Status, error) {
	var (
		code  = u.Code
		aux   = u.Aux
		regs  = fr.Regs
		pc    = fr.PC
		jumps = 0
	)
	for {
		i := &code[pc]
		pc++
		switch i.Op {
		case opMove:
			moveVal(&regs[i.Dst], &regs[i.A])
		case opClone:
			regs[i.Dst] = regs[i.A].Clone()
		case opCloneP:
			regs[i.Dst] = u.Pool[i.A].Clone()

		case opAdd:
			storeInt(&regs[i.Dst], int(i.C), regs[i.A].Bits+regs[i.B].Bits)
		case opSub:
			storeInt(&regs[i.Dst], int(i.C), regs[i.A].Bits-regs[i.B].Bits)
		case opMul:
			storeInt(&regs[i.Dst], int(i.C), regs[i.A].Bits*regs[i.B].Bits)
		case opAnd:
			storeInt(&regs[i.Dst], int(i.C), regs[i.A].Bits&regs[i.B].Bits)
		case opOr:
			storeInt(&regs[i.Dst], int(i.C), regs[i.A].Bits|regs[i.B].Bits)
		case opXor:
			storeInt(&regs[i.Dst], int(i.C), regs[i.A].Bits^regs[i.B].Bits)
		case opShl:
			var x uint64
			if y := regs[i.B].Bits; y < 64 {
				x = regs[i.A].Bits << y
			}
			storeInt(&regs[i.Dst], int(i.C), x)
		case opShr:
			var x uint64
			if y := regs[i.B].Bits; y < 64 {
				x = regs[i.A].Bits >> y
			}
			storeInt(&regs[i.Dst], int(i.C), x)
		case opAshr:
			w := int(i.C)
			sh := regs[i.B].Bits
			if sh >= uint64(w) {
				sh = uint64(w - 1)
			}
			storeInt(&regs[i.Dst], w, uint64(ir.SignExtend(regs[i.A].Bits, w)>>sh))
		case opNot:
			storeInt(&regs[i.Dst], int(i.C), ^regs[i.A].Bits)
		case opNeg:
			storeInt(&regs[i.Dst], int(i.C), -regs[i.A].Bits)

		case opEq:
			a, b := &regs[i.A], &regs[i.B]
			if a.Kind == val.KindInt && b.Kind == val.KindInt {
				storeBool(&regs[i.Dst], a.Width == b.Width && a.Bits == b.Bits)
			} else {
				storeBool(&regs[i.Dst], a.Eq(*b))
			}
		case opNeq:
			a, b := &regs[i.A], &regs[i.B]
			if a.Kind == val.KindInt && b.Kind == val.KindInt {
				storeBool(&regs[i.Dst], a.Width != b.Width || a.Bits != b.Bits)
			} else {
				storeBool(&regs[i.Dst], !a.Eq(*b))
			}
		case opUlt:
			storeBool(&regs[i.Dst], regs[i.A].Bits < regs[i.B].Bits)
		case opUgt:
			storeBool(&regs[i.Dst], regs[i.A].Bits > regs[i.B].Bits)
		case opUle:
			storeBool(&regs[i.Dst], regs[i.A].Bits <= regs[i.B].Bits)
		case opUge:
			storeBool(&regs[i.Dst], regs[i.A].Bits >= regs[i.B].Bits)
		case opSlt:
			w := int(i.C)
			storeBool(&regs[i.Dst], ir.SignExtend(regs[i.A].Bits, w) < ir.SignExtend(regs[i.B].Bits, w))
		case opSgt:
			w := int(i.C)
			storeBool(&regs[i.Dst], ir.SignExtend(regs[i.A].Bits, w) > ir.SignExtend(regs[i.B].Bits, w))
		case opSle:
			w := int(i.C)
			storeBool(&regs[i.Dst], ir.SignExtend(regs[i.A].Bits, w) <= ir.SignExtend(regs[i.B].Bits, w))
		case opSge:
			w := int(i.C)
			storeBool(&regs[i.Dst], ir.SignExtend(regs[i.A].Bits, w) >= ir.SignExtend(regs[i.B].Bits, w))

		case opExtSInt:
			storeInt(&regs[i.Dst], int(i.C), regs[i.A].Bits>>uint(i.B))
		case opInsSInt:
			off, n, w := uint(aux[i.C]), int(aux[i.C+1]), int(aux[i.C+2])
			mask := ir.MaskWidth(^uint64(0), n) << off
			storeInt(&regs[i.Dst], w, regs[i.A].Bits&^mask|regs[i.B].Bits<<off&mask)

		case opEvalBin:
			out, err := val.Binary(ir.Opcode(i.C), regs[i.A], regs[i.B])
			if err != nil {
				return 0, err
			}
			regs[i.Dst] = out
		case opEvalUn:
			out, err := val.Unary(ir.Opcode(i.C), nil, regs[i.A])
			if err != nil {
				return 0, err
			}
			regs[i.Dst] = out

		case opMux:
			choices := &regs[i.A]
			// Unsigned selector: > MaxInt64 wraps negative and clamps
			// high, mirroring val.Mux (no clone).
			k := int(regs[i.B].Bits)
			if k >= len(choices.Elems) || k < 0 {
				k = len(choices.Elems) - 1
			}
			moveVal(&regs[i.Dst], &choices.Elems[k])
		case opExtF:
			out, err := val.ExtF(regs[i.A], int(i.B))
			if err != nil {
				return 0, err
			}
			regs[i.Dst] = out
		case opExtFDyn:
			a := regs[i.A]
			k := int(regs[i.B].Bits)
			// Clamp speculative dynamic reads like Mux: lowering may
			// hoist pure data flow past its control guards.
			if a.Kind == val.KindAgg && len(a.Elems) > 0 {
				if k < 0 {
					k = 0
				} else if k >= len(a.Elems) {
					k = len(a.Elems) - 1
				}
			}
			out, err := val.ExtF(a, k)
			if err != nil {
				return 0, err
			}
			regs[i.Dst] = out
		case opExtS:
			out, err := val.ExtS(regs[i.A], int(i.B), int(i.C))
			if err != nil {
				return 0, err
			}
			regs[i.Dst] = out
		case opInsF:
			out, err := val.InsF(regs[i.A], regs[i.B], int(i.C))
			if err != nil {
				return 0, err
			}
			regs[i.Dst] = out
		case opInsFDyn:
			a := regs[i.A]
			k := int(regs[i.C].Bits)
			// A speculative out-of-range dynamic write is dropped,
			// mirroring EvalPure's convention.
			if a.Kind == val.KindAgg && (k < 0 || k >= len(a.Elems)) {
				regs[i.Dst] = a
				continue
			}
			out, err := val.InsF(a, regs[i.B], k)
			if err != nil {
				return 0, err
			}
			regs[i.Dst] = out
		case opInsS:
			out, err := val.InsS(regs[i.A], regs[i.B], int(aux[i.C]), int(aux[i.C+1]))
			if err != nil {
				return 0, err
			}
			regs[i.Dst] = out
		case opAgg:
			elems := make([]val.Value, i.B)
			for k := range elems {
				elems[k] = regs[aux[int(i.A)+k]]
			}
			regs[i.Dst] = val.Agg(elems)

		case opPrb:
			// Whole-signal scalar probes and drives bypass the full
			// val.Value plumbing (see ProbeScalar/DriveInt); anything
			// projected or non-integer takes the generic path.
			if w, b, ok := e.ProbeScalar(fr.Sigs[i.A]); ok {
				storeInt(&regs[i.Dst], w, b)
			} else {
				v := e.Probe(fr.Sigs[i.A])
				moveVal(&regs[i.Dst], &v)
			}
		case opDrv:
			driveReg(e, fr.Sigs[i.A], &regs[i.B], regs[i.C].T)
		case opDrvCond:
			if regs[i.Dst].Bits != 0 {
				driveReg(e, fr.Sigs[i.A], &regs[i.B], regs[i.C].T)
			}
		case opDel:
			cur := e.Probe(fr.Sigs[i.B])
			d := &fr.Dels[i.Dst]
			if !d.Seen {
				d.Seen = true
				d.Prev = cur
			} else if !cur.Eq(d.Prev) {
				d.Prev = cur
				driveReg(e, fr.Sigs[i.A], &cur, regs[i.C].T)
			}
		case opReg:
			rt.regSite(e, u, fr, regs, int(i.A))

		case opCall:
			if jumps++; jumps >= maxJumps {
				return 0, errStepBudget
			}
			rv, err := rt.invoke(e, rt.prog.FuncList[i.A], regs, aux[i.B:i.B+i.C])
			if err != nil {
				return 0, err
			}
			if i.Dst >= 0 {
				regs[i.Dst] = rv
			}
		case opAssert:
			if regs[i.A].Bits == 0 {
				e.OnAssert("llhd.assert", e.Now)
			}
		case opDisplay:
			if e.Display != nil {
				parts := make([]string, i.B)
				for k := range parts {
					parts[k] = regs[aux[int(i.A)+k]].String()
				}
				e.Display(strings.Join(parts, " "))
			}
		case opTimeNow:
			if i.Dst >= 0 {
				regs[i.Dst] = val.TimeVal(e.Now)
			}
		case opBadCall:
			return 0, fmt.Errorf("unknown intrinsic @%s", u.Strs[i.A])

		case opJump:
			if jumps++; jumps >= maxJumps {
				return 0, errStepBudget
			}
			pc = int(i.A)
		case opBranch:
			if jumps++; jumps >= maxJumps {
				return 0, errStepBudget
			}
			if regs[i.A].Bits != 0 {
				pc = int(i.C)
			} else {
				pc = int(i.B)
			}
		case opPhi:
			// Simultaneous assignment over the preallocated scratch:
			// gather then scatter, no per-edge allocation.
			n := int(i.B)
			moves := aux[i.A : int(i.A)+2*n]
			tmp := fr.Phi[:n]
			for k := 0; k < n; k++ {
				moveVal(&tmp[k], &regs[moves[2*k]])
			}
			for k := 0; k < n; k++ {
				moveVal(&regs[moves[2*k+1]], &tmp[k])
			}
		case opWaitArm:
			e.Subscribe(self, fr.Waits[i.A])
			if i.B >= 0 {
				e.ScheduleWake(self, regs[i.B].T)
			}
		case opSuspend:
			fr.PC = int(i.A)
			return StatusSuspend, nil
		case opHalt, opRet:
			return StatusHalt, nil
		case opRetV:
			fr.Ret = regs[i.A]
			return StatusHalt, nil
		case opUnreach:
			return 0, fmt.Errorf("reached unreachable")
		case opNop:
			// nothing
		default:
			return 0, fmt.Errorf("bytecode: invalid opcode %d at pc %d in @%s", i.Op, pc-1, u.Name)
		}
	}
}

// regSite executes one reg storage site, mirroring the interpreter's
// trigger semantics: first activation samples, later activations fire at
// most one edge-matched, gate-open trigger.
func (rt *Runtime) regSite(e *engine.Engine, u *Unit, fr *Frame, regs []val.Value, ri int) {
	site := &u.RegSites[ri]
	st := &fr.Regst[ri]
	if !st.Seen {
		st.Seen = true
		for k, t := range site.Trigs {
			st.Prev[k] = regs[t.Trigger].Bits != 0
		}
		return
	}
	for k := range site.Trigs {
		t := &site.Trigs[k]
		now := regs[t.Trigger].Bits != 0
		was := st.Prev[k]
		st.Prev[k] = now
		var fired bool
		switch t.Mode {
		case ir.RegRise:
			fired = !was && now
		case ir.RegFall:
			fired = was && !now
		case ir.RegBoth:
			fired = was != now
		case ir.RegHigh:
			fired = now
		case ir.RegLow:
			fired = !now
		}
		if !fired {
			continue
		}
		if t.Gate >= 0 && regs[t.Gate].Bits == 0 {
			continue
		}
		var d ir.Time
		if site.Delay >= 0 {
			d = regs[site.Delay].T
		}
		driveReg(e, fr.Sigs[site.Sig], &regs[t.Value], d)
		break
	}
}
