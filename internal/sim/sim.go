// Package sim implements the LLHD reference simulator (the paper's
// LLHD-Sim, §6.1): a deliberately simple tree-walking interpreter over the
// IR, running on the shared discrete-event kernel in internal/engine. It
// favours clarity over speed; internal/blaze is the fast counterpart. The
// two share the kernel and nothing else, so each stays an independent
// oracle for the other.
//
// Every unit runs as an activation: one type and one dispatch loop (exec)
// serve entities, processes and functions alike, and each opcode is legal
// only in the unit kinds ir.Verify admits it in. The kinds differ only at
// activation entry: an entity subscribes to its probed signals at Init and
// reruns its body from the top on every wake over a reset frame; a process
// resumes where it suspended and never resets; a function call runs on a
// pooled activation, one nesting level deeper than its caller.
//
// Every value access indexes a flat frame by the unit's ir.Numbering (see
// frame.go), the same value-ID scheme the blaze compiler assigns register
// slots with. Frames, wait sets and reg histories are pooled or reused, so
// the per-wake hot path is allocation-free in steady state (pinned by
// TestInterpWakeHotPathAllocFree).
package sim

import (
	"fmt"
	"slices"

	"llhd/internal/engine"
	"llhd/internal/ir"
	"llhd/internal/val"
)

// Simulator couples an elaborated design with the event engine.
type Simulator struct {
	Engine *engine.Engine
	Module *ir.Module
	Top    string

	pools map[*ir.Unit]*funcPool // recycled function activations
}

// New elaborates the design hierarchy under the named top unit with one
// activation per process and reactive entity instance, then freezes the
// module (ir.Module.Freeze): every simulated design is a frozen one. On
// error the module is left unfrozen.
func New(m *ir.Module, top string) (*Simulator, error) {
	e := engine.New()
	s := &Simulator{Engine: e, Module: m, Top: top, pools: map[*ir.Unit]*funcPool{}}
	factory := func(inst *engine.Instance) (engine.Process, error) {
		return newActivation(s, inst.Unit, inst), nil
	}
	if err := engine.Elaborate(e, m, top, factory); err != nil {
		return nil, err
	}
	m.Freeze()
	return s, nil
}

// Run initializes the design and simulates until the event queue drains or
// physical time exceeds limit (zero limit: unbounded). It returns the
// first runtime error, if any.
func (s *Simulator) Run(limit ir.Time) error {
	s.Engine.Init()
	s.Engine.Run(limit)
	return s.Engine.Err()
}

// activation is one running unit: an entity or process instance driven by
// the engine, or one function call.
type activation struct {
	engine.ProcHandle
	sim  *Simulator
	unit *ir.Unit
	name string // instance name, or the function name for calls

	frame    *frame
	sigs     []engine.SigRef // value ID -> signal reference
	sigKnown []bool
	waitRefs []engine.SigRef // reusable wait sensitivity scratch

	block  *ir.Block // current block
	index  int       // next instruction index in block
	halted bool
	depth  int       // function-call nesting: 0 for instances
	ret    val.Value // a function's return value

	// Previous-sample histories for reg and del, indexed by value ID and
	// materialized on first use (most entities have neither).
	regPrev    [][]val.Value
	regScratch []val.Value // reusable per-wake sample buffer
	delPrev    []val.Value
	delKnown   []bool
}

// newActivation builds the activation of unit u. For an instance it copies
// the elaborated signal bindings (runtime extf/exts projections extend the
// table) and seeds the frame's constant prefix once; reset never touches
// it. Function calls pass a nil inst: they bind no signals.
func newActivation(s *Simulator, u *ir.Unit, inst *engine.Instance) *activation {
	n := u.Numbering().Len()
	a := &activation{sim: s, unit: u, name: u.Name, frame: newFrame(n)}
	if inst != nil {
		a.name = inst.Name
		a.sigs, a.sigKnown = make([]engine.SigRef, n), make([]bool, n)
		refs, bound := inst.BindTable()
		copy(a.sigs, refs)
		copy(a.sigKnown, bound)
		consts, isConst := inst.ConstTable()
		for id, ok := range isConst {
			if ok {
				a.frame.seedConst(id, consts[id])
			}
		}
	}
	return a
}

func (a *activation) Name() string { return a.name }

// Init starts an instance at its entry block. An entity first subscribes,
// permanently, to every signal its body probes.
func (a *activation) Init(e *engine.Engine) {
	if a.unit.Kind == ir.UnitEntity {
		e.Subscribe(a.ProcID(), a.probed())
	}
	a.block, a.index = a.unit.Entry(), 0
	a.step(e)
}

// Wake resumes a process where it suspended. An entity instead reruns its
// body from the top over a reset frame: one stamp bump invalidates the
// previous wake's values, and the constant prefix survives it.
func (a *activation) Wake(e *engine.Engine) {
	if a.halted {
		return
	}
	if a.unit.Kind == ir.UnitEntity {
		a.frame.reset()
		a.index = 0
	}
	a.step(e)
}

func (a *activation) step(e *engine.Engine) {
	if err := a.exec(e); err != nil {
		e.SetError(fmt.Errorf("sim: %s: %w", a.name, err))
	}
}

// maxSteps bounds the instructions of one activation (one wake of an
// instance, one function call): a guard against runaway zero-time loops.
const maxSteps = 100_000_000

// exec is the interpreter's one dispatch loop. It runs from the current
// position until the activation suspends (wait), halts, returns (ret), or
// reaches the end of an entity body.
func (a *activation) exec(e *engine.Engine) error {
	f, kind := a.frame, a.unit.Kind
	for steps := 0; steps < maxSteps; steps++ {
		if a.block == nil || a.index >= len(a.block.Insts) {
			switch kind {
			case ir.UnitEntity:
				return nil
			case ir.UnitProc:
				e.Halt(a.ProcID())
				a.halted = true
				return nil
			}
			return fmt.Errorf("fell off the end of %s", a.block)
		}
		in := a.block.Insts[a.index]
		a.index++

		switch in.Op {
		case ir.OpSig, ir.OpInst, ir.OpCon:
			// Structure is built at elaboration.
			if kind != ir.UnitEntity {
				return a.illegal(in)
			}
			continue

		case ir.OpPhi:
			// Resolved by jump.
			if kind == ir.UnitEntity {
				return a.illegal(in)
			}
			continue

		case ir.OpExtF:
			if r, ok := a.sigOf(in.Args[0]); ok && len(in.Args) == 1 {
				a.setSig(in, r.Extend(engine.Proj{Kind: engine.ProjField, A: in.Imm0}))
				continue
			}
			if in.Args[0].Type().IsPointer() {
				return fmt.Errorf("extf on pointers is not supported by the interpreter yet")
			}
			// Plain-value extraction (including dynamic index) falls
			// through to the pure evaluator below.

		case ir.OpExtS:
			if r, ok := a.sigOf(in.Args[0]); ok {
				a.setSig(in, r.Extend(engine.Proj{Kind: engine.ProjSlice, A: in.Imm0, B: in.Imm1}))
				continue
			}

		case ir.OpPrb:
			if kind == ir.UnitFunc {
				return a.illegal(in)
			}
			r, err := a.sigRef(in.Args[0])
			if err != nil {
				return err
			}
			f.set(ir.ValueID(in), e.Probe(r))
			continue

		case ir.OpDrv:
			if kind == ir.UnitFunc {
				return a.illegal(in)
			}
			if err := a.drive(e, in); err != nil {
				return err
			}
			continue

		case ir.OpReg, ir.OpDel:
			if kind != ir.UnitEntity {
				return a.illegal(in)
			}
			var err error
			if in.Op == ir.OpReg {
				err = a.reg(e, in)
			} else {
				err = a.del(e, in)
			}
			if err != nil {
				return err
			}
			continue

		case ir.OpVar, ir.OpAlloc:
			// Memory ops need a var/alloc first, so this check also keeps
			// ld/st/free out of entities.
			if kind == ir.UnitEntity {
				return a.illegal(in)
			}
			var init val.Value
			if in.Op == ir.OpVar {
				v, err := a.value(in.Args[0])
				if err != nil {
					return err
				}
				init = v.Clone()
			} else {
				init = val.Default(in.Ty.Elem)
			}
			// Re-executing a var (loop) rebinds the same slot with the init
			// value, matching stack-slot semantics.
			f.defineMem(ir.ValueID(in), init)
			continue

		case ir.OpLd:
			s, err := f.memOf(in.Args[0])
			if err != nil {
				return err
			}
			f.set(ir.ValueID(in), s.v.Clone())
			continue

		case ir.OpSt:
			s, err := f.memOf(in.Args[0])
			if err != nil {
				return err
			}
			v, err := a.value(in.Args[1])
			if err != nil {
				return err
			}
			s.v = v.Clone()
			continue

		case ir.OpFree:
			s, err := f.memOf(in.Args[0])
			if err != nil {
				return err
			}
			s.freed = true
			continue

		case ir.OpCall:
			if err := a.call(e, in); err != nil {
				return err
			}
			continue

		case ir.OpBr:
			if kind == ir.UnitEntity {
				return a.illegal(in)
			}
			dest := in.Dests[0]
			if len(in.Args) == 1 {
				c, ok := f.boolAt(in.Args[0])
				if !ok {
					cv, err := a.value(in.Args[0])
					if err != nil {
						return err
					}
					c = cv.IsTrue()
				}
				if c {
					dest = in.Dests[1]
				}
			}
			if err := a.jump(dest); err != nil {
				return err
			}
			continue

		case ir.OpWait:
			if kind != ir.UnitProc {
				return a.illegal(in)
			}
			return a.wait(e, in)

		case ir.OpHalt:
			if kind != ir.UnitProc {
				return a.illegal(in)
			}
			e.Halt(a.ProcID())
			a.halted = true
			return nil

		case ir.OpRet:
			if kind != ir.UnitFunc {
				return a.illegal(in)
			}
			if len(in.Args) == 1 {
				v, err := a.value(in.Args[0])
				if err != nil {
					return err
				}
				a.ret = v
			}
			return nil

		case ir.OpUnreachable:
			return fmt.Errorf("reached unreachable")
		}

		// Pure data flow: scalar-integer ops run in place on the frame;
		// logic vectors, aggregates and times take the generic evaluator,
		// which also owns its error reporting.
		if f.evalFast(in) {
			continue
		}
		v, err := engine.EvalPure(in, f.lookup)
		if err != nil {
			return err
		}
		f.set(ir.ValueID(in), v)
	}
	return fmt.Errorf("step budget exhausted (livelock?): %w", engine.ErrStepLimit)
}

// illegal reports an instruction that ir.Verify does not admit in a unit
// of this kind.
func (a *activation) illegal(in *ir.Inst) error {
	return fmt.Errorf("%s is not allowed in a %s", in.Op, a.unit.Kind)
}

// jump transfers control to dest, assigning its leading phis
// simultaneously against the edge taken. The phi scratch on the frame is
// reused across jumps.
func (a *activation) jump(dest *ir.Block) error {
	from, f := a.block, a.frame
	a.block, a.index = dest, 0
	vals, ids := f.phiVals[:0], f.phiIDs[:0]
	var err error
	for _, in := range dest.Insts {
		if in.Op != ir.OpPhi {
			break
		}
		k := slices.Index(in.Dests, from)
		if k < 0 {
			err = fmt.Errorf("phi in %s has no incoming edge from %s", dest, from)
			break
		}
		var v val.Value
		if v, err = a.value(in.Args[k]); err != nil {
			break
		}
		vals = append(vals, v)
		ids = append(ids, ir.ValueID(in))
	}
	f.phiVals, f.phiIDs = vals, ids
	if err != nil {
		return err
	}
	for i, id := range ids {
		f.set(id, vals[i])
	}
	return nil
}

// wait arms the process's sensitivity and timeout, then moves to the
// resume block, where the next wake continues.
func (a *activation) wait(e *engine.Engine, in *ir.Inst) error {
	refs := a.waitRefs[:0]
	for _, x := range in.Args {
		r, err := a.sigRef(x)
		if err != nil {
			return err
		}
		refs = append(refs, r)
	}
	a.waitRefs = refs
	e.Subscribe(a.ProcID(), refs)
	if in.TimeArg != nil {
		t, err := a.value(in.TimeArg)
		if err != nil {
			return err
		}
		e.ScheduleWake(a.ProcID(), t.T)
	}
	return a.jump(in.Dests[0])
}

// drive schedules a drv: the value onto the signal after the delay, unless
// an optional condition is false.
func (a *activation) drive(e *engine.Engine, in *ir.Inst) error {
	r, err := a.sigRef(in.Args[0])
	if err != nil {
		return err
	}
	v, err := a.value(in.Args[1])
	if err != nil {
		return err
	}
	d, err := a.value(in.Args[2])
	if err != nil {
		return err
	}
	if len(in.Args) == 4 {
		cond, err := a.value(in.Args[3])
		if err != nil || !cond.IsTrue() {
			return err
		}
	}
	e.Drive(r, v, d.T)
	return nil
}

// value resolves an operand to its runtime value.
func (a *activation) value(v ir.Value) (val.Value, error) {
	if id := ir.ValueID(v); id >= 0 {
		if rv, ok := a.frame.get(id); ok {
			return rv, nil
		}
	}
	return val.Value{}, fmt.Errorf("value %s not computed", v)
}

// sigOf resolves an operand to a signal reference, if it is one.
func (a *activation) sigOf(v ir.Value) (engine.SigRef, bool) {
	if id := ir.ValueID(v); id >= 0 && id < len(a.sigKnown) && a.sigKnown[id] {
		return a.sigs[id], true
	}
	return engine.SigRef{}, false
}

// sigRef resolves an operand to a signal reference or errors.
func (a *activation) sigRef(v ir.Value) (engine.SigRef, error) {
	if r, ok := a.sigOf(v); ok {
		return r, nil
	}
	return engine.SigRef{}, fmt.Errorf("%s is not a signal reference", v)
}

// setSig records a runtime signal projection.
func (a *activation) setSig(v ir.Value, r engine.SigRef) {
	if id := ir.ValueID(v); id >= 0 {
		a.sigs[id] = r
		a.sigKnown[id] = true
	}
}
