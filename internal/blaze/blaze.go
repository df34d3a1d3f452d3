// Package blaze implements the optimized LLHD simulator (the paper's
// LLHD-Blaze, §6.1). Where the reference interpreter (internal/sim) walks
// the IR instruction graph, blaze compiles every unit ahead of time and
// executes the compiled form — the same effect the paper obtains with
// LLVM-based JIT compilation, within a pure-Go implementation.
//
// Each unit is lowered to a flat, fixed-width instruction stream executed
// by a threaded dispatch loop (internal/blaze/bytecode): one switch
// dispatch per instruction, registers indexed directly by dense value
// IDs, scalar integer ops running in place on the uint64 payload.
//
// Compilation is per unit and session-independent: the bytecode
// references per-activation state (registers, signal tables, reg/del
// histories) only through the frame it runs on, never by capture. A
// CompiledDesign therefore holds one immutable copy of the code for the
// whole design hierarchy, shared read-only by every Simulator built from
// it — the foundation of the concurrent session farm (llhd.Farm).
// Per-session state (the event engine, signals, register files, function
// call-frame pools) lives in the Simulator.
//
// Blaze shares the event kernel (internal/engine) with the interpreter, so
// both produce identical traces; only the per-activation execution differs.
package blaze

import (
	"fmt"

	"llhd/internal/blaze/bytecode"
	"llhd/internal/engine"
	"llhd/internal/ir"
)

// Simulator couples one elaborated, per-session incarnation of a compiled
// design with its own event engine. The compiled code is shared with every
// other Simulator built from the same CompiledDesign; everything reachable
// from here that is mutable at run time is session-private.
type Simulator struct {
	Engine *engine.Engine

	design *CompiledDesign
}

// New compiles the design hierarchy under the top unit and returns the
// first session over it; it is the only compile path. Units are lowered
// during that session's elaboration, then the module is frozen
// (ir.Module.Freeze) and the design sealed for Design() to share. On error
// the module is left unfrozen: freezing is irreversible.
func New(m *ir.Module, top string) (*Simulator, error) {
	cd := &CompiledDesign{
		module: m,
		top:    top,
		prog:   bytecode.NewProgram(m),
		units:  map[*ir.Unit]*bytecode.Unit{},
	}
	s, err := cd.NewSimulator()
	if err != nil {
		return nil, err
	}
	m.Freeze()
	cd.sealed = true
	return s, nil
}

// Design returns the compiled design the simulator executes.
func (s *Simulator) Design() *CompiledDesign { return s.design }

// Run initializes and simulates to completion (or the time limit).
func (s *Simulator) Run(limit ir.Time) error {
	s.Engine.Init()
	s.Engine.Run(limit)
	return s.Engine.Err()
}

// proc is one unit instance executing shared bytecode over a private
// frame. Init subscribes entity sensitivity; Wake re-runs an entity's
// cone from the top or resumes a process where it suspended.
type proc struct {
	engine.ProcHandle
	name   string
	u      *bytecode.Unit
	fr     *bytecode.Frame
	rt     *bytecode.Runtime
	entity bool
	halted bool
}

func (p *proc) Name() string { return p.name }

func (p *proc) Init(e *engine.Engine) {
	if p.entity {
		// Permanent sensitivity on every probed signal.
		e.Subscribe(p.ProcID(), p.fr.Probed)
	}
	p.fr.PC = 0
	p.step(e)
}

func (p *proc) Wake(e *engine.Engine) {
	if p.halted {
		return
	}
	if p.entity {
		p.fr.PC = 0
	}
	p.step(e)
}

func (p *proc) step(e *engine.Engine) {
	st, err := p.rt.Exec(e, p.u, p.fr, p.ProcID())
	if err != nil {
		e.SetError(fmt.Errorf("blaze: %s: %w", p.name, err))
		return
	}
	if st == bytecode.StatusHalt {
		e.Halt(p.ProcID())
		p.halted = true
	}
}
