package blaze

import (
	"fmt"

	"llhd/internal/blaze/bytecode"
	"llhd/internal/engine"
	"llhd/internal/ir"
)

// CompiledDesign is the compile-once artifact of a design hierarchy: one
// lowered bytecode unit per reachable process/entity unit plus the
// functions they call. Every design is sealed before New returns it, so
// it is immutable and may be shared read-only by any number of
// concurrent Simulators — every piece of mutable runtime state (register
// files, signal tables, reg/del histories, call-frame pools) is created
// per session by NewSimulator.
type CompiledDesign struct {
	module *ir.Module
	top    string
	prog   *bytecode.Program
	units  map[*ir.Unit]*bytecode.Unit
	sealed bool
}

// Compile compiles every unit reachable from the top entity exactly once,
// freezes the module, and returns the sealed design: New followed by
// Design, for callers that want the design without a first session.
func Compile(m *ir.Module, top string) (*CompiledDesign, error) {
	s, err := New(m, top)
	if err != nil {
		return nil, err
	}
	return s.Design(), nil
}

// Module returns the frozen module the design was compiled from.
func (cd *CompiledDesign) Module() *ir.Module { return cd.module }

// Top returns the name of the top unit the design elaborates.
func (cd *CompiledDesign) Top() string { return cd.top }

// NewSimulator elaborates a fresh, independent session over the shared
// compiled code: its own event engine, signals, register files, and
// call-frame pools. Sessions built from one design may run concurrently;
// the shared code is never written after New seals it.
func (cd *CompiledDesign) NewSimulator() (*Simulator, error) {
	e := engine.New()
	rt := bytecode.NewRuntime(cd.prog)
	factory := func(inst *engine.Instance) (engine.Process, error) {
		u, err := cd.unitFor(inst)
		if err != nil {
			return nil, err
		}
		return instantiate(u, inst, rt)
	}
	if err := engine.Elaborate(e, cd.module, cd.top, factory); err != nil {
		return nil, err
	}
	return &Simulator{Engine: e, design: cd}, nil
}

// unitFor returns the lowered form of the instance's unit, lowering it
// on first encounter during New's elaboration.
func (cd *CompiledDesign) unitFor(inst *engine.Instance) (*bytecode.Unit, error) {
	if u, ok := cd.units[inst.Unit]; ok {
		return u, nil
	}
	if cd.sealed {
		return nil, fmt.Errorf("blaze: unit @%s is not part of the sealed design", inst.Unit.Name)
	}
	u, err := cd.prog.LowerUnit(inst)
	if err != nil {
		return nil, err
	}
	cd.units[inst.Unit] = u
	return u, nil
}

// instantiate builds the per-session, per-instance proc over a private
// frame; the lowered unit itself is shared by reference.
func instantiate(u *bytecode.Unit, inst *engine.Instance, rt *bytecode.Runtime) (*proc, error) {
	fr, err := u.NewFrame(inst)
	if err != nil {
		return nil, fmt.Errorf("blaze: %s: %w", inst.Name, err)
	}
	return &proc{name: inst.Name, u: u, fr: fr, rt: rt, entity: u.Entity}, nil
}

// DisasmUnit renders the bytecode of one lowered unit; the golden tests
// pin encodings through it.
func (cd *CompiledDesign) DisasmUnit(name string) (string, error) {
	for u, bu := range cd.units {
		if u.Name == name {
			return bytecode.Disasm(bu), nil
		}
	}
	for _, fu := range cd.prog.FuncList {
		if fu.Name == name {
			return bytecode.Disasm(fu), nil
		}
	}
	return "", fmt.Errorf("blaze: no lowered unit @%s in the design", name)
}
