package sim

import (
	"fmt"
	"strings"

	"llhd/internal/engine"
	"llhd/internal/ir"
	"llhd/internal/val"
)

// funcPool recycles the activations of one function, so steady-state call
// chains (recursion included, which simply pops deeper activations)
// allocate nothing.
type funcPool []*activation

// get pops an activation for fn positioned at its entry block, its frame
// invalidated by one stamp bump.
func (p *funcPool) get(s *Simulator, fn *ir.Unit) *activation {
	var c *activation
	if n := len(*p); n > 0 {
		c = (*p)[n-1]
		*p = (*p)[:n-1]
		c.frame.reset()
	} else {
		c = newActivation(s, fn, nil)
	}
	c.block, c.index, c.ret = fn.Entry(), 0, val.Value{}
	return c
}

// put returns an activation to the pool.
func (p *funcPool) put(c *activation) { *p = append(*p, c) }

// funcError attributes a failure to the function it arose in. Callers up
// the chain pass it through unchanged, so a failure deep in a recursion
// names one function instead of the whole call chain.
type funcError struct {
	fn  string
	err error
}

func (f *funcError) Error() string { return "@" + f.fn + ": " + f.err.Error() }
func (f *funcError) Unwrap() error { return f.err }

// call executes a call instruction: llhd.* intrinsics go to the engine
// hooks; any other callee must be a function, which runs to completion
// (functions execute immediately, §2.4.1) on a pooled activation through
// the same exec loop, one nesting level deeper than the caller.
func (a *activation) call(e *engine.Engine, in *ir.Inst) error {
	var rv val.Value
	var err error
	if strings.HasPrefix(in.Callee, "llhd.") {
		rv, err = a.intrinsic(e, in)
	} else {
		rv, err = a.callFunc(e, in)
	}
	if err != nil {
		return err
	}
	if !in.Ty.IsVoid() {
		a.frame.set(ir.ValueID(in), rv)
	}
	return nil
}

func (a *activation) callFunc(e *engine.Engine, in *ir.Inst) (val.Value, error) {
	s := a.sim
	fn := s.Module.Unit(in.Callee)
	switch {
	case fn == nil:
		return val.Value{}, fmt.Errorf("call to undefined @%s", in.Callee)
	case fn.Kind != ir.UnitFunc:
		return val.Value{}, fmt.Errorf("call target @%s is a %s", in.Callee, fn.Kind)
	case len(in.Args) != len(fn.Inputs):
		return val.Value{}, fmt.Errorf("@%s called with %d args, want %d", fn.Name, len(in.Args), len(fn.Inputs))
	case a.depth >= engine.MaxCallDepth:
		return val.Value{}, fmt.Errorf("call depth exceeded in @%s: %w", fn.Name, engine.ErrStepLimit)
	}
	pool := s.pools[fn]
	if pool == nil {
		pool = &funcPool{}
		s.pools[fn] = pool
	}
	c := pool.get(s, fn)
	defer pool.put(c)
	c.depth = a.depth + 1
	for i, x := range in.Args {
		v, err := a.value(x)
		if err != nil {
			return val.Value{}, err
		}
		c.frame.set(ir.ValueID(fn.Inputs[i]), v)
	}
	if err := c.exec(e); err != nil {
		if _, ok := err.(*funcError); !ok {
			err = &funcError{fn: fn.Name, err: err}
		}
		return val.Value{}, err
	}
	return c.ret, nil
}

// intrinsic implements the llhd.* intrinsics (§2.5.9).
func (a *activation) intrinsic(e *engine.Engine, in *ir.Inst) (val.Value, error) {
	switch in.Callee {
	case "llhd.assert":
		if len(in.Args) != 1 {
			return val.Value{}, fmt.Errorf("llhd.assert needs one i1 argument")
		}
		c, err := a.value(in.Args[0])
		if err != nil {
			return val.Value{}, err
		}
		if !c.IsTrue() {
			e.OnAssert(in.Callee, e.Now)
		}
		return val.Value{}, nil
	case "llhd.display":
		if e.Display != nil {
			parts := make([]string, len(in.Args))
			for i, x := range in.Args {
				v, err := a.value(x)
				if err != nil {
					return val.Value{}, err
				}
				parts[i] = v.String()
			}
			e.Display(strings.Join(parts, " "))
		}
		return val.Value{}, nil
	case "llhd.time":
		return val.TimeVal(e.Now), nil
	}
	return val.Value{}, fmt.Errorf("unknown intrinsic @%s", in.Callee)
}
