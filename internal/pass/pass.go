// Package pass implements the LLHD transformation passes of §4 of the
// paper: the basic cleanups (constant folding, DCE, CSE, instruction
// simplification, inlining, mem2reg), and the lowering pipeline from
// Behavioural to Structural LLHD (ECM, TCM, TCFE, process lowering,
// desequentialization), plus the structural cleanups used at the end of
// Figure 5 (entity inlining and signal forwarding).
package pass

import (
	"fmt"
	"slices"
	"strings"

	"llhd/internal/ir"
)

// Pass is a module transformation. Run reports whether it changed the
// module.
type Pass interface {
	Name() string
	Run(m *ir.Module) (bool, error)
}

// unitPass adapts a per-unit transformation to the Pass interface.
type unitPass struct {
	name string
	// kinds restricts the pass to certain unit kinds; empty means all.
	kinds []ir.UnitKind
	run   func(u *ir.Unit) (bool, error)
}

func (p *unitPass) Name() string { return p.name }

func (p *unitPass) Run(m *ir.Module) (bool, error) {
	changed := false
	for _, u := range m.Units {
		if len(p.kinds) > 0 {
			ok := false
			for _, k := range p.kinds {
				if u.Kind == k {
					ok = true
					break
				}
			}
			if !ok {
				continue
			}
		}
		c, err := p.run(u)
		if err != nil {
			return changed, fmt.Errorf("%s: @%s: %w", p.name, u.Name, err)
		}
		changed = changed || c
	}
	return changed, nil
}

// Pipeline runs passes in order; RunFixpoint repeats until stable.
type Pipeline struct {
	Passes []Pass
	// VerifyEach runs ir.Verify(m, ir.Behavioural) after every pass
	// application and fails naming the offending pass. It is a debug
	// mode: the fuzzer and the lowering validity tests use it to
	// attribute an invariant break to the pass that introduced it.
	VerifyEach bool
}

// Run executes each pass once in order and returns the names of the
// passes that reported a change, each name once.
func (pl *Pipeline) Run(m *ir.Module) ([]string, error) {
	var changed []string
	for _, p := range pl.Passes {
		c, err := p.Run(m)
		if err != nil {
			return changed, err
		}
		if c && !slices.Contains(changed, p.Name()) {
			changed = append(changed, p.Name())
		}
		if pl.VerifyEach {
			if err := ir.Verify(m, ir.Behavioural); err != nil {
				return changed, fmt.Errorf("verify-each: after pass %q: %w", p.Name(), err)
			}
		}
	}
	return changed, nil
}

// FixpointLimit is the round limit llhd.Lower and the tools give
// RunFixpoint for the lowering pipeline.
const FixpointLimit = 8

// RunFixpoint repeats the pipeline until a round in which no pass reports
// a change. Still changing after limit rounds is an error naming the
// passes that changed in the last round.
func (pl *Pipeline) RunFixpoint(m *ir.Module, limit int) error {
	var changed []string
	for i := 0; i < limit; i++ {
		var err error
		if changed, err = pl.Run(m); err != nil {
			return err
		}
		if len(changed) == 0 {
			return nil
		}
	}
	return fmt.Errorf("pipeline did not converge in %d rounds; still changing in the last: %s",
		limit, strings.Join(changed, ", "))
}

// Names lists the pass names in order.
func (pl *Pipeline) Names() []string {
	names := make([]string, len(pl.Passes))
	for i, p := range pl.Passes {
		names[i] = p.Name()
	}
	return names
}

// BasicPipeline returns the §4.1 cleanup passes: CF, DCE, CSE, IS,
// inlining, and memory-to-register promotion.
func BasicPipeline() *Pipeline {
	return &Pipeline{Passes: []Pass{
		Inline(),
		Mem2Reg(),
		ConstantFold(),
		InstSimplify(),
		CSE(),
		DCE(),
	}}
}

// LoweringPipeline returns the behavioural-to-structural lowering of §4:
// the basic cleanups followed by ECM, TCM, TCFE, PL, and Deseq, then the
// structural cleanups of Figure 5 (entity inlining, signal forwarding).
func LoweringPipeline() *Pipeline {
	return &Pipeline{Passes: []Pass{
		Inline(),
		Mem2Reg(),
		ConstantFold(),
		InstSimplify(),
		CSE(),
		DCE(),
		ECM(),
		TCM(),
		ConstantFold(),
		InstSimplify(),
		DCE(),
		TCFE(),
		ProcessLowering(),
		Desequentialize(),
		InlineEntities(),
		SignalForwarding(),
		ConstantFold(),
		InstSimplify(),
		CSE(),
		DCE(),
	}}
}

// Lower runs the full lowering pipeline to fixpoint and verifies the
// result at the requested level.
func Lower(m *ir.Module, target ir.Level) error {
	pl := LoweringPipeline()
	if err := pl.RunFixpoint(m, FixpointLimit); err != nil {
		return err
	}
	return ir.Verify(m, target)
}
