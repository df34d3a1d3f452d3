package main

import (
	"fmt"

	"llhd"
	"llhd/internal/designs"
	"llhd/internal/ir"
	"llhd/internal/moore"
	"llhd/internal/pass"
)

// fixpointLimit is the iteration cap llhd.Lower passes to RunFixpoint.
const fixpointLimit = 8

// lowerBench is the table2-lower workload: every job takes one design
// from SystemVerilog text through moore, llhd.Lower, CompileBlaze and a
// blaze session run to quiescence.
type lowerBench struct {
	ds   []designs.Design
	refs []lowerRef
}

// lowerRef is one design's reference, computed during setup by the
// interpreter on the llhd.Lower output.
type lowerRef struct {
	outcome
	insts int64 // instructions after lowering
}

func newLowerBench(ds []designs.Design, traced bool) (*lowerBench, error) {
	b := &lowerBench{ds: ds}
	for _, d := range ds {
		m, err := moore.Compile(d.Name, d.Source)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", d.Name, err)
		}
		if err := llhd.Lower(m); err != nil {
			return nil, fmt.Errorf("%s: lowering: %w", d.Name, err)
		}
		if traced {
			if err := checkTracedLower(d, llhd.AssemblyString(m)); err != nil {
				return nil, err
			}
		}
		ref, err := simulate(scope{}, interpEngine, llhd.FromModule(m), llhd.Top(d.Top))
		if err != nil {
			return nil, fmt.Errorf("%s: interpreter reference: %w", d.Name, err)
		}
		b.refs = append(b.refs, lowerRef{outcome: ref, insts: countInsts(m)})
	}
	return b, nil
}

// checkTracedLower lowers d through the timing delegates and fails
// unless the result prints byte-identically to llhd.Lower's.
func checkTracedLower(d designs.Design, want string) error {
	m, err := moore.Compile(d.Name, d.Source)
	if err != nil {
		return fmt.Errorf("%s: %w", d.Name, err)
	}
	if err := tracedLower(m, scope{t: newTracer()}, newTally()); err != nil {
		return fmt.Errorf("%s: traced lowering: %w", d.Name, err)
	}
	if got := llhd.AssemblyString(m); got != want {
		return fmt.Errorf("%s: traced lowering printed %d bytes of assembly that differ from llhd.Lower's %d bytes",
			d.Name, len(got), len(want))
	}
	return nil
}

func (b *lowerBench) jobs() int { return len(b.ds) }
func (b *lowerBench) close()    {}

func (b *lowerBench) sweep(order []int, sc scope, tl *tally) {
	for _, i := range order {
		d := b.ds[i]
		tl.job(d.Name, b.job(d, b.refs[i], sc.jobSpan(i, d.Name), tl))
	}
}

func (b *lowerBench) job(d designs.Design, ref lowerRef, js scope, tl *tally) error {
	defer js.end(0, 0)
	ps := js.child("moore.parse")
	file, err := moore.ParseFile(d.Source)
	ps.end(0, 0)
	if err != nil {
		return err
	}
	cs := js.child("moore.codegen")
	m, err := moore.CompileFile(d.Name, file)
	cs.end(0, 0)
	if err != nil {
		return err
	}
	ls := js.child("pass.lower")
	if js.traced() {
		tl.add(js.sweep, "ir.insts_before_lower", countInsts(m))
		err = tracedLower(m, ls, tl)
	} else {
		err = llhd.Lower(m)
	}
	ls.end(0, 0)
	if err != nil {
		return fmt.Errorf("lowering: %w", err)
	}
	insts := countInsts(m)
	tl.add(js.sweep, "ir.insts_after_lower", insts)
	if insts != ref.insts {
		return fmt.Errorf("lowering left %d instructions, reference %d", insts, ref.insts)
	}
	fs := js.child("ir.freeze")
	m.Freeze()
	fs.end(0, 0)
	bs := js.child("blaze.compile")
	cd, err := llhd.CompileBlaze(m, d.Top)
	bs.end(0, 0)
	if err != nil {
		return fmt.Errorf("blaze compile: %w", err)
	}
	out, err := simulate(js, blazeEngine, llhd.FromCompiled(cd))
	if err != nil {
		return err
	}
	tl.add(js.sweep, "sim.deltas", int64(out.deltas))
	tl.add(js.sweep, "sim.events", int64(out.events))
	return out.check(ref.outcome)
}

// tracedLower runs the lowering pipeline exactly as llhd.Lower does —
// RunFixpoint with the same cap — with every pass wrapped in a delegate
// that records one span per run. It counts fixpoint iterations and
// whether the last permitted iteration still changed the module (the
// cap was hit silently).
func tracedLower(m *ir.Module, sc scope, tl *tally) error {
	pl := pass.LoweringPipeline()
	it := &iterations{}
	for i, p := range pl.Passes {
		span := "pass." + p.Name()
		pl.Passes[i] = &timedPass{Pass: p, span: span, runs: span + ".runs", first: i == 0, it: it, sc: sc, tl: tl}
	}
	if err := pl.RunFixpoint(m, fixpointLimit); err != nil {
		return err
	}
	capped := int64(0)
	if it.n == fixpointLimit && it.changed {
		capped = 1
	}
	tl.add(sc.sweep, "pass.fixpoint_iters", int64(it.n))
	tl.add(sc.sweep, "pass.fixpoint_capped", capped)
	return nil
}

// iterations tracks RunFixpoint's progress from inside the pipeline:
// the number of iterations begun and whether the current one changed
// the module.
type iterations struct {
	n       int
	changed bool
}

// timedPass is the timing delegate around one pipeline slot.
type timedPass struct {
	pass.Pass
	span  string
	runs  string // the counter of the pass's runs
	first bool   // the pipeline's first slot, which begins an iteration
	it    *iterations
	sc    scope
	tl    *tally
}

func (p *timedPass) Run(m *ir.Module) (bool, error) {
	if p.first {
		p.it.n++
		p.it.changed = false
	}
	s := p.sc.child(p.span)
	changed, err := p.Pass.Run(m)
	c := int64(0)
	if changed {
		c = 1
		p.it.changed = true
	}
	s.end(c, 0)
	p.tl.add(p.sc.sweep, p.runs, 1)
	return changed, err
}
