package main

import (
	"fmt"

	"llhd"
	"llhd/internal/designs"
	"llhd/internal/moore"
)

// simBench is the table2-sim workload. Setup compiles every design once,
// unlowered, freezes it and compiles it for blaze; each job is one
// session — a FromCompiled blaze session or an interpreter session on
// the frozen module — so moore and the passes are bypassed.
type simBench struct {
	ds   []designs.Design
	mods []*llhd.Module
	cds  []*llhd.CompiledDesign
	// byInterp[i] is the interpreter's outcome on design i, the
	// reference for its blaze jobs; byBlaze[i] is blaze's, the reference
	// for its interpreter jobs.
	byInterp []outcome
	byBlaze  []outcome
}

func newSimBench(ds []designs.Design) (*simBench, error) {
	b := &simBench{ds: ds}
	for _, d := range ds {
		m, err := moore.Compile(d.Name, d.Source)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", d.Name, err)
		}
		m.Freeze()
		cd, err := llhd.CompileBlaze(m, d.Top)
		if err != nil {
			return nil, fmt.Errorf("%s: blaze compile: %w", d.Name, err)
		}
		ri, err := simulate(scope{}, interpEngine, llhd.FromModule(m), llhd.Top(d.Top))
		if err != nil {
			return nil, fmt.Errorf("%s: interpreter reference: %w", d.Name, err)
		}
		rb, err := simulate(scope{}, blazeEngine, llhd.FromCompiled(cd))
		if err != nil {
			return nil, fmt.Errorf("%s: blaze reference: %w", d.Name, err)
		}
		b.mods = append(b.mods, m)
		b.cds = append(b.cds, cd)
		b.byInterp = append(b.byInterp, ri)
		b.byBlaze = append(b.byBlaze, rb)
	}
	return b, nil
}

// jobs is two per design: job 2i runs design i on blaze, job 2i+1 on
// the interpreter.
func (b *simBench) jobs() int { return 2 * len(b.ds) }
func (b *simBench) close()    {}

func (b *simBench) sweep(order []int, sc scope, tl *tally) {
	for _, j := range order {
		i := j / 2
		d := b.ds[i]
		js := sc.jobSpan(j, d.Name)
		var out outcome
		var err error
		if j%2 == 0 {
			out, err = simulate(js, blazeEngine, llhd.FromCompiled(b.cds[i]))
			if err == nil {
				err = out.check(b.byInterp[i])
			}
		} else {
			out, err = simulate(js, interpEngine, llhd.FromModule(b.mods[i]), llhd.Top(d.Top))
			if err == nil {
				err = out.check(b.byBlaze[i])
			}
		}
		js.end(0, 0)
		tl.add(sc.sweep, "sim.deltas", int64(out.deltas))
		tl.add(sc.sweep, "sim.events", int64(out.events))
		tl.job(d.Name, err)
	}
}
