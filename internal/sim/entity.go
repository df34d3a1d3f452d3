package sim

import (
	"llhd/internal/engine"
	"llhd/internal/ir"
	"llhd/internal/val"
)

// probed lists, once per signal, every signal an entity body probes (prb
// operands and del sources): the entity's permanent sensitivity (§2.4.3).
func (a *activation) probed() []engine.SigRef {
	var refs []engine.SigRef
	seen := map[*engine.Signal]bool{}
	for _, in := range a.unit.Body().Insts {
		if in.Op != ir.OpPrb && in.Op != ir.OpDel {
			continue
		}
		x := in.Args[0]
		if in.Op == ir.OpDel {
			x = in.Args[1] // del watches its source
		}
		if r, ok := a.sigOf(x); ok && !seen[r.Sig] {
			seen[r.Sig] = true
			refs = append(refs, r)
		}
	}
	return refs
}

// reg implements the reg storage element (§2.5.3): sample every trigger,
// fire the first matching edge/level clause and drive its stored value
// onto the register's signal. The first execution only records the
// baseline samples. Samples live in a dense per-reg history written in
// place, so the steady-state wake path does not allocate.
func (a *activation) reg(e *engine.Engine, in *ir.Inst) error {
	r, err := a.sigRef(in.Args[0])
	if err != nil {
		return err
	}
	cur := a.regScratch[:0]
	for _, tr := range in.Triggers {
		c, err := a.value(tr.Trigger)
		if err != nil {
			return err
		}
		cur = append(cur, c)
	}
	a.regScratch = cur
	id := ir.ValueID(in)
	if a.regPrev == nil {
		a.regPrev = make([][]val.Value, len(a.frame.vals))
	}
	prev := a.regPrev[id]
	if prev == nil {
		a.regPrev[id] = append([]val.Value(nil), cur...)
		return nil
	}
	defer copy(prev, cur)

	delay := ir.Time{}
	if in.Delay != nil {
		d, err := a.value(in.Delay)
		if err != nil {
			return err
		}
		delay = d.T
	}
	for i, tr := range in.Triggers {
		was, now := prev[i].IsTrue(), cur[i].IsTrue()
		fired := false
		switch tr.Mode {
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
		if tr.Gate != nil {
			g, err := a.value(tr.Gate)
			if err != nil {
				return err
			}
			if !g.IsTrue() {
				continue
			}
		}
		v, err := a.value(tr.Value)
		if err != nil {
			return err
		}
		e.Drive(r, v, delay)
		break // first firing trigger wins
	}
	return nil
}

// del implements the transport delay: whenever the source signal
// changes, drive its new value onto the target after the delay. The first
// execution only records the baseline.
func (a *activation) del(e *engine.Engine, in *ir.Inst) error {
	r, err := a.sigRef(in.Args[0])
	if err != nil {
		return err
	}
	src, err := a.sigRef(in.Args[1])
	if err != nil {
		return err
	}
	d, err := a.value(in.Args[2])
	if err != nil {
		return err
	}
	cur := e.Probe(src)
	id := ir.ValueID(in)
	if a.delPrev == nil {
		a.delPrev = make([]val.Value, len(a.frame.vals))
		a.delKnown = make([]bool, len(a.frame.vals))
	}
	switch {
	case !a.delKnown[id]:
		a.delKnown[id] = true
		a.delPrev[id] = cur
	case !cur.Eq(a.delPrev[id]):
		a.delPrev[id] = cur
		e.Drive(r, cur, d.T)
	}
	return nil
}
