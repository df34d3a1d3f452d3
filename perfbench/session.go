package main

import (
	"fmt"

	"llhd"
	"llhd/internal/val"
)

// digest folds an observer stream into a 64-bit FNV-1a hash of every
// (time, signal name, value) change, in delivery order. Two engines
// agree delta-exactly on a design iff their digests match (up to hash
// collisions).
type digest struct{ h uint64 }

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func newDigest() *digest { return &digest{h: fnvOffset} }

func (d *digest) u64(x uint64) {
	for i := 0; i < 8; i++ {
		d.h ^= x & 0xff
		d.h *= fnvPrime
		x >>= 8
	}
}

func (d *digest) str(s string) {
	for i := 0; i < len(s); i++ {
		d.h ^= uint64(s[i])
		d.h *= fnvPrime
	}
	d.u64(uint64(len(s)))
}

// OnChange implements llhd.Observer. Two-state integers and times are
// hashed from their fields; nine-valued logic and aggregates through
// their printed form.
func (d *digest) OnChange(t llhd.Time, sig *llhd.Signal, v llhd.Value) {
	d.u64(uint64(t.Fs))
	d.u64(uint64(t.Delta))
	d.u64(uint64(t.Eps))
	d.str(sig.Name)
	switch v.Kind {
	case val.KindInt:
		d.u64(uint64(v.Width))
		d.u64(v.Bits)
	case val.KindTime:
		d.u64(uint64(v.T.Fs))
		d.u64(uint64(v.T.Delta))
		d.u64(uint64(v.T.Eps))
	default:
		d.str(v.String())
	}
}

// outcome is what one simulation produced: the trace digest and the
// counters that must repeat exactly.
type outcome struct {
	digest uint64
	deltas int
	events int
}

// engineSpec names an engine and the spans its session construction and
// run are recorded under.
type engineSpec struct {
	kind    llhd.EngineKind
	newSpan string
	runSpan string
}

var (
	blazeEngine  = engineSpec{llhd.Blaze, "session.new.blaze", "run.blaze"}
	interpEngine = engineSpec{llhd.Interp, "session.new.interp", "run.interp"}
)

// simulate builds a session on eng, runs it to quiescence and returns
// its outcome. A run error or a failed testbench assertion is an error.
func simulate(sc scope, eng engineSpec, opts ...llhd.SessionOption) (outcome, error) {
	dg := newDigest()
	opts = append(opts, llhd.WithObserver(dg))
	if eng.kind == llhd.Interp {
		opts = append(opts, llhd.Backend(llhd.Interp))
	}
	ns := sc.child(eng.newSpan)
	s, err := llhd.NewSession(opts...)
	ns.end(0, 0)
	if err != nil {
		return outcome{}, fmt.Errorf("%v session: %w", eng.kind, err)
	}
	rs := sc.child(eng.runSpan)
	var a0 int64
	if rs.traced() {
		a0 = heapObjects()
	}
	err = s.Run()
	st := s.Finish()
	var allocs int64
	if rs.traced() {
		allocs = heapObjects() - a0
	}
	rs.end(int64(st.DeltaSteps), allocs)
	if err != nil {
		return outcome{}, fmt.Errorf("%v run: %w", eng.kind, err)
	}
	if st.AssertionFailures != 0 {
		return outcome{}, fmt.Errorf("%v run: %d testbench assertion failures", eng.kind, st.AssertionFailures)
	}
	return outcome{digest: dg.h, deltas: st.DeltaSteps, events: st.Events}, nil
}

// check compares a job's outcome with the reference computed by the
// other engine during setup.
func (o outcome) check(ref outcome) error {
	switch {
	case o.digest != ref.digest:
		return fmt.Errorf("trace digest %016x differs from the reference %016x", o.digest, ref.digest)
	case o.deltas != ref.deltas:
		return fmt.Errorf("%d delta steps, reference %d", o.deltas, ref.deltas)
	case o.events != ref.events:
		return fmt.Errorf("%d events, reference %d", o.events, ref.events)
	}
	return nil
}

// countInsts returns the number of instructions in the module.
func countInsts(m *llhd.Module) int64 {
	n := 0
	for _, u := range m.Units {
		n += u.NumInsts()
	}
	return int64(n)
}
