package ir

import "testing"

// freezeFixture builds a small module with an entity, a process, and a
// function, mirroring the unit mix of a real elaborated design.
func freezeFixture() (*Module, *Unit, *Unit) {
	m := NewModule("frozen")
	ent := NewUnit(UnitEntity, "top")
	ent.AddInput("a", SignalType(IntType(8)))
	ent.AddOutput("q", SignalType(IntType(8)))
	b := NewBuilder(ent)
	k := b.ConstInt(IntType(8), 7)
	b.Drv(ent.Outputs[0], k, b.ConstTime(Time{}), nil)
	m.MustAdd(ent)

	fn := NewUnit(UnitFunc, "helper")
	fn.RetType = IntType(8)
	fn.AddInput("x", IntType(8))
	fn.AddBlock("entry")
	fb := NewBuilder(fn)
	fb.Ret(fn.Inputs[0])
	m.MustAdd(fn)
	return m, ent, fn
}

func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s on a frozen module must panic", what)
		}
	}()
	f()
}

// TestFreezeSealsNumbering checks that Freeze materializes every unit's
// numbering eagerly and that subsequent Numbering calls are pure reads
// returning the identical cached object with stable IDs.
func TestFreezeSealsNumbering(t *testing.T) {
	m, ent, fn := freezeFixture()
	if m.Frozen() || ent.Frozen() {
		t.Fatal("fresh module must not be frozen")
	}
	m.Freeze()
	if !m.Frozen() || !ent.Frozen() || !fn.Frozen() {
		t.Fatal("Freeze must mark the module and every unit")
	}
	// Idempotent, and the cache is stable across calls.
	m.Freeze()
	n1, n2 := ent.Numbering(), ent.Numbering()
	if n1 != n2 {
		t.Error("frozen Numbering must return the cached object")
	}
	for id := 0; id < n1.Len(); id++ {
		if got := ValueID(n1.Value(id)); got != id {
			t.Errorf("ValueID(%v) = %d, want %d", n1.Value(id), got, id)
		}
	}
}

// TestFreezePanicsOnMutation pins the freeze contract: every structural
// mutation entry point panics on a frozen module.
func TestFreezePanicsOnMutation(t *testing.T) {
	m, ent, fn := freezeFixture()
	m.Freeze()

	mustPanic(t, "AddInput", func() { ent.AddInput("late", SignalType(IntType(1))) })
	mustPanic(t, "AddOutput", func() { ent.AddOutput("late", SignalType(IntType(1))) })
	mustPanic(t, "AddBlock", func() { fn.AddBlock("late") })
	mustPanic(t, "Block.Append", func() {
		NewBuilder(ent).ConstInt(IntType(8), 1)
	})
	mustPanic(t, "Block.Remove", func() { ent.Body().Remove(ent.Body().Insts[0]) })
	mustPanic(t, "Module.Add", func() { m.MustAdd(NewUnit(UnitProc, "late")) })
	mustPanic(t, "Module.Remove", func() { m.Remove(fn) })
	mustPanic(t, "Module.Link", func() {
		fresh := NewModule("other")
		_ = fresh.Link(m) // pulls units out of the frozen module
	})
}

// TestUnfrozenModuleKeepsLazyPath pins the numbering contract passes rely
// on: without Freeze, numbering stays lazily computed, mutation is legal,
// and the cache is invalidated and rebuilt correctly afterwards.
func TestUnfrozenModuleKeepsLazyPath(t *testing.T) {
	_, ent, _ := freezeFixture()
	n := ent.Numbering()
	before := n.Len()

	// Structural mutation must invalidate and renumber densely.
	b := NewBuilder(ent)
	k := b.ConstInt(IntType(8), 9)
	n2 := ent.Numbering()
	if n2 == n {
		t.Fatal("mutation must invalidate the cached numbering")
	}
	if n2.Len() != before+1 {
		t.Fatalf("Len after append = %d, want %d", n2.Len(), before+1)
	}
	if got := ValueID(k); got != n2.Len()-1 {
		t.Errorf("new inst ValueID = %d, want %d", got, n2.Len()-1)
	}
	for id := 0; id < n2.Len(); id++ {
		if got := n2.ID(n2.Value(id)); got != id {
			t.Errorf("dense ID mismatch at %d: got %d", id, got)
		}
	}
}

// TestFreezeNumberingSurvivesSpliceCheck is the invalidation regression
// for the frozen fast path: Numbering on a frozen unit must not re-walk
// the unit (the revalidation scan is what made the lazy path unsafe to
// share), yet still agree with a fresh recompute of an identical unit.
func TestFreezeNumberingSurvivesSpliceCheck(t *testing.T) {
	m1, e1, _ := freezeFixture()
	m2, e2, _ := freezeFixture()
	m1.Freeze()
	_ = m2 // left unfrozen: the lazy path recomputes on demand

	nf, nl := e1.Numbering(), e2.Numbering()
	if nf.Len() != nl.Len() {
		t.Fatalf("frozen and lazy numbering disagree: %d vs %d", nf.Len(), nl.Len())
	}
	for id := 0; id < nf.Len(); id++ {
		if nf.Value(id).ValueName() != nl.Value(id).ValueName() {
			t.Errorf("order diverges at %d: %q vs %q",
				id, nf.Value(id).ValueName(), nl.Value(id).ValueName())
		}
	}
}
