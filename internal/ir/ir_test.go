package ir

import (
	"testing"
	"testing/quick"
)

func TestTypeInterning(t *testing.T) {
	if IntType(32) != IntType(32) {
		t.Error("IntType(32) not interned")
	}
	if IntType(32) == IntType(16) {
		t.Error("distinct widths interned to the same type")
	}
	if SignalType(IntType(8)) != SignalType(IntType(8)) {
		t.Error("signal types not interned")
	}
	if PointerType(IntType(8)) == SignalType(IntType(8)) {
		t.Error("pointer and signal types conflated")
	}
	st := StructType(IntType(1), TimeType())
	if st != StructType(IntType(1), TimeType()) {
		t.Error("struct types not interned")
	}
	if ArrayType(4, IntType(8)) != ArrayType(4, IntType(8)) {
		t.Error("array types not interned")
	}
	if ArrayType(4, IntType(8)) == ArrayType(5, IntType(8)) {
		t.Error("array lengths conflated")
	}
}

func TestTypeStrings(t *testing.T) {
	cases := []struct {
		ty   *Type
		want string
	}{
		{VoidType(), "void"},
		{TimeType(), "time"},
		{IntType(1), "i1"},
		{IntType(32), "i32"},
		{EnumType(4), "n4"},
		{LogicType(9), "l9"},
		{PointerType(IntType(32)), "i32*"},
		{SignalType(IntType(1)), "i1$"},
		{ArrayType(4, IntType(8)), "[4 x i8]"},
		{StructType(IntType(32), TimeType()), "{i32, time}"},
		{SignalType(ArrayType(2, IntType(16))), "[2 x i16]$"},
	}
	for _, c := range cases {
		if got := c.ty.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestTypePredicates(t *testing.T) {
	if !IntType(1).IsBool() || IntType(2).IsBool() {
		t.Error("IsBool wrong")
	}
	if !SignalType(IntType(4)).IsSignal() {
		t.Error("IsSignal wrong")
	}
	if !ArrayType(3, IntType(1)).IsAggregate() || !StructType().IsAggregate() {
		t.Error("IsAggregate wrong")
	}
}

func TestBitWidth(t *testing.T) {
	cases := []struct {
		ty   *Type
		want int
	}{
		{IntType(13), 13},
		{LogicType(9), 9},
		{EnumType(4), 2},
		{EnumType(5), 3},
		{EnumType(1), 1},
		{ArrayType(4, IntType(8)), 32},
		{StructType(IntType(3), IntType(5)), 8},
		{VoidType(), 0},
	}
	for _, c := range cases {
		if got := c.ty.BitWidth(); got != c.want {
			t.Errorf("%s.BitWidth() = %d, want %d", c.ty, got, c.want)
		}
	}
}

func TestTimeArithmetic(t *testing.T) {
	a := Nanoseconds(2)
	b := Time{Delta: 1}
	if got := a.Add(b); got != (Time{Fs: 2 * Nanosecond, Delta: 1}) {
		t.Errorf("2ns + 1d = %v", got)
	}
	// Adding physical time resets delta.
	c := Time{Fs: Nanosecond, Delta: 3}
	if got := c.Add(Nanoseconds(1)); got != (Time{Fs: 2 * Nanosecond}) {
		t.Errorf("1ns3d + 1ns = %v", got)
	}
	if !a.Before(Time{Fs: 2 * Nanosecond, Delta: 1}) {
		t.Error("delta ordering broken")
	}
	if Nanoseconds(1).Compare(Nanoseconds(1)) != 0 {
		t.Error("equal times not equal")
	}
}

func TestTimeStringRoundTrip(t *testing.T) {
	cases := []Time{
		{},
		Nanoseconds(1),
		Picoseconds(250),
		{Fs: 1500}, // 1500 fs: no coarser unit divides it
		{Fs: Nanosecond, Delta: 2},
		{Fs: 0, Delta: 1, Eps: 3},
	}
	for _, c := range cases {
		s := c.String()
		got, err := ParseTime(s)
		if err != nil {
			t.Fatalf("ParseTime(%q): %v", s, err)
		}
		if got != c {
			t.Errorf("round trip %v -> %q -> %v", c, s, got)
		}
	}
}

func TestParseTimeErrors(t *testing.T) {
	for _, s := range []string{"", "abc", "1", "1xs", "1ns 2q"} {
		if _, err := ParseTime(s); err == nil {
			t.Errorf("ParseTime(%q) unexpectedly succeeded", s)
		}
	}
}

func TestTimeCompareProperties(t *testing.T) {
	// Compare must be antisymmetric and consistent with Add monotonicity.
	f := func(aFs, bFs uint16, aD, bD uint8) bool {
		a := Time{Fs: int64(aFs), Delta: int(aD)}
		b := Time{Fs: int64(bFs), Delta: int(bD)}
		if a.Compare(b) != -b.Compare(a) {
			return false
		}
		// Adding the same physical time preserves order of Fs-only times.
		if a.Delta == 0 && b.Delta == 0 {
			d := Nanoseconds(1)
			if a.Compare(b) != a.Add(d).Compare(b.Add(d)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMaskAndSignExtend(t *testing.T) {
	if MaskWidth(0xff, 4) != 0xf {
		t.Error("MaskWidth wrong")
	}
	if MaskWidth(0x1234, 64) != 0x1234 {
		t.Error("MaskWidth at 64 must be identity")
	}
	if SignExtend(0xf, 4) != -1 {
		t.Error("SignExtend negative wrong")
	}
	if SignExtend(0x7, 4) != 7 {
		t.Error("SignExtend positive wrong")
	}
	if SignExtend(0x80, 8) != -128 {
		t.Error("SignExtend boundary wrong")
	}
}

func TestSignExtendProperty(t *testing.T) {
	f := func(v uint32, wRaw uint8) bool {
		w := int(wRaw%63) + 1
		masked := MaskWidth(uint64(v), w)
		se := SignExtend(masked, w)
		// Re-masking the sign-extended value must give back the original.
		return MaskWidth(uint64(se), w) == masked
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// buildCounterProc constructs a small process with a loop for CFG tests.
func buildCounterProc(t *testing.T) *Unit {
	t.Helper()
	u := NewUnit(UnitProc, "counter")
	clk := u.AddInput("clk", SignalType(IntType(1)))
	q := u.AddOutput("q", SignalType(IntType(8)))
	b := NewBuilder(u)

	entry := u.AddBlock("entry")
	loop := u.AddBlock("loop")
	b.SetBlock(entry)
	zero := b.ConstInt(IntType(8), 0)
	one := b.ConstInt(IntType(8), 1)
	del := b.ConstTime(Nanoseconds(1))
	b.Br(loop)
	b.SetBlock(loop)
	phi := b.Phi(IntType(8), []Value{zero, nil}, []*Block{entry, loop})
	next := b.Add(phi, one)
	phi.Args[1] = next
	b.Drv(q, next, del, nil)
	b.Wait(loop, nil, clk)
	return u
}

func TestBuilderAndVerify(t *testing.T) {
	m := NewModule("test")
	u := buildCounterProc(t)
	// Remove the synthetic empty first block created before entry? NewUnit
	// for proc has no blocks, so entry is Blocks[0]. Just verify.
	m.MustAdd(u)
	if err := Verify(m, Behavioural); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if err := Verify(m, Structural); err == nil {
		t.Error("process verified at structural level; want error")
	}
}

func TestVerifyCatchesMissingTerminator(t *testing.T) {
	m := NewModule("test")
	u := NewUnit(UnitFunc, "f")
	u.RetType = VoidType()
	b := NewBuilder(u)
	blk := u.AddBlock("entry")
	b.SetBlock(blk)
	b.ConstInt(IntType(8), 1) // no terminator
	m.MustAdd(u)
	if err := Verify(m, Behavioural); err == nil {
		t.Error("missing terminator not caught")
	}
}

func TestVerifyCatchesSignalOpsInFunc(t *testing.T) {
	m := NewModule("test")
	u := NewUnit(UnitFunc, "f")
	sig := u.AddInput("s", SignalType(IntType(1)))
	b := NewBuilder(u)
	blk := u.AddBlock("entry")
	b.SetBlock(blk)
	b.Prb(sig)
	b.Ret(nil)
	m.MustAdd(u)
	if err := Verify(m, Behavioural); err == nil {
		t.Error("prb in function not caught")
	}
}

func TestVerifyCatchesRetInProcess(t *testing.T) {
	m := NewModule("test")
	u := NewUnit(UnitProc, "p")
	b := NewBuilder(u)
	blk := u.AddBlock("entry")
	b.SetBlock(blk)
	b.Ret(nil)
	m.MustAdd(u)
	if err := Verify(m, Behavioural); err == nil {
		t.Error("ret in process not caught")
	}
}

func TestEntityLevels(t *testing.T) {
	m := NewModule("test")
	u := NewUnit(UnitEntity, "top")
	b := NewBuilder(u)
	zero := b.ConstInt(IntType(1), 0)
	b.Sig(zero)
	m.MustAdd(u)
	if err := Verify(m, Netlist); err != nil {
		t.Fatalf("sig entity should be netlist level: %v", err)
	}
	if got := LevelOf(m); got != Netlist {
		t.Errorf("LevelOf = %v, want netlist", got)
	}

	// Adding an add instruction pushes it to structural.
	one := b.ConstInt(IntType(1), 1)
	b.Add(zero, one)
	if err := Verify(m, Netlist); err == nil {
		t.Error("add verified at netlist level; want error")
	}
	if err := Verify(m, Structural); err != nil {
		t.Errorf("add entity should be structural: %v", err)
	}
	if got := LevelOf(m); got != Structural {
		t.Errorf("LevelOf = %v, want structural", got)
	}
}

func TestLevelContains(t *testing.T) {
	// Netlist ⊂ Structural ⊂ Behavioural (§2.2).
	if !Behavioural.Contains(Netlist) || !Behavioural.Contains(Structural) {
		t.Error("behavioural must contain the lower levels")
	}
	if !Structural.Contains(Netlist) {
		t.Error("structural must contain netlist")
	}
	if Netlist.Contains(Structural) || Netlist.Contains(Behavioural) {
		t.Error("netlist must not contain higher levels")
	}
}

func TestUsesAndReplace(t *testing.T) {
	u := buildCounterProc(t)
	var phi, add *Inst
	u.ForEachInst(func(_ *Block, in *Inst) {
		switch in.Op {
		case OpPhi:
			phi = in
		case OpAdd:
			add = in
		}
	})
	uses := u.Uses()
	if len(uses[phi]) != 1 || uses[phi][0] != add {
		t.Fatalf("uses of phi = %v, want [add]", uses[phi])
	}
	// Replace the phi by a constant everywhere.
	b := NewBuilder(u)
	b.SetBlock(u.Entry())
	k := &Inst{Op: OpConstInt, Ty: IntType(8), IVal: 7}
	u.Entry().InsertBefore(k, u.Entry().Insts[0])
	n := u.ReplaceAllUses(phi, k)
	if n != 1 {
		t.Errorf("ReplaceAllUses = %d, want 1", n)
	}
	if add.Args[0] != k {
		t.Error("add operand not rewritten")
	}
}

func TestReplaceUsesFollowsChains(t *testing.T) {
	u := NewUnit(UnitEntity, "e")
	body := u.Body()
	k := func() *Inst {
		in := &Inst{Op: OpConstInt, Ty: IntType(1)}
		body.Append(in)
		return in
	}
	a, b, c := k(), k(), k()
	wait := &Inst{Op: OpWait, Args: []Value{a, b}, TimeArg: a}
	reg := &Inst{Op: OpReg, Args: []Value{a}, Delay: a, Triggers: []RegTrigger{
		{Value: a, Trigger: a, Gate: a},
		{Value: b, Trigger: a},
	}}
	body.Append(wait)
	body.Append(reg)

	// a→b→c: every use of a or b ends at c.
	n := u.ReplaceUses(map[Value]Value{a: b, b: c})
	if n != 10 {
		t.Errorf("ReplaceUses = %d, want 10", n)
	}
	for i, v := range []Value{
		wait.Args[0], wait.Args[1], wait.TimeArg,
		reg.Args[0], reg.Delay,
		reg.Triggers[0].Value, reg.Triggers[0].Trigger, reg.Triggers[0].Gate,
		reg.Triggers[1].Value, reg.Triggers[1].Trigger,
	} {
		if v != c {
			t.Errorf("operand %d = %v, want c", i, v)
		}
	}
	if reg.Triggers[1].Gate != nil {
		t.Error("absent gate was filled in")
	}
	if got := Resolve(map[Value]Value{a: b, b: c}, a); got != c {
		t.Errorf("Resolve(a) = %v, want c", got)
	}
}

func TestUsesListsEachUserOnce(t *testing.T) {
	u := NewUnit(UnitFunc, "f")
	x := u.AddInput("x", IntType(8))
	b := NewBuilder(u)
	b.SetBlock(u.AddBlock("entry"))
	sq := b.Add(x, x)
	other := b.Add(sq, x)
	uses := u.Uses()
	if got := uses[x]; len(got) != 2 || got[0] != sq || got[1] != other {
		t.Errorf("uses of x = %v, want [sq other]", got)
	}
	if got := uses[sq]; len(got) != 1 || got[0] != other {
		t.Errorf("uses of sq = %v, want [other]", got)
	}
}

func TestRemoveIf(t *testing.T) {
	u := NewUnit(UnitEntity, "e")
	body := u.Body()
	var insts []*Inst
	for i := 0; i < 4; i++ {
		in := &Inst{Op: OpConstInt, Ty: IntType(8), IVal: uint64(i)}
		body.Append(in)
		insts = append(insts, in)
	}
	var order []uint64
	n := body.RemoveIf(func(in *Inst) bool {
		order = append(order, in.IVal)
		return in.IVal%2 == 1
	})
	if n != 2 || len(body.Insts) != 2 || body.Insts[0] != insts[0] || body.Insts[1] != insts[2] {
		t.Fatalf("RemoveIf = %d, left %v", n, body.Insts)
	}
	if len(order) != 4 || order[0] != 0 || order[3] != 3 {
		t.Errorf("drop saw %v, want every instruction in order", order)
	}
	if insts[1].Block() != nil || insts[0].Block() != body {
		t.Error("removed instructions must be detached, kept ones not")
	}
}

func TestDomTree(t *testing.T) {
	//      entry
	//      /   \
	//     a     b
	//      \   /
	//       join -> exit
	u := NewUnit(UnitFunc, "f")
	cond := u.AddInput("c", IntType(1))
	b := NewBuilder(u)
	entry := u.AddBlock("entry")
	ba := u.AddBlock("a")
	bb := u.AddBlock("b")
	join := u.AddBlock("join")
	exit := u.AddBlock("exit")
	b.SetBlock(entry)
	b.BrCond(cond, ba, bb)
	b.SetBlock(ba)
	b.Br(join)
	b.SetBlock(bb)
	b.Br(join)
	b.SetBlock(join)
	b.Br(exit)
	b.SetBlock(exit)
	b.Ret(nil)

	dt := NewDomTree(u)
	if dt.IDom(join) != entry {
		t.Errorf("idom(join) = %v, want entry", dt.IDom(join))
	}
	if dt.IDom(ba) != entry || dt.IDom(bb) != entry {
		t.Error("idom of branches should be entry")
	}
	if dt.IDom(exit) != join {
		t.Errorf("idom(exit) = %v, want join", dt.IDom(exit))
	}
	if !dt.Dominates(entry, exit) {
		t.Error("entry must dominate exit")
	}
	if dt.Dominates(ba, join) {
		t.Error("a must not dominate join")
	}
	if got := dt.CommonDominator(ba, bb); got != entry {
		t.Errorf("common dominator = %v, want entry", got)
	}
}

func TestModuleLink(t *testing.T) {
	m1 := NewModule("a")
	m1.MustAdd(NewUnit(UnitEntity, "top"))
	m2 := NewModule("b")
	m2.MustAdd(NewUnit(UnitEntity, "sub"))
	if err := m1.Link(m2); err != nil {
		t.Fatalf("Link: %v", err)
	}
	if m1.Unit("sub") == nil {
		t.Error("linked unit not found")
	}
	m3 := NewModule("c")
	m3.MustAdd(NewUnit(UnitEntity, "top"))
	if err := m1.Link(m3); err == nil {
		t.Error("duplicate link not rejected")
	}
}

func TestModuleDuplicate(t *testing.T) {
	m := NewModule("test")
	m.MustAdd(NewUnit(UnitEntity, "x"))
	if err := m.Add(NewUnit(UnitProc, "x")); err == nil {
		t.Error("duplicate global name not rejected")
	}
}

func TestInstCloneDetached(t *testing.T) {
	u := buildCounterProc(t)
	orig := u.Entry().Insts[0]
	cp := orig.Clone()
	if cp.Block() != nil {
		t.Error("clone should be detached")
	}
	cp.Args = append(cp.Args, nil)
	if len(orig.Args) == len(cp.Args) {
		t.Error("clone shares Args slice")
	}
}

func TestMemFootprintGrowth(t *testing.T) {
	m := NewModule("test")
	base := m.MemFootprint()
	m.MustAdd(buildCounterProc(t))
	if m.MemFootprint() <= base {
		t.Error("footprint must grow when units are added")
	}
}

func TestBlockInsertRemove(t *testing.T) {
	u := NewUnit(UnitEntity, "e")
	b := NewBuilder(u)
	k1 := b.ConstInt(IntType(8), 1)
	k2 := b.ConstInt(IntType(8), 2)
	body := u.Body()
	k0 := &Inst{Op: OpConstInt, Ty: IntType(8), IVal: 0}
	body.InsertBefore(k0, k1)
	if body.Insts[0] != k0 {
		t.Error("InsertBefore did not prepend")
	}
	if body.Index(k2) != 2 {
		t.Errorf("Index(k2) = %d, want 2", body.Index(k2))
	}
	body.Remove(k1)
	if body.Index(k1) != -1 || len(body.Insts) != 2 {
		t.Error("Remove failed")
	}
}
