package pass

import (
	"strings"
	"testing"

	"llhd/internal/assembly"
	"llhd/internal/ir"
)

func TestConstantFoldArithmetic(t *testing.T) {
	src := `
func @f () i32 {
 entry:
  %a = const i32 6
  %b = const i32 7
  %c = mul i32 %a, %b
  %d = add i32 %c, %a
  ret i32 %d
}
`
	m := assembly.MustParse("m", src)
	mustRun(t, ConstantFold(), m)
	mustRun(t, DCE(), m)
	f := m.Unit("f")
	var ret *ir.Inst
	f.ForEachInst(func(_ *ir.Block, in *ir.Inst) {
		if in.Op == ir.OpRet {
			ret = in
		}
	})
	k, ok := ret.Args[0].(*ir.Inst)
	if !ok || k.Op != ir.OpConstInt || k.IVal != 48 {
		t.Errorf("folded return = %v, want const 48", ret.Args[0])
	}
	// Everything else is dead.
	if n := f.NumInsts(); n != 2 {
		t.Errorf("%d instructions after fold+DCE, want 2 (const, ret)", n)
	}
}

func TestConstantFoldBranch(t *testing.T) {
	src := `
func @f () i32 {
 entry:
  %t = const i1 1
  %a = const i32 1
  %b = const i32 2
  br %t, %no, %yes
 yes:
  ret i32 %a
 no:
  ret i32 %b
}
`
	m := assembly.MustParse("m", src)
	mustRun(t, ConstantFold(), m)
	f := m.Unit("f")
	if len(f.Blocks) != 2 {
		t.Errorf("%d blocks after branch folding, want 2", len(f.Blocks))
	}
	term := f.Entry().Terminator()
	if term.Op != ir.OpBr || len(term.Dests) != 1 || term.Dests[0].ValueName() != "yes" {
		t.Errorf("entry terminator not folded to the taken branch")
	}
}

func TestCSEDedupes(t *testing.T) {
	src := `
func @f (i32 %x, i32 %y) i32 {
 entry:
  %a = add i32 %x, %y
  %b = add i32 %x, %y
  %c = add i32 %a, %b
  ret i32 %c
}
`
	m := assembly.MustParse("m", src)
	mustRun(t, CSE(), m)
	f := m.Unit("f")
	adds := 0
	f.ForEachInst(func(_ *ir.Block, in *ir.Inst) {
		if in.Op == ir.OpAdd {
			adds++
		}
	})
	if adds != 2 {
		t.Errorf("%d adds after CSE, want 2 (one deduped)", adds)
	}
}

func TestCSECommutative(t *testing.T) {
	src := `
func @f (i32 %x, i32 %y) i32 {
 entry:
  %a = add i32 %x, %y
  %b = add i32 %y, %x
  %c = sub i32 %a, %b
  ret i32 %c
}
`
	m := assembly.MustParse("m", src)
	mustRun(t, CSE(), m)
	adds := 0
	m.Unit("f").ForEachInst(func(_ *ir.Block, in *ir.Inst) {
		if in.Op == ir.OpAdd {
			adds++
		}
	})
	if adds != 1 {
		t.Errorf("%d adds after CSE, want 1 (commutative dedupe)", adds)
	}
}

func TestSimplifyIdentities(t *testing.T) {
	src := `
func @f (i32 %x, i1 %b) i32 {
 entry:
  %zero = const i32 0
  %one = const i1 1
  %a = add i32 %x, %zero
  %c = and i1 %b, %one
  %n = not i1 %c
  %nn = not i1 %n
  %m = mul i32 %a, %a
  ret i32 %m
}
`
	m := assembly.MustParse("m", src)
	mustRun(t, InstSimplify(), m)
	mustRun(t, DCE(), m)
	f := m.Unit("f")
	// add x,0 folds to x; and b,1 folds to b; not(not b) folds to b.
	f.ForEachInst(func(_ *ir.Block, in *ir.Inst) {
		switch in.Op {
		case ir.OpAdd, ir.OpAnd, ir.OpNot:
			t.Errorf("%s survived simplification", in.Op)
		}
	})
}

func TestInlineCall(t *testing.T) {
	src := `
func @double (i32 %x) i32 {
 entry:
  %two = const i32 2
  %r = mul i32 %x, %two
  ret i32 %r
}
func @f (i32 %a) i32 {
 entry:
  %d = call i32 @double (i32 %a)
  %e = add i32 %d, %a
  ret i32 %e
}
`
	m := assembly.MustParse("m", src)
	mustRun(t, Inline(), m)
	f := m.Unit("f")
	calls := 0
	f.ForEachInst(func(_ *ir.Block, in *ir.Inst) {
		if in.Op == ir.OpCall {
			calls++
		}
	})
	if calls != 0 {
		t.Errorf("%d calls after inlining, want 0", calls)
	}
	if err := ir.VerifyUnit(f, ir.Behavioural); err != nil {
		t.Errorf("inlined function invalid: %v", err)
	}
	// Semantics preserved: fold should reduce f(a) for constant a.
	src2 := assembly.StringUnit(f)
	if !strings.Contains(src2, "mul") {
		t.Errorf("inlined body lost the multiply:\n%s", src2)
	}
}

func TestInlineKeepsIntrinsics(t *testing.T) {
	src := `
proc @p (i1$ %s) -> () {
 entry:
  %v = prb i1$ %s
  call void @llhd.assert (i1 %v)
  halt
}
`
	m := assembly.MustParse("m", src)
	changed := mustRun(t, Inline(), m)
	if changed {
		t.Error("inline claimed to change a module with only intrinsics")
	}
	calls := 0
	m.Unit("p").ForEachInst(func(_ *ir.Block, in *ir.Inst) {
		if in.Op == ir.OpCall {
			calls++
		}
	})
	if calls != 1 {
		t.Errorf("intrinsic call count = %d, want 1", calls)
	}
}

func TestInlineSkipsRecursion(t *testing.T) {
	src := `
func @fact (i32 %n) i32 {
 entry:
  %one = const i32 1
  %base = ule i32 %n, %one
  br %base, %rec, %done
 done:
  ret i32 %one
 rec:
  %nm1 = sub i32 %n, %one
  %s = call i32 @fact (i32 %nm1)
  %r = mul i32 %n, %s
  ret i32 %r
}
func @f (i32 %a) i32 {
 entry:
  %r = call i32 @fact (i32 %a)
  ret i32 %r
}
`
	m := assembly.MustParse("m", src)
	mustRun(t, Inline(), m)
	// @f's call to the recursive @fact must remain.
	calls := 0
	m.Unit("f").ForEachInst(func(_ *ir.Block, in *ir.Inst) {
		if in.Op == ir.OpCall {
			calls++
		}
	})
	if calls != 1 {
		t.Errorf("recursive callee was inlined (%d calls)", calls)
	}
}

func TestMem2RegStraightLine(t *testing.T) {
	src := `
func @f (i32 %x) i32 {
 entry:
  %init = const i32 5
  %v = var i32 %init
  st i32* %v, %x
  %r = ld i32* %v
  ret i32 %r
}
`
	m := assembly.MustParse("m", src)
	mustRun(t, Mem2Reg(), m)
	f := m.Unit("f")
	f.ForEachInst(func(_ *ir.Block, in *ir.Inst) {
		switch in.Op {
		case ir.OpVar, ir.OpLd, ir.OpSt:
			t.Errorf("%s survived promotion", in.Op)
		}
	})
	var ret *ir.Inst
	f.ForEachInst(func(_ *ir.Block, in *ir.Inst) {
		if in.Op == ir.OpRet {
			ret = in
		}
	})
	if ret.Args[0] != f.Inputs[0] {
		t.Errorf("load forwarded to %v, want the stored argument", ret.Args[0])
	}
}

func TestMem2RegLoop(t *testing.T) {
	// Sum 0..9 through a promoted loop variable.
	src := `
func @f () i32 {
 entry:
  %zero = const i32 0
  %one = const i32 1
  %ten = const i32 10
  %i = var i32 %zero
  %acc = var i32 %zero
  br %loop
 loop:
  %iv = ld i32* %i
  %av = ld i32* %acc
  %an = add i32 %av, %iv
  st i32* %acc, %an
  %in = add i32 %iv, %one
  st i32* %i, %in
  %c = ult i32 %in, %ten
  br %c, %done, %loop
 done:
  %r = ld i32* %acc
  ret i32 %r
}
`
	m := assembly.MustParse("m", src)
	mustRun(t, Mem2Reg(), m)
	mustRun(t, InstSimplify(), m)
	mustRun(t, DCE(), m)
	f := m.Unit("f")
	f.ForEachInst(func(_ *ir.Block, in *ir.Inst) {
		switch in.Op {
		case ir.OpVar, ir.OpLd, ir.OpSt:
			t.Errorf("%s survived promotion", in.Op)
		}
	})
	if err := ir.VerifyUnit(f, ir.Behavioural); err != nil {
		t.Fatalf("promoted loop invalid: %v\n%s", err, assembly.StringUnit(f))
	}
	// Phis must exist for the loop-carried values.
	phis := 0
	f.ForEachInst(func(_ *ir.Block, in *ir.Inst) {
		if in.Op == ir.OpPhi {
			phis++
		}
	})
	if phis < 2 {
		t.Errorf("%d phis after promotion, want >= 2 (i and acc)", phis)
	}
}

func TestPipelineNames(t *testing.T) {
	names := LoweringPipeline().Names()
	wantOrder := []string{"inline", "mem2reg", "ecm", "tcm", "tcfe",
		"process-lowering", "deseq", "inline-entities", "signal-forwarding"}
	pos := -1
	for _, w := range wantOrder {
		found := -1
		for i, n := range names {
			if n == w && i > pos {
				found = i
				break
			}
		}
		if found < 0 {
			t.Errorf("pass %q missing or out of order in pipeline %v", w, names)
			continue
		}
		pos = found
	}
}

func TestLoweredModuleVerifiesStructural(t *testing.T) {
	m := parseAcc(t)
	if err := Lower(m, ir.Structural); err != nil {
		t.Fatalf("Lower: %v", err)
	}
	if got := ir.LevelOf(m); got != ir.Structural && got != ir.Netlist {
		t.Errorf("lowered module level = %v, want structural or below", got)
	}
}

func TestLowerRejectsTestbench(t *testing.T) {
	// A process with a timed wait has no structural equivalent; Lower
	// must report the verification failure rather than mangle it.
	src := `
proc @tb () -> (i1$ %clk) {
 entry:
  %b1 = const i1 1
  %d = const time 1ns
  drv i1$ %clk, %b1 after %d
  wait %entry for %d
}
`
	m := assembly.MustParse("m", src)
	if err := Lower(m, ir.Structural); err == nil {
		t.Error("Lower accepted a timed testbench process")
	}
}

// flipPass is a test-only pass that sets one shared flag to its value and
// reports a change whenever the flag held the other value.
type flipPass struct {
	name string
	flag *bool
	to   bool
}

func (p *flipPass) Name() string { return p.name }

func (p *flipPass) Run(*ir.Module) (bool, error) {
	if *p.flag == p.to {
		return false, nil
	}
	*p.flag = p.to
	return true, nil
}

// TestRunFixpointFailsAtLimit pins loud non-convergence: two passes that
// undo each other every round make RunFixpoint return an error naming the
// limit and both passes, not the pass that stayed quiet.
func TestRunFixpointFailsAtLimit(t *testing.T) {
	flag := false
	pl := &Pipeline{Passes: []Pass{
		&flipPass{name: "set", flag: &flag, to: true},
		DCE(),
		&flipPass{name: "clear", flag: &flag, to: false},
	}}
	err := pl.RunFixpoint(ir.NewModule("m"), 5)
	if err == nil {
		t.Fatal("RunFixpoint returned nil for an oscillating pipeline")
	}
	msg := err.Error()
	if !strings.Contains(msg, "5 rounds") || !strings.Contains(msg, "set, clear") || strings.Contains(msg, "dce") {
		t.Errorf("error %q should name the limit 5 and exactly the passes set and clear", msg)
	}
}

// TestRunFixpointConverges checks the other side of the limit: a pipeline
// whose second round changes nothing converges at limit 2, and fails at
// limit 1, where the last permitted round still changed the module.
func TestRunFixpointConverges(t *testing.T) {
	for _, tc := range []struct {
		limit int
		ok    bool
	}{{1, false}, {2, true}} {
		flag := false
		pl := &Pipeline{Passes: []Pass{&flipPass{name: "set", flag: &flag, to: true}}}
		if err := pl.RunFixpoint(ir.NewModule("m"), tc.limit); (err == nil) != tc.ok {
			t.Errorf("limit %d: err = %v, want converged = %v", tc.limit, err, tc.ok)
		}
	}
}
