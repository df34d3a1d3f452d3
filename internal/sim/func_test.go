package sim

import (
	"testing"

	"llhd/internal/assembly"
	"llhd/internal/ir"
)

// TestFuncNestedCallChain exercises the pooled function frames across a
// three-deep call chain evaluated many times from a process loop: each
// level must get its own frame, and frames released by inner calls must not
// corrupt the callers'.
func TestFuncNestedCallChain(t *testing.T) {
	src := `
entity @top () -> () {
  inst @p () -> ()
}
proc @p () -> () {
 entry:
  %zero = const i32 0
  %one = const i32 1
  %n = const i32 50
  %i = var i32 %zero
  br %loop
 loop:
  %ip = ld i32* %i
  %got = call i32 @outer (i32 %ip)
  ; outer(x) = middle(x)*2 + 1 = (inner(x)+3)*2 + 1 = ((x*x)+3)*2+1
  %sq = mul i32 %ip, %ip
  %three = const i32 3
  %two = const i32 2
  %t0 = add i32 %sq, %three
  %t1 = mul i32 %t0, %two
  %want = add i32 %t1, %one
  %ok = eq i32 %got, %want
  call void @llhd.assert (i1 %ok)
  %in = add i32 %ip, %one
  st i32* %i, %in
  %more = ult i32 %in, %n
  br %more, %end, %loop
 end:
  halt
}
func @outer (i32 %x) i32 {
 entry:
  %m = call i32 @middle (i32 %x)
  %two = const i32 2
  %one = const i32 1
  %d = mul i32 %m, %two
  %r = add i32 %d, %one
  ret i32 %r
}
func @middle (i32 %x) i32 {
 entry:
  %i = call i32 @inner (i32 %x)
  %three = const i32 3
  %r = add i32 %i, %three
  ret i32 %r
}
func @inner (i32 %x) i32 {
 entry:
  %r = mul i32 %x, %x
  ret i32 %r
}
`
	m := assembly.MustParse("m", src)
	s, err := New(m, "top")
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := s.Run(ir.Time{}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if s.Engine.Failures != 0 {
		t.Errorf("%d assertion failures in nested call chain", s.Engine.Failures)
	}
}

// TestFuncStackSlots exercises var/ld/st stack memory inside a function:
// a loop that accumulates through a stack slot, with the slot re-bound on
// every call (pooled frames must not leak a previous call's memory).
func TestFuncStackSlots(t *testing.T) {
	src := `
entity @top () -> () {
  inst @p () -> ()
}
proc @p () -> () {
 entry:
  %five = const i32 5
  %seven = const i32 7
  ; sumto(5) = 15, sumto(7) = 28: the accumulator var must restart at 0
  ; on the second call even though the pooled frame is reused.
  %a = call i32 @sumto (i32 %five)
  %wa = const i32 15
  %oka = eq i32 %a, %wa
  call void @llhd.assert (i1 %oka)
  %b = call i32 @sumto (i32 %seven)
  %wb = const i32 28
  %okb = eq i32 %b, %wb
  call void @llhd.assert (i1 %okb)
  halt
}
func @sumto (i32 %n) i32 {
 entry:
  %zero = const i32 0
  %one = const i32 1
  %acc = var i32 %zero
  %i = var i32 %zero
  br %loop
 loop:
  %iv = ld i32* %i
  %more = ult i32 %iv, %n
  br %more, %done, %body
 body:
  %in = add i32 %iv, %one
  st i32* %i, %in
  %av = ld i32* %acc
  %an = add i32 %av, %in
  st i32* %acc, %an
  br %loop
 done:
  %r = ld i32* %acc
  ret i32 %r
}
`
	m := assembly.MustParse("m", src)
	s, err := New(m, "top")
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := s.Run(ir.Time{}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if s.Engine.Failures != 0 {
		t.Errorf("%d assertion failures in stack-slot function", s.Engine.Failures)
	}
}

// TestFuncUseAfterFree pins the error diagnostics of the dense memory
// slots: loading through a freed alloc pointer must fail the simulation.
func TestFuncUseAfterFree(t *testing.T) {
	src := `
entity @top () -> () {
  inst @p () -> ()
}
proc @p () -> () {
 entry:
  %x = call i32 @bad ()
  halt
}
func @bad () i32 {
 entry:
  %p = alloc i32
  free i32* %p
  %v = ld i32* %p
  ret i32 %v
}
`
	m := assembly.MustParse("m", src)
	s, err := New(m, "top")
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if err := s.Run(ir.Time{}); err == nil {
		t.Error("Run succeeded; want use-after-free error")
	}
}

// freeRunnerSrc is a never-halting clock generator, edge counter and
// register: every step exercises all three unit kinds on the
// interpreter's one dispatch loop — process probes, drives, var/ld/st
// memory, branches, phis-free jumps and wait re-arming; a process-to-
// function call; and entity wakes with prb, drv and an edge-triggered
// reg — forever.
const freeRunnerSrc = `
entity @top () -> () {
  %z1 = const i1 0
  %z32 = const i32 0
  %clk = sig i1 %z1
  %count = sig i32 %z32
  %q = sig i32 %z32
  %nq = sig i32 %z32
  inst @clkgen () -> (i1$ %clk)
  inst @counter (i1$ %clk) -> (i32$ %count)
  inst @ff (i1$ %clk, i32$ %count) -> (i32$ %q, i32$ %nq)
}
proc @clkgen () -> (i1$ %clk) {
 entry:
  %b0 = const i1 0
  %b1 = const i1 1
  %half = const time 5ns
  %zero = const i32 0
  %one = const i32 1
  %i = var i32 %zero
  br %loop
 loop:
  drv i1$ %clk, %b1 after %half
  wait %lo for %half
 lo:
  drv i1$ %clk, %b0 after %half
  wait %next for %half
 next:
  %ip = ld i32* %i
  %in = add i32 %ip, %one
  st i32* %i, %in
  br %loop
}
proc @counter (i1$ %clk) -> (i32$ %count) {
 init:
  %dz = const time 0s
  %clk0 = prb i1$ %clk
  wait %check for %clk
 check:
  %clk1 = prb i1$ %clk
  %chg = neq i1 %clk0, %clk1
  %pos = and i1 %chg, %clk1
  br %pos, %init, %bump
 bump:
  %c = prb i32$ %count
  %cn = call i32 @inc (i32 %c)
  drv i32$ %count, %cn after %dz
  br %init
}
func @inc (i32 %x) i32 {
 entry:
  %one = const i32 1
  %r = add i32 %x, %one
  ret i32 %r
}
entity @ff (i1$ %clk, i32$ %d) -> (i32$ %q, i32$ %nq) {
  %dz = const time 0s
  %clkp = prb i1$ %clk
  %dp = prb i32$ %d
  reg i32$ %q, %dp rise %clkp after %dz
  %n = not i32 %dp
  drv i32$ %nq, %n after %dz
}
`

// TestInterpWakeHotPathAllocFree is the interpreter sibling of the
// kernel's TestDriveWakeHotPathAllocFree: once frames, wait sets and the
// slot pool are warm, a full engine step through an interpreted design
// (process, entity and function activations: probes, drives, var/ld/st,
// branches, waits, calls, reg) must not allocate. This is
// also the enforcement hook for the slot-frame rework: a map[ir.Value]
// environment on any per-wake path reappears here as per-step
// map-assignment allocations.
func TestInterpWakeHotPathAllocFree(t *testing.T) {
	m := assembly.MustParse("freerun", freeRunnerSrc)
	s, err := New(m, "top")
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	e := s.Engine
	e.Init()
	for i := 0; i < 256; i++ { // warm frames, wait sets, and the slot pool
		if !e.Step() {
			t.Fatal("free-running design drained unexpectedly")
		}
	}
	if err := e.Err(); err != nil {
		t.Fatalf("warmup: %v", err)
	}
	if e.SignalByName("top.q").Value().Bits == 0 || e.SignalByName("top.nq").Value().Bits == 0 {
		t.Fatal("register entity never fired; entity wakes not exercised")
	}
	avg := testing.AllocsPerRun(500, func() {
		e.Step()
	})
	if e.PendingEvents() == 0 {
		t.Fatal("queue drained during measurement; hot path not exercised")
	}
	t.Logf("interpreter wake path: %.3f allocs/step", avg)
	// The path measures 0.000 today; the small nonzero gate only tolerates
	// rare kernel-map rehash noise, never a systematic per-step allocation.
	if avg > 0.25 {
		t.Errorf("interpreter wake hot path allocates %.2f times per step, want 0", avg)
	}
}
