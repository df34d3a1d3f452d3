package llhd_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"llhd"
	"llhd/internal/faultinject"
)

// checkVCD parses a VCD dump and fails the test unless it is well-formed:
// a complete header ending in $enddefinitions, every value change naming a
// declared identifier code, and strictly increasing timestamps. This is
// the "waveform is valid up to the failure instant" acceptance check of
// the containment contract.
func checkVCD(t *testing.T, data []byte) {
	t.Helper()
	if len(data) == 0 {
		t.Fatal("VCD output is empty (header must be written at session construction)")
	}
	lines := strings.Split(string(data), "\n")
	ids := map[string]bool{}
	inHeader := true
	lastTime := int64(-1)
	for ln, line := range lines {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if inHeader {
			switch {
			case strings.HasPrefix(line, "$var "):
				f := strings.Fields(line)
				if len(f) < 6 || f[len(f)-1] != "$end" {
					t.Fatalf("line %d: malformed $var: %q", ln+1, line)
				}
				ids[f[3]] = true
			case strings.HasPrefix(line, "$enddefinitions"):
				inHeader = false
			case strings.HasPrefix(line, "$"): // $timescale, $scope, $upscope
			default:
				t.Fatalf("line %d: unexpected header line %q", ln+1, line)
			}
			continue
		}
		switch {
		case line == "$dumpvars" || line == "$end":
		case strings.HasPrefix(line, "#"):
			ts, err := strconv.ParseInt(line[1:], 10, 64)
			if err != nil {
				t.Fatalf("line %d: bad timestamp %q", ln+1, line)
			}
			if ts <= lastTime {
				t.Fatalf("line %d: timestamp %d not after %d", ln+1, ts, lastTime)
			}
			lastTime = ts
		case strings.HasPrefix(line, "b"):
			f := strings.Fields(line)
			if len(f) != 2 || !ids[f[1]] {
				t.Fatalf("line %d: vector change names unknown id: %q", ln+1, line)
			}
		default:
			// scalar change: value char + id code
			if len(line) < 2 || !strings.ContainsRune("01xzXZ", rune(line[0])) || !ids[line[1:]] {
				t.Fatalf("line %d: malformed value change %q", ln+1, line)
			}
		}
	}
	if inHeader {
		t.Fatal("VCD has no $enddefinitions: truncated header")
	}
}

// faultKind is one injected fault class of the matrix: how to fire it and
// what the contained error must classify as.
type faultKind struct {
	name     string
	wantKind error
	class    string
	// mk returns the Fire function plus any extra session options the
	// fault needs (e.g. the context a cancel fault cancels).
	mk func() (func() error, []llhd.SessionOption)
}

var faultKinds = []faultKind{
	{
		name: "panic", wantKind: llhd.ErrInternal, class: "panic",
		mk: func() (func() error, []llhd.SessionOption) {
			return func() error { panic("faultinject: deliberate panic") }, nil
		},
	},
	{
		name: "quota", wantKind: llhd.ErrEventLimit, class: "event-limit",
		mk: func() (func() error, []llhd.SessionOption) {
			return func() error {
				return fmt.Errorf("faultinject: forced event quota: %w", llhd.ErrEventLimit)
			}, nil
		},
	},
	{
		name: "cancel", wantKind: llhd.ErrCanceled, class: "canceled",
		mk: func() (func() error, []llhd.SessionOption) {
			ctx, cancel := context.WithCancel(context.Background())
			fire := func() error { cancel(); return nil }
			return fire, []llhd.SessionOption{llhd.WithContext(ctx)}
		},
	},
}

// pointKs picks, per scheduling-point category, which occurrence to
// inject at: deep enough to have real progress behind it (partial stats,
// a non-empty waveform) where the category allows, and guaranteed to be
// reached by the toggle design on every backend.
var pointKs = map[faultinject.Point]int{
	faultinject.PointInit:  0,
	faultinject.PointStep:  2,
	faultinject.PointWake:  2,
	faultinject.PointBatch: 1,
}

// TestFaultInjectionMatrix drives every injected fault class at every
// scheduling-point category across all three backends, through both a
// plain Session and a Farm, and requires graceful degradation
// everywhere: no crash, a classified sentinel from Session.Err via
// errors.Is, valid partial statistics from Finish, and a well-formed VCD
// prefix.
func TestFaultInjectionMatrix(t *testing.T) {
	backends := []llhd.EngineKind{llhd.Interp, llhd.Blaze, llhd.SVSim}
	points := []faultinject.Point{
		faultinject.PointInit, faultinject.PointStep,
		faultinject.PointWake, faultinject.PointBatch,
	}
	for _, kind := range backends {
		for _, pt := range points {
			for _, fk := range faultKinds {
				t.Run(fmt.Sprintf("%v/%v/%s/session", kind, pt, fk.name), func(t *testing.T) {
					fire, extra := fk.mk()
					plan := &faultinject.Plan{Point: pt, K: pointKs[pt], Fire: fire}
					var wave bytes.Buffer
					opts := append([]llhd.SessionOption{
						llhd.FromSystemVerilog(toggleSrc),
						llhd.Top("toggle_tb"),
						llhd.Backend(kind),
						llhd.WithFaultHook(plan.Hook()),
						llhd.WithGovernBatch(1),
						llhd.WithVCD(&wave),
					}, extra...)
					s, err := llhd.NewSession(opts...)
					if err != nil {
						t.Fatalf("NewSession: %v", err)
					}
					runErr := s.Run()
					checkContained(t, runErr, fk, s.Err())
					st := s.Finish()
					checkPartialStats(t, runErr, st)
					// Poisoning: every subsequent call returns a sticky,
					// identically classified error.
					if again := s.Run(); again == nil {
						t.Error("second Run on a failed session must return the sticky error")
					} else if !errors.Is(again, fk.wantKind) {
						t.Errorf("sticky error reclassified: %v", again)
					}
					if _, err := s.Step(); err == nil {
						t.Error("Step on a failed session must return the sticky error")
					}
					checkVCD(t, wave.Bytes())
				})
				t.Run(fmt.Sprintf("%v/%v/%s/farm", kind, pt, fk.name), func(t *testing.T) {
					fire, extra := fk.mk()
					plan := &faultinject.Plan{Point: pt, K: pointKs[pt], Fire: fire}
					var wave bytes.Buffer
					opts := append([]llhd.SessionOption{
						llhd.FromSystemVerilog(toggleSrc),
						llhd.Top("toggle_tb"),
						llhd.Backend(kind),
						llhd.WithFaultHook(plan.Hook()),
						llhd.WithGovernBatch(1),
						llhd.WithVCD(&wave),
					}, extra...)
					var farm llhd.Farm
					results := farm.Run(context.Background(),
						llhd.FarmJob{Name: "faulty", Options: opts})
					r := results[0]
					if r.Err == nil {
						t.Fatalf("farm job with injected %s fault must fail", fk.name)
					}
					checkContained(t, r.Err, fk, r.Err)
					checkPartialStats(t, r.Err, r.Stats)
					checkVCD(t, wave.Bytes())
				})
			}
		}
	}
}

// checkContained verifies the error contract of a contained fault: the
// classified sentinel via errors.Is, the stable class slug, panic context
// (recovered value + stack) for panics, and agreement between the
// returned and the sticky error.
func checkContained(t *testing.T, runErr error, fk faultKind, sticky error) {
	t.Helper()
	if runErr == nil {
		t.Fatalf("injected %s fault must fail the run", fk.name)
	}
	if !errors.Is(runErr, fk.wantKind) {
		t.Errorf("errors.Is(%v, %v) = false", runErr, fk.wantKind)
	}
	if got := llhd.ErrorClass(runErr); got != fk.class {
		t.Errorf("ErrorClass = %q, want %q (err: %v)", got, fk.class, runErr)
	}
	var re *llhd.RuntimeError
	if !errors.As(runErr, &re) {
		t.Fatalf("error is not a *RuntimeError: %v", runErr)
	}
	if fk.name == "panic" {
		if re.Recovered == nil {
			t.Error("contained panic lost its recovered value")
		}
		if len(re.Stack) == 0 {
			t.Error("contained panic lost its stack")
		}
	}
	if fk.name == "cancel" && !errors.Is(runErr, context.Canceled) {
		t.Errorf("cancellation must also match context.Canceled: %v", runErr)
	}
	if sticky == nil {
		t.Error("Err() must report the failure")
	} else if !errors.Is(sticky, fk.wantKind) {
		t.Errorf("Err() classifies differently: %v", sticky)
	}
}

// checkPartialStats verifies Finish's partial-statistics contract: the
// counters agree with the failure context recorded in the RuntimeError.
func checkPartialStats(t *testing.T, runErr error, st llhd.Finish) {
	t.Helper()
	var re *llhd.RuntimeError
	if !errors.As(runErr, &re) {
		return
	}
	if st.DeltaSteps != re.DeltaSteps {
		t.Errorf("Finish.DeltaSteps = %d, RuntimeError.DeltaSteps = %d", st.DeltaSteps, re.DeltaSteps)
	}
	if st.Events != re.Events {
		t.Errorf("Finish.Events = %d, RuntimeError.Events = %d", st.Events, re.Events)
	}
	if st.Now != re.Time {
		t.Errorf("Finish.Now = %v, RuntimeError.Time = %v", st.Now, re.Time)
	}
}

// TestPoisonedSessionSemantics pins the poisoning contract end to end on
// one concrete scenario: a panic injected mid-run. Run fails once;
// afterwards Run, Step, and Err all return the same sticky error, Probe
// reports no signal, Finish still reports the partial statistics, and
// the VCD written up to the failure instant parses as well-formed.
func TestPoisonedSessionSemantics(t *testing.T) {
	for _, kind := range []llhd.EngineKind{llhd.Interp, llhd.Blaze, llhd.SVSim} {
		t.Run(kind.String(), func(t *testing.T) {
			plan := &faultinject.Plan{
				Point: faultinject.PointWake, K: 4,
				Fire: func() error { panic("faultinject: poison") },
			}
			var wave bytes.Buffer
			s, err := llhd.NewSession(
				llhd.FromSystemVerilog(toggleSrc), llhd.Top("toggle_tb"),
				llhd.Backend(kind), llhd.WithFaultHook(plan.Hook()),
				llhd.WithVCD(&wave),
			)
			if err != nil {
				t.Fatal(err)
			}
			first := s.Run()
			if first == nil {
				t.Fatal("poisoning Run must fail")
			}
			if !errors.Is(first, llhd.ErrInternal) {
				t.Fatalf("poisoning error not ErrInternal: %v", first)
			}
			if got := s.Err(); !errors.Is(got, llhd.ErrInternal) {
				t.Errorf("Err() = %v, want the sticky poisoning error", got)
			}
			if again := s.Run(); again != first {
				t.Errorf("second Run returned %v, want the identical sticky error %v", again, first)
			}
			if _, err := s.Step(); err != first {
				t.Errorf("Step returned %v, want the identical sticky error", err)
			}
			if _, ok := s.Probe("toggle_tb.count"); ok {
				t.Error("Probe on a poisoned session must report no signal")
			}
			st := s.Finish()
			if st.DeltaSteps <= 0 {
				t.Errorf("Finish.DeltaSteps = %d, want partial progress before the failure", st.DeltaSteps)
			}
			var re *llhd.RuntimeError
			if !errors.As(first, &re) || st.DeltaSteps != re.DeltaSteps {
				t.Errorf("Finish stats disagree with the failure context: %+v vs %+v", st, re)
			}
			checkVCD(t, wave.Bytes())
			if !bytes.Contains(wave.Bytes(), []byte("#")) {
				t.Error("waveform has no timestamps: nothing was dumped before the failure")
			}
		})
	}
}

// runawayRecursionSrc is a process calling a function that only calls
// itself. Unbounded, the recursion grows the Go stack until the runtime
// aborts the whole process, which no recover can contain.
const runawayRecursionSrc = `
entity @top () -> () {
  inst @p () -> ()
}
proc @p () -> () {
 entry:
  call void @loop ()
  halt
}
func @loop () void {
 entry:
  call void @loop ()
  ret
}
`

// spinningFuncSrc is a process calling a function that loops forever in
// zero time: the function body's own step budget must stop it.
const spinningFuncSrc = `
entity @top () -> () {
  inst @p () -> ()
}
proc @p () -> () {
 entry:
  call void @spin ()
  halt
}
func @spin () void {
 entry:
  br %entry
}
`

// TestRunawayFunctionIsStepLimit requires both engines that execute calls
// to stop a runaway function — an unbounded recursion at
// engine.MaxCallDepth nested calls, an endless loop at the function step
// budget — with a classified step-limit error, through a plain Session
// and through a Farm.
func TestRunawayFunctionIsStepLimit(t *testing.T) {
	designs := []struct{ name, src, want string }{
		{"recursion", runawayRecursionSrc, "call depth exceeded in @loop"},
		{"spin", spinningFuncSrc, "@spin: step budget exhausted"},
	}
	for _, d := range designs {
		for _, kind := range []llhd.EngineKind{llhd.Interp, llhd.Blaze} {
			opts := func(t *testing.T) []llhd.SessionOption {
				m, err := llhd.ParseAssembly(d.name, d.src)
				if err != nil {
					t.Fatal(err)
				}
				return []llhd.SessionOption{llhd.FromModule(m), llhd.Top("top"), llhd.Backend(kind)}
			}
			t.Run(fmt.Sprintf("%s/%v/session", d.name, kind), func(t *testing.T) {
				s, err := llhd.NewSession(opts(t)...)
				if err != nil {
					t.Fatalf("NewSession: %v", err)
				}
				runErr := s.Run()
				checkStepLimit(t, runErr, d.want)
				if !errors.Is(s.Err(), llhd.ErrStepLimit) {
					t.Errorf("Err() = %v, want the sticky step-limit error", s.Err())
				}
				checkPartialStats(t, runErr, s.Finish())
			})
			t.Run(fmt.Sprintf("%s/%v/farm", d.name, kind), func(t *testing.T) {
				var farm llhd.Farm
				r := farm.Run(context.Background(), llhd.FarmJob{Name: d.name, Options: opts(t)})[0]
				checkStepLimit(t, r.Err, d.want)
				checkPartialStats(t, r.Err, r.Stats)
			})
		}
	}
}

// checkStepLimit verifies that err is a classified step-limit failure
// whose diagnostic contains want.
func checkStepLimit(t *testing.T, err error, want string) {
	t.Helper()
	if err == nil {
		t.Fatal("runaway function must fail the run")
	}
	if !errors.Is(err, llhd.ErrStepLimit) {
		t.Errorf("errors.Is(%v, ErrStepLimit) = false", err)
	}
	if got := llhd.ErrorClass(err); got != "step-limit" {
		t.Errorf("ErrorClass = %q, want step-limit (err: %v)", got, err)
	}
	var re *llhd.RuntimeError
	if !errors.As(err, &re) {
		t.Fatalf("error is not a *RuntimeError: %v", err)
	}
	if !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not contain %q", err, want)
	}
}
