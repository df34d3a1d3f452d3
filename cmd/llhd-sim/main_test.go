package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestMain lets the test binary stand in for llhd-sim: with
// LLHD_SIM_MAIN=1 in the environment it runs main on its own arguments,
// so exit statuses are observed exactly as a shell would see them.
func TestMain(m *testing.M) {
	if os.Getenv("LLHD_SIM_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runSim runs llhd-sim with args in a child process and returns its exit
// status.
func runSim(t *testing.T, args ...string) int {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "LLHD_SIM_MAIN=1")
	err := cmd.Run()
	var ee *exec.ExitError
	if errors.As(err, &ee) {
		return ee.ExitCode()
	}
	if err != nil {
		t.Fatalf("running llhd-sim: %v", err)
	}
	return 0
}

// TestFlagErrorsExitOne pins the exit-status taxonomy at the flag
// parser: a usage error is an input error (status 1), never status 2,
// which is reserved for resource quotas. -tier names no flag, so
// invocations that still pass it must land here.
func TestFlagErrorsExitOne(t *testing.T) {
	design := filepath.Join(t.TempDir(), "d.llhd")
	src := "entity @top () -> () {\n}\n"
	if err := os.WriteFile(design, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := runSim(t, design); code != 0 {
		t.Fatalf("clean run exited %d, want 0", code)
	}
	if code := runSim(t, "-tier", "bytecode", design); code != 1 {
		t.Errorf("-tier bytecode exited %d, want 1", code)
	}
	if code := runSim(t, "-steps", "many", design); code != 1 {
		t.Errorf("a malformed flag value exited %d, want 1", code)
	}
	if code := runSim(t, "-h"); code != 0 {
		t.Errorf("-h exited %d, want 0", code)
	}
}
