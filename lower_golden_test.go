package llhd_test

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"llhd"
	"llhd/internal/designs"
	"llhd/internal/pass"
)

// loweredSum is the lowered-output golden: one "name digest" line per
// input, the digest being the sha256 of llhd.AssemblyString after
// llhd.Lower.
var loweredSum = filepath.Join("testdata", "lowered.sum")

// goldenInput is one module fed to the lowered-output golden.
type goldenInput struct {
	name string
	mk   func(t *testing.T) *llhd.Module
}

// loweringGoldenInputs returns the ten Table 2 designs and every
// testdata/corpus entry (.llhd parsed, .sv compiled by moore), each as a
// fresh behavioural module.
func loweringGoldenInputs(t *testing.T) []goldenInput {
	t.Helper()
	var inputs []goldenInput
	for _, d := range designs.All() {
		d := d
		inputs = append(inputs, goldenInput{name: d.Name, mk: func(t *testing.T) *llhd.Module {
			m, err := llhd.CompileSystemVerilog(d.Name, d.Source)
			if err != nil {
				t.Fatalf("Compile: %v", err)
			}
			return m
		}})
	}
	entries, err := filepath.Glob(filepath.Join("testdata", "corpus", "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("testdata/corpus is empty")
	}
	for _, path := range entries {
		path, base := path, filepath.Base(path)
		ext := filepath.Ext(base)
		if ext != ".llhd" && ext != ".sv" {
			continue
		}
		inputs = append(inputs, goldenInput{name: "corpus/" + base, mk: func(t *testing.T) *llhd.Module {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			name := strings.TrimSuffix(base, ext)
			var m *llhd.Module
			if ext == ".sv" {
				m, err = llhd.CompileSystemVerilog(name, string(data))
			} else {
				m, err = llhd.ParseAssembly(name, string(data))
			}
			if err != nil {
				t.Fatalf("load %s: %v", path, err)
			}
			return m
		}})
	}
	return inputs
}

// TestLowerGolden pins the output of llhd.Lower byte for byte: the
// lowered assembly of every Table 2 design and corpus entry must hash to
// its line in testdata/lowered.sum. A pass refactor that claims to keep
// behaviour must keep this file unchanged; an intentional change to the
// lowering regenerates it with -update-golden.
func TestLowerGolden(t *testing.T) {
	got := map[string]string{}
	for _, in := range loweringGoldenInputs(t) {
		m := in.mk(t)
		if err := llhd.Lower(m); err != nil {
			t.Fatalf("%s: Lower: %v", in.name, err)
		}
		got[in.name] = fmt.Sprintf("%x", sha256.Sum256([]byte(llhd.AssemblyString(m))))
	}
	names := make([]string, 0, len(got))
	for name := range got {
		names = append(names, name)
	}
	sort.Strings(names)

	if *updateGolden {
		var b strings.Builder
		for _, name := range names {
			fmt.Fprintf(&b, "%s %s\n", name, got[name])
		}
		if err := os.WriteFile(loweredSum, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(loweredSum)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		name, digest, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", loweredSum, line)
		}
		want[name] = digest
	}
	for _, name := range names {
		if w, ok := want[name]; !ok {
			t.Errorf("%s: no golden digest (regenerate with -update-golden)", name)
		} else if got[name] != w {
			t.Errorf("%s: lowered output changed: sha256 %s, golden %s", name, got[name], w)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: golden digest has no input", name)
		}
	}
}

// TestLowerConvergesInThreeRounds pins the lowering pipeline's
// convergence on the golden inputs: on every one, a round in which no pass
// reports a change comes within three rounds. Passes that undo each
// other's work would instead keep changing until pass.FixpointLimit.
func TestLowerConvergesInThreeRounds(t *testing.T) {
	for _, in := range loweringGoldenInputs(t) {
		if err := pass.LoweringPipeline().RunFixpoint(in.mk(t), 3); err != nil {
			t.Errorf("%s: %v", in.name, err)
		}
	}
}
