// Benchmarks regenerating the paper's evaluation (§6). One benchmark per
// Table 2 row and simulator; size and lowering benchmarks for Table 4 and
// Figure 5. Run with:
//
//	go test -bench=. -benchmem
//
// cmd/llhd-bench prints the same data as formatted tables.
package llhd_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"llhd"
	"llhd/internal/bench"
	"llhd/internal/bitcode"
	"llhd/internal/designs"
	"llhd/internal/moore"
	"llhd/internal/pass"
)

// BenchmarkTable2 runs every design on the three simulators (Table 2)
// through the unified Session API: the reference interpreter (Int), the
// compiled simulator (Blaze) and the AST-level commercial substitute
// (SVSim). One op is one elaborate+simulate session.
func BenchmarkTable2(b *testing.B) {
	runSession := func(b *testing.B, opts ...llhd.SessionOption) {
		b.Helper()
		s, err := llhd.NewSession(opts...)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
		s.Finish()
	}
	for _, d := range designs.All() {
		d := d
		b.Run(d.Name+"/Int", func(b *testing.B) {
			m, err := moore.Compile(d.Name, d.Source)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runSession(b, llhd.FromModule(m), llhd.Top(d.Top), llhd.Backend(llhd.Interp))
			}
		})
		b.Run(d.Name+"/Blaze", func(b *testing.B) {
			m, err := moore.Compile(d.Name, d.Source)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runSession(b, llhd.FromModule(m), llhd.Top(d.Top), llhd.Backend(llhd.Blaze))
			}
		})
		b.Run(d.Name+"/SVSim", func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runSession(b, llhd.FromSystemVerilog(d.Source), llhd.Top(d.Top), llhd.Backend(llhd.SVSim))
			}
		})
	}
}

// BenchmarkTable4 measures the serialization paths behind Table 4: text
// printing and bitcode encoding of every design.
func BenchmarkTable4(b *testing.B) {
	for _, d := range designs.All() {
		d := d
		m, err := moore.Compile(d.Name, d.Source)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(d.Name+"/Text", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_ = llhd.AssemblyString(m)
			}
		})
		b.Run(d.Name+"/Bitcode", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bitcode.Encode(m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMooreCompile measures frontend throughput per design.
func BenchmarkMooreCompile(b *testing.B) {
	for _, d := range designs.All() {
		d := d
		b.Run(d.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := moore.Compile(d.Name, d.Source); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// accSrc is the Figure 5 behavioural accumulator used by the lowering
// benchmark.
const accSrc = `
module acc (input clk, input [31:0] x, input en, output [31:0] q);
  bit [31:0] d;
  always_ff @(posedge clk) q <= #1ns d;
  always_comb begin
    d <= #2ns q;
    if (en) d <= #2ns q+x;
  end
endmodule
`

// BenchmarkFigure5Lowering measures the full §4 lowering pipeline on the
// paper's running example.
func BenchmarkFigure5Lowering(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m, err := moore.Compile("acc", accSrc)
		if err != nil {
			b.Fatal(err)
		}
		if err := pass.LoweringPipeline().RunFixpoint(m, pass.FixpointLimit); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLowerTable2 measures llhd.Lower alone on every Table 2 design:
// moore compiles a fresh behavioural module outside the timer, so one op
// is one full §4 lowering to fixpoint. Run with make bench-lower.
func BenchmarkLowerTable2(b *testing.B) {
	for _, d := range designs.All() {
		d := d
		b.Run(d.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				m, err := llhd.CompileSystemVerilog(d.Name, d.Source)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := llhd.Lower(m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFarmThroughput measures concurrent session throughput
// (sims/sec) through llhd.Farm at -j 1, 4, and 8 workers: one op is a
// full sweep of the Table 2 designs on the interpreter and the compiled
// engine, all sessions sharing one frozen module and one sealed
// CompiledDesign per design. On a multi-core host the -j 8 sims/sec
// should scale near-linearly over -j 1 — all cross-session state is
// frozen read-only, so the workers never contend on a lock.
func BenchmarkFarmThroughput(b *testing.B) {
	jobs, err := bench.FarmJobs(1)
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("j%d", workers), func(b *testing.B) {
			farm := llhd.Farm{Workers: workers}
			start := time.Now()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				results := farm.Run(context.Background(), jobs...)
				if err := bench.CheckFarmResults(results); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			sims := float64(b.N * len(jobs))
			b.ReportMetric(sims/time.Since(start).Seconds(), "sims/sec")
		})
	}
}

// TestFarmBenchSmoke runs the farm throughput measurement once at -j 1
// and -j 2 and checks that every session completed cleanly.
func TestFarmBenchSmoke(t *testing.T) {
	rows, err := bench.RunFarmBench([]int{1, 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("%d rows, want 2", len(rows))
	}
	for _, r := range rows {
		if r.Sims != 20 || r.SimsPerSec <= 0 {
			t.Errorf("degenerate row: %+v", r)
		}
	}
}

// TestTable2Smoke regenerates Table 2 once and checks its shape claims:
// zero assertion failures everywhere and compiled simulation faster than
// interpretation on the large designs.
func TestTable2Smoke(t *testing.T) {
	rows, err := bench.RunTable2()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("%d rows, want 10", len(rows))
	}
	fasterCount := 0
	for _, r := range rows {
		if r.Failures != 0 {
			t.Errorf("%s: %d assertion failures", r.Design, r.Failures)
		}
		if r.BlazeS < r.InterpS {
			fasterCount++
		}
	}
	// Shape: compiled simulation wins on most designs (paper: ~1000x; the
	// margin here is smaller because both share the event kernel).
	if fasterCount < 6 {
		t.Errorf("compiled simulator faster on only %d/10 designs", fasterCount)
	}
}

// TestTable4Smoke regenerates Table 4 and checks the paper's shape:
// text > SV source (unoptimized codegen), bitcode < text, linear in-memory
// footprint with the RISC-V core the largest.
func TestTable4Smoke(t *testing.T) {
	rows, err := bench.RunTable4()
	if err != nil {
		t.Fatal(err)
	}
	var riscv, smallest bench.Table4Row
	smallest = rows[0]
	for _, r := range rows {
		if r.Bitcode >= r.Text {
			t.Errorf("%s: bitcode (%d) not smaller than text (%d)", r.Design, r.Bitcode, r.Text)
		}
		if r.InMem <= r.Text {
			t.Errorf("%s: in-memory (%d) should exceed text (%d)", r.Design, r.InMem, r.Text)
		}
		if r.Design == "RISC-V Core" {
			riscv = r
		}
		if r.InMem < smallest.InMem {
			smallest = r
		}
	}
	if riscv.InMem <= smallest.InMem {
		t.Error("RISC-V core should have the largest footprint")
	}
}

// TestTable3Shape checks the feature matrix: LLHD is the only IR covering
// every column (the paper's headline for Table 3).
func TestTable3Shape(t *testing.T) {
	rows := bench.Table3()
	llhdRow := rows[0]
	if !(llhdRow.Turing && llhdRow.Verification && llhdRow.NineValued &&
		llhdRow.FourValued && llhdRow.Behavioural && llhdRow.Structural && llhdRow.Netlist) {
		t.Error("LLHD row must cover every capability")
	}
	if llhdRow.Levels != 3 {
		t.Errorf("LLHD levels = %d, want 3", llhdRow.Levels)
	}
	for _, r := range rows[1:] {
		full := r.Turing && r.Verification && r.NineValued && r.FourValued &&
			r.Behavioural && r.Structural && r.Netlist
		if full {
			t.Errorf("%s unexpectedly covers the full flow", r.IR)
		}
	}
}

// TestPublicFacade exercises the root package API end to end.
func TestPublicFacade(t *testing.T) {
	m, err := llhd.CompileSystemVerilog("acc", accSrc)
	if err != nil {
		t.Fatal(err)
	}
	if got := llhd.LevelOf(m); got != llhd.Behavioural {
		t.Errorf("fresh compile level = %v, want behavioural", got)
	}
	if err := llhd.Lower(m); err != nil {
		t.Fatal(err)
	}
	if err := llhd.Verify(m, llhd.Structural); err != nil {
		t.Errorf("lowered accumulator not structural: %v", err)
	}
	text := llhd.AssemblyString(m)
	m2, err := llhd.ParseAssembly("rt", text)
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	data, err := llhd.EncodeBitcode(m2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := llhd.DecodeBitcode(data); err != nil {
		t.Fatal(err)
	}
}
