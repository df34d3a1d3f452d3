package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"testing"

	"llhd/internal/designs"
)

// tiny is a one-sweep configuration: setup, the warm-up sweep and the
// minimum of timed sweeps, with no time budget.
func tiny(workload string, trace bool) config {
	return config{workload: workload, seed: 1, trace: trace, designs: designs.All()}
}

func TestTinyRunEveryWorkload(t *testing.T) {
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			res, err := run(tiny(name, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, trace, d.name, m, d.unit)
				}
			}
		}
	}
}

// TestTracedMatchesUntraced runs untraced and traced sweeps of every
// workload and requires identical outcomes and exact-repeat counters.
func TestTracedMatchesUntraced(t *testing.T) {
	for _, name := range workloadNames {
		w, err := setup(name, designs.All(), true)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ps := measure(w, rand.New(rand.NewSource(1)), 0, nil, newTracer())
		w.close()
		un, tr := ps[0], ps[1]
		if un.tally.failed != 0 || tr.tally.failed != 0 {
			t.Errorf("%s: %d untraced and %d traced failures", name, un.tally.failed, tr.tally.failed)
		}
		if un.tally.attempted != tr.tally.attempted {
			t.Errorf("%s: %d untraced jobs, %d traced", name, un.tally.attempted, tr.tally.attempted)
		}
		if len(un.tally.counts) == 0 {
			t.Errorf("%s: no exact-repeat counters recorded", name)
		}
		if n := sameCounters(un.tally, tr.tally); n != 0 {
			t.Errorf("%s: %d counters differ between untraced and traced sweeps", name, n)
		}
		if len(tr.tracer.spans) == 0 || un.tracer != nil {
			t.Errorf("%s: traced sweep recorded %d spans", name, len(tr.tracer.spans))
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "sweep", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0}, // overlaps a by 10
		{Name: "c", Start: 12, End: 20, Parent: 1},
	}
	got := selfTimes(spans)
	want := []int64{50, 22, 30, 8}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := quantile(xs, c.q); got < c.want-1e-9 || got > c.want+1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metric tables in step.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var bj struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []def `json:"end_to_end"`
		PerLayer []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads, want %d", len(bj.Workloads), len(workloadNames))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q, want %q", i, w.Name, workloadNames[i])
		}
	}
	check := func(kind string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, want %d", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: %s %s %s, want %s %s %s", kind, i, g.Name, g.Unit, g.Better, d.name, d.unit, d.better)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
	for _, d := range bj.EndToEnd {
		if d.Bound == nil || *d.Bound <= 0 || *d.Bound > 0.25 {
			t.Errorf("end_to_end %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}
