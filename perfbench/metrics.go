package main

import (
	"sort"
	"strings"

	"llhd"
	"llhd/internal/pass"
)

// metricDef is one reported metric as BENCHMARK.json declares it.
type metricDef struct {
	name   string
	unit   string
	better string
}

// endToEnd is what an untraced run reports.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"sweep_ms.p50", "ms", "lower"},
	{"sweep_ms.p90", "ms", "lower"},
	{"sweeps_per_s", "1/s", "higher"},
	{"ok_ratio", "ratio", "higher"},
	{"alloc_mb_per_sweep", "MiB", "lower"},
	{"max_rss_mb", "MiB", "lower"},
}

// perLayer is what a traced run reports.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		{"moore.parse_ms", "ms", "lower"},
		{"moore.codegen_ms", "ms", "lower"},
		{"pass.lower_ms", "ms", "lower"},
	}
	for _, name := range pass.Names() {
		defs = append(defs,
			metricDef{"pass." + name + ".ms", "ms", "lower"},
			metricDef{"pass." + name + ".runs", "count", "lower"},
			metricDef{"pass." + name + ".changed_ratio", "ratio", "higher"})
	}
	return append(defs, []metricDef{
		{"pass.fixpoint_iters", "count", "lower"},
		{"pass.fixpoint_capped", "count", "lower"},
		{"ir.insts_before_lower", "count", "lower"},
		{"ir.insts_after_lower", "count", "lower"},
		{"ir.freeze_ms", "ms", "lower"},
		{"blaze.compile_ms", "ms", "lower"},
		{"session.new_ms.blaze", "ms", "lower"},
		{"session.new_ms.interp", "ms", "lower"},
		{"run.blaze.ms", "ms", "lower"},
		{"run.interp.ms", "ms", "lower"},
		{"run.blaze.ns_per_delta", "ns", "lower"},
		{"run.interp.ns_per_delta", "ns", "lower"},
		{"run.blaze.mallocs", "count", "lower"},
		{"run.interp.mallocs", "count", "lower"},
		{"sim.deltas", "count", "lower"},
		{"sim.events", "count", "lower"},
		{"designcache.hit_ratio", "ratio", "higher"},
		{"designcache.misses", "count", "lower"},
		{"designcache.compiles", "count", "lower"},
		{"designcache.source_hits", "count", "higher"},
		{"simserver.request_ms.p50", "ms", "lower"},
		{"simserver.ttfb_ms.p50", "ms", "lower"},
		{"simserver.stream_bytes", "bytes", "lower"},
		{"simserver.busy", "count", "lower"},
		{"trace.overhead_ratio", "ratio", "lower"},
	}...)
}

// layerHomes lists, per metric-name prefix, the workloads whose sweeps
// call that layer from outside the program, home workload first. The
// simulated counts (sim.*) and the tracing overhead always come from
// the requested workload.
var layerHomes = []struct {
	prefix    string
	workloads []string
}{
	{"moore.", []string{wlLower}},
	{"pass.", []string{wlLower}},
	{"ir.", []string{wlLower}},
	{"blaze.", []string{wlLower}},
	{"session.new_ms.blaze", []string{wlSim, wlLower}},
	{"session.new_ms.interp", []string{wlSim}},
	{"run.blaze.", []string{wlSim, wlLower}},
	{"run.interp.", []string{wlSim}},
	{"designcache.", []string{wlServe}},
	{"simserver.", []string{wlServe}},
}

// sourceOf names the workload whose traced sweeps a traced run of
// workload reads metric from.
func sourceOf(metric, workload string) string {
	for _, h := range layerHomes {
		if !strings.HasPrefix(metric, h.prefix) {
			continue
		}
		for _, w := range h.workloads {
			if w == workload {
				return workload
			}
		}
		return h.workloads[0]
	}
	return workload
}

// cacheDelta is a design cache's counters around a phase.
type cacheDelta struct{ before, after llhd.CacheStats }

// layerMetrics derives the per-layer metrics from a traced phase. Times
// are medians over sweeps of each sweep's summed self time; counts that
// must repeat exactly are sweep 0's (measure has checked the rest).
func layerMetrics(p phase, w workload) map[string]float64 {
	spans := p.tracer.spans
	self := selfTimes(spans)
	sweeps := len(p.sweepMs)
	type agg struct {
		self, dur, count, allocs []float64 // per sweep
		n                        int       // spans
		sumDur, sumCount         float64
		durs                     []float64 // per span, ms
	}
	by := map[string]*agg{}
	for i, sp := range spans {
		a := by[sp.Name]
		if a == nil {
			a = &agg{self: make([]float64, sweeps), dur: make([]float64, sweeps),
				count: make([]float64, sweeps), allocs: make([]float64, sweeps)}
			by[sp.Name] = a
		}
		d := float64(sp.End - sp.Start)
		a.self[sp.Sweep] += float64(self[i])
		a.dur[sp.Sweep] += d
		a.count[sp.Sweep] += float64(sp.Count)
		a.allocs[sp.Sweep] += float64(sp.Allocs)
		a.n++
		a.sumDur += d
		a.sumCount += float64(sp.Count)
		a.durs = append(a.durs, d/1e6)
	}
	get := func(name string) *agg {
		if a := by[name]; a != nil {
			return a
		}
		return &agg{self: []float64{0}, dur: []float64{0}, count: []float64{0}, allocs: []float64{0}, durs: []float64{0}}
	}
	selfMs := func(name string) float64 { return median(get(name).self) / 1e6 }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	first := func(name string) float64 { return float64(p.tally.first(name)) }

	m := map[string]float64{
		"moore.parse_ms":        selfMs("moore.parse"),
		"moore.codegen_ms":      selfMs("moore.codegen"),
		"pass.lower_ms":         median(get("pass.lower").dur) / 1e6,
		"pass.fixpoint_iters":   first("pass.fixpoint_iters"),
		"pass.fixpoint_capped":  first("pass.fixpoint_capped"),
		"ir.insts_before_lower": first("ir.insts_before_lower"),
		"ir.insts_after_lower":  first("ir.insts_after_lower"),
		"ir.freeze_ms":          selfMs("ir.freeze"),
		"blaze.compile_ms":      selfMs("blaze.compile"),
		"sim.deltas":            first("sim.deltas"),
		"sim.events":            first("sim.events"),
	}
	for _, name := range pass.Names() {
		a := get("pass." + name)
		m["pass."+name+".ms"] = selfMs("pass." + name)
		m["pass."+name+".runs"] = first("pass." + name + ".runs")
		m["pass."+name+".changed_ratio"] = ratio(a.sumCount, float64(a.n))
	}
	for _, eng := range []string{"blaze", "interp"} {
		m["session.new_ms."+eng] = selfMs("session.new." + eng)
		run := get("run." + eng)
		m["run."+eng+".ms"] = selfMs("run." + eng)
		m["run."+eng+".ns_per_delta"] = ratio(run.sumDur, run.sumCount)
		m["run."+eng+".mallocs"] = median(run.allocs)
	}

	cd := p.cache
	hits, misses := cd.after.Hits-cd.before.Hits, cd.after.Misses-cd.before.Misses
	m["designcache.hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	m["designcache.misses"] = float64(misses) / float64(p.sweeps)
	m["designcache.compiles"] = float64(cd.after.Compiles-cd.before.Compiles) / float64(p.sweeps)
	m["designcache.source_hits"] = float64(cd.after.SourceHits-cd.before.SourceHits) / float64(p.sweeps)
	m["simserver.request_ms.p50"] = quantile(get("simserver.request").durs, 0.5)
	m["simserver.ttfb_ms.p50"] = quantile(get("simserver.ttfb").durs, 0.5)
	m["simserver.stream_bytes"] = median(get("simserver.request").count)
	if sb, ok := w.(*serveBench); ok {
		m["simserver.busy"] = float64(sb.busy.Load())
	}
	return m
}

// quantile returns the q-quantile of xs by linear interpolation between
// the closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
