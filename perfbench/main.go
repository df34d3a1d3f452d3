// Command perfbench is the repository's end-to-end benchmark. It puts
// the ten Table 2 designs from SystemVerilog text to settled trace
// through the public entry points — moore, llhd.Lower, Module.Freeze,
// llhd.CompileBlaze, llhd.NewSession, llhd.DesignCache and simserver
// over loopback HTTP — checks every output against an independent
// reference, and prints one JSON result line:
//
//	perfbench --workload table2-lower --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, measured with
// tracing off. With --trace 1 it records spans around every layer call
// and reports the per-layer metrics instead. METRICS.md lists every
// metric, the layer it measures and the end-to-end metric and workload
// it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"llhd/internal/designs"
)

// The workloads, in the order traced runs measure them.
const (
	wlLower = "table2-lower"
	wlSim   = "table2-sim"
	wlServe = "serve-stream"
)

var workloadNames = []string{wlLower, wlSim, wlServe}

// setupReps is how many times an untraced run sets its workload up;
// setup_s is the median.
const setupReps = 5

// workload is one benchmark workload after setup.
type workload interface {
	// jobs is the number of jobs in one sweep.
	jobs() int
	// sweep runs every job once, in order, recording each in tl.
	sweep(order []int, sc scope, tl *tally)
	close()
}

// setup prepares workload name and runs one untimed warm-up sweep, so
// the timed sweeps start with warm caches and a grown heap.
func setup(name string, ds []designs.Design, traced bool) (workload, error) {
	var w workload
	var err error
	switch name {
	case wlLower:
		w, err = newLowerBench(ds, traced)
	case wlSim:
		w, err = newSimBench(ds)
	case wlServe:
		w, err = newServeBench(ds)
	default:
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	if err != nil {
		return nil, err
	}
	order := make([]int, w.jobs())
	for i := range order {
		order[i] = i
	}
	tl := newTally()
	w.sweep(order, scope{}, tl)
	if tl.failed != 0 {
		w.close()
		return nil, fmt.Errorf("warm-up sweep: %d of %d jobs failed", tl.failed, tl.attempted)
	}
	return w, nil
}

type config struct {
	workload string
	seed     int64
	duration time.Duration
	trace    bool
	spansDir string
	designs  []designs.Design
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var cfg config
	var seconds float64
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", fmt.Sprintf("workload to run: one of %v", workloadNames))
	flag.Int64Var(&cfg.seed, "seed", 1, "seed for the job order of every sweep")
	flag.Float64Var(&seconds, "seconds", 20, "how long to measure")
	flag.IntVar(&trace, "trace", 0, "1 records spans and reports the per-layer metrics")
	flag.StringVar(&cfg.spansDir, "spans-dir", "", "directory to write a traced run's spans to (JSON lines)")
	flag.Parse()
	cfg.duration = time.Duration(seconds * float64(time.Second))
	cfg.trace = trace != 0
	cfg.designs = designs.All()

	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func run(cfg config) (result, error) {
	if cfg.trace {
		return runTraced(cfg)
	}
	return runUntraced(cfg)
}

// phase is the timed sweeps of one workload in one tracing mode.
type phase struct {
	// sweepMs is the process CPU time of each sweep, wallMs its
	// elapsed time.
	sweepMs []float64
	wallMs  []float64
	tally   *tally
	tracer  *tracer
	// The rest covers the whole measure call, which may alternate
	// several phases: its CPU and wall time, bytes allocated, sweeps run
	// and design-cache counters.
	cpu        time.Duration
	wall       time.Duration
	allocBytes uint64
	sweeps     int
	cache      cacheDelta
}

// minSweeps is the fewest timed sweeps a phase runs, however short the
// time budget.
const minSweeps = 1

// measure runs sweeps of w, each in a job order drawn from rng, until
// d has passed and every phase has run minSweeps. Sweep i runs in phase
// i mod len(trs), recording spans into trs[i mod len(trs)] unless it is
// nil; alternating the phases exposes both to the same drift in host
// speed.
func measure(w workload, rng *rand.Rand, d time.Duration, trs ...*tracer) []phase {
	ps := make([]phase, len(trs))
	for k, tr := range trs {
		ps[k] = phase{tally: newTally(), tracer: tr}
	}
	var cache cacheDelta
	sb, _ := w.(*serveBench)
	if sb != nil {
		cache.before = sb.srv.Cache().Stats()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start, cpu0 := time.Now(), cpuTime()
	n := 0
	for ; n < minSweeps*len(trs) || time.Since(start) < d; n++ {
		p := &ps[n%len(trs)]
		order := rng.Perm(w.jobs())
		sc := scope{t: p.tracer, id: -1, sweep: len(p.sweepMs)}.child("sweep")
		t0, c0 := time.Now(), cpuTime()
		w.sweep(order, sc, p.tally)
		p.sweepMs = append(p.sweepMs, float64((cpuTime()-c0).Nanoseconds())/1e6)
		p.wallMs = append(p.wallMs, float64(time.Since(t0).Nanoseconds())/1e6)
		sc.end(0, 0)
	}
	wall, cpu := time.Since(start), cpuTime()-cpu0
	runtime.ReadMemStats(&m1)
	if sb != nil {
		cache.after = sb.srv.Cache().Stats()
	}
	for k := range ps {
		p := &ps[k]
		p.cpu, p.wall, p.allocBytes, p.sweeps, p.cache = cpu, wall, m1.TotalAlloc-m0.TotalAlloc, n, cache
		p.tally.checkRepeat(len(p.sweepMs))
	}
	return ps
}

// runUntraced sets the workload up setupReps times, then measures it
// with tracing off and reports the end-to-end metrics.
func runUntraced(cfg config) (result, error) {
	setups := make([]float64, 0, setupReps)
	var w workload
	for r := 0; r < setupReps; r++ {
		if w != nil {
			w.close()
		}
		runtime.GC()
		c0 := cpuTime()
		var err error
		if w, err = setup(cfg.workload, cfg.designs, false); err != nil {
			return result{}, fmt.Errorf("%s setup: %w", cfg.workload, err)
		}
		setups = append(setups, (cpuTime() - c0).Seconds())
	}
	p := measure(w, rand.New(rand.NewSource(cfg.seed)), cfg.duration, nil)[0]
	w.close()

	n := float64(len(p.sweepMs))
	ok := float64(p.tally.attempted-p.tally.failed) / float64(p.tally.attempted)
	values := map[string]float64{
		"setup_s":            median(setups),
		"sweep_ms.p50":       quantile(p.sweepMs, 0.5),
		"sweep_ms.p90":       quantile(p.sweepMs, 0.9),
		"sweeps_per_s":       n / p.cpu.Seconds(),
		"ok_ratio":           ok,
		"alloc_mb_per_sweep": float64(p.allocBytes) / n / (1 << 20),
		"max_rss_mb":         maxRSSMB(),
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d sweeps in %.1f s (%.1f CPU s), wall p50 %.2f ms, setup CPU %v s\n",
		cfg.workload, cfg.seed, len(p.sweepMs), p.wall.Seconds(), p.cpu.Seconds(), median(p.wallMs), setups)
	return report(p.tally.attempted, p.tally.failed, endToEnd, values), nil
}

// runTraced measures the requested workload with untraced and traced
// sweeps alternating, then the other two workloads traced, and reports
// the per-layer metrics. A layer's metrics come from the requested
// workload when its sweeps call that layer, and otherwise from the
// layer's home workload (layerHomes), so every metric is measured where
// the layer runs.
func runTraced(cfg config) (result, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	slice := func(share float64) time.Duration { return time.Duration(share * float64(cfg.duration)) }
	tracers := map[string]*tracer{}
	layers := map[string]map[string]float64{}
	attempted, failed := 0, 0
	for _, name := range append([]string{cfg.workload}, others(cfg.workload)...) {
		w, err := setup(name, cfg.designs, true)
		if err != nil {
			return result{}, fmt.Errorf("%s setup: %w", name, err)
		}
		var un, tp phase
		if name == cfg.workload {
			ps := measure(w, rng, slice(0.6), nil, newTracer())
			un, tp = ps[0], ps[1]
			attempted += un.tally.attempted
			failed += un.tally.failed + sameCounters(un.tally, tp.tally)
		} else {
			tp = measure(w, rng, slice(0.2), newTracer())[0]
		}
		w.close()
		attempted += tp.tally.attempted
		failed += tp.tally.failed
		tracers[name] = tp.tracer
		layers[name] = layerMetrics(tp, w)
		if name == cfg.workload {
			layers[name]["trace.overhead_ratio"] = median(tp.sweepMs) / median(un.sweepMs)
		}
	}

	values := map[string]float64{}
	for _, m := range perLayer {
		values[m.name] = layers[sourceOf(m.name, cfg.workload)][m.name]
	}
	if cfg.spansDir != "" {
		if err := os.MkdirAll(cfg.spansDir, 0o755); err != nil {
			return result{}, err
		}
		path := filepath.Join(cfg.spansDir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := writeSpans(path, tracers); err != nil {
			return result{}, fmt.Errorf("writing spans: %w", err)
		}
	}
	return report(attempted, failed, perLayer, values), nil
}

func others(name string) []string {
	var out []string
	for _, n := range workloadNames {
		if n != name {
			out = append(out, n)
		}
	}
	return out
}

// sameCounters compares the exact-repeat counters of an untraced and a
// traced phase of one workload and returns the number that differ.
func sameCounters(un, tr *tally) int {
	diff := 0
	for name := range un.counts {
		if a, b := un.first(name), tr.first(name); a != b {
			fmt.Fprintf(os.Stderr, "perfbench: FAIL counter %s: untraced %d, traced %d\n", name, a, b)
			diff++
		}
	}
	return diff
}

// report builds the result line from the metric definitions.
func report(attempted, failed int, defs []metricDef, values map[string]float64) result {
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	return res
}

// rusage returns the process's resource usage. Getrusage on the
// calling process cannot fail.
func rusage() syscall.Rusage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

// cpuTime returns the user plus system CPU time the process has used,
// over all its threads. Time the host steals from the virtual CPU is
// not in it, which is why sweeps are timed by it rather than by the
// wall clock.
func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB returns the peak resident set size of the process in MiB.
func maxRSSMB() float64 {
	return float64(rusage().Maxrss) / 1024 // Linux reports kilobytes
}
