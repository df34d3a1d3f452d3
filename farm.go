package llhd

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"

	"llhd/internal/engine"
)

// FarmJob is one simulation to run: a session configuration (the same
// options NewSession takes) plus an optional time limit. Jobs that share a
// design should share it explicitly — the same *Module via FromModule, the
// same *CompiledDesign via FromCompiled, or the same source string via
// FromSystemVerilog; the farm then runs them concurrently over one frozen
// copy instead of N private ones. As with NewSession, a module given via
// FromModule is frozen (Module.Freeze), and a SystemVerilog source runs
// through the Moore frontend once per distinct (source, top, engine).
type FarmJob struct {
	// Name labels the job in its FarmResult; purely informational.
	Name string
	// Options configure the session, exactly as for NewSession.
	Options []SessionOption
	// Until bounds the run like Session.RunUntil; the zero Time runs the
	// simulation to quiescence.
	Until Time
}

// FarmResult is the outcome of one FarmJob.
type FarmResult struct {
	// Name and Index identify the job (Index is its position in the Run
	// call's job list).
	Name  string
	Index int
	// Stats carries the session's final statistics. When Err is non-nil
	// they still report the partial progress up to the failure (zero if
	// the job failed before its session ran).
	Stats Finish
	// Err is the first error of the job: session construction, runtime,
	// deferred output (VCD flush), or context cancellation. Runtime
	// failures are classified *RuntimeError values — match them with
	// errors.Is against the Err* sentinels; contained panics carry the
	// recovered value and stack (kind ErrInternal).
	Err error
}

// Farm runs many independent simulation sessions concurrently over shared,
// frozen designs — the "one IR, many consumers" deployment shape: N
// parallel stimulus/backend/run-length configurations against a single
// in-memory design, for throughput (parameter sweeps, regression farms)
// or for cross-engine differential testing.
//
// Before any worker starts, Run prepares the shared artifacts serially,
// with the preparation step NewSession uses: every module referenced by
// a job is frozen (Module.Freeze — structural mutation afterwards
// panics), SystemVerilog sources are compiled to LLHD once per distinct
// (source, top, engine), and blaze jobs are compiled once per distinct
// (module, top) pair into a shared CompiledDesign. After that
// preparation all cross-session state is immutable, so the fan-out takes
// no locks anywhere on a simulation path: each session owns its engine,
// frames, register files, and observers outright.
//
// The zero Farm is ready to use.
type Farm struct {
	// Workers caps the number of concurrently running sessions. Zero or
	// negative means GOMAXPROCS.
	Workers int
	// Cache, when non-nil, routes the preparation phase's blaze
	// compilations through the shared content-addressed design cache:
	// jobs whose content matches an already-warm design reuse it without
	// freezing or recompiling, compiles are single-flighted across
	// concurrent Run calls, and warm designs persist across Run calls
	// (unlike the per-Run dedup map used without a cache). A job's own
	// WithDesignCache option takes precedence over the farm-level cache.
	Cache *DesignCache
}

// Run executes the jobs across the worker pool and returns one result per
// job, in job order. It returns when every job has finished or the context
// is cancelled; cancellation is checked between instant batches, so
// long-running simulations stop promptly with ctx.Err() recorded in their
// result. A nil ctx runs without cancellation.
func (f *Farm) Run(ctx context.Context, jobs ...FarmJob) []FarmResult {
	if ctx == nil {
		ctx = context.Background()
	}
	cfgs, results := f.prepare(jobs)
	workers := f.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}

	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i].Stats, results[i].Err = runFarmJob(ctx, cfgs[i], jobs[i].Until)
			}
		}()
	}
	for i := range jobs {
		if cfgs[i] == nil {
			continue // failed during preparation
		}
		idx <- i
	}
	close(idx)
	wg.Wait()
	return results
}

// prepare is Run's serial phase: it applies every job's options and runs
// the shared preparation step over one dedup map, so jobs naming one
// design share its frozen module or compiled design. A job that fails
// here, even by a panic in the frontend or the compiler, gets its error
// in its result and no config.
func (f *Farm) prepare(jobs []FarmJob) ([]*sessionConfig, []FarmResult) {
	results := make([]FarmResult, len(jobs))
	cfgs := make([]*sessionConfig, len(jobs))
	shared := map[designKey]*sessionConfig{}
	for i := range jobs {
		results[i] = FarmResult{Name: jobs[i].Name, Index: i}
		cfg := &sessionConfig{}
		err := func() (err error) {
			defer recoverInternal(&err)
			for _, opt := range jobs[i].Options {
				opt(cfg)
			}
			if cfg.cache == nil && cfg.backend == Blaze && cfg.compiled == nil {
				cfg.cache = f.Cache
			}
			return cfg.prepare(shared)
		}()
		if err != nil {
			results[i].Err = fmt.Errorf("llhd: farm job %d: %w", i, err)
			continue
		}
		cfgs[i] = cfg
	}
	return cfgs, results
}

// runFarmJob builds and runs one session under the farm's context. The
// session boundary is the containment layer: panics inside Run/Finish (a
// bug in an engine, or one provoked by a malformed design) come back as
// classified *RuntimeError values with the captured stack, so
// differential harnesses can treat "this design panics an engine" as a
// debuggable finding to report and shrink. The deferred recover here is
// the farm's last-resort backstop for session construction, which runs
// outside any session; it captures the stack the same way. Cancellation
// of the farm context is polled by the engine at batch granularity
// (engine.DefaultGovernBatch instants), so long-running jobs stop
// promptly with an ErrCanceled-classified result.
func runFarmJob(ctx context.Context, cfg *sessionConfig, until Time) (stats Finish, err error) {
	defer recoverInternal(&err)
	if cerr := ctx.Err(); cerr != nil {
		return Finish{}, &engine.RuntimeError{Kind: engine.Classify(cerr), Cause: cerr}
	}
	if cfg.ctx == nil {
		cfg.ctx = ctx // job-level WithContext wins; the farm ctx is the default
	}
	s, err := newSession(cfg)
	if err != nil {
		return Finish{}, err
	}
	runErr := s.RunUntil(until)
	stats = s.Finish()
	if runErr != nil {
		return stats, runErr
	}
	return stats, s.Err()
}

// recoverInternal is the farm's deferred panic backstop: it turns a panic
// into an ErrInternal *RuntimeError carrying the recovered value and stack.
func recoverInternal(err *error) {
	if r := recover(); r != nil {
		*err = &engine.RuntimeError{Kind: engine.ErrInternal, Recovered: r, Stack: debug.Stack()}
	}
}
