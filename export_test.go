package llhd

import "llhd/internal/faultinject"

// This file is the test-only bridge of the fault-injection harness: the
// options below exist in test binaries only (the file is _test.go), so
// production builds have no way to install a fault hook — the build-time
// gating of internal/faultinject.

// WithFaultHook installs a deterministic fault-injection hook on the
// session's engine; the engine invokes it at every scheduling point (see
// faultinject.Point). Test-only.
func WithFaultHook(h func(faultinject.Point) error) SessionOption {
	return func(c *sessionConfig) { c.faultHook = h }
}

// WithGovernBatch overrides the governance polling granularity, so tests
// can observe batch-boundary behaviour (cancellation, quota checks)
// without simulating thousands of instants. Test-only.
func WithGovernBatch(n int) SessionOption {
	return func(c *sessionConfig) { c.governBatch = n }
}

// PreparedDesigns runs a farm's serial preparation over the jobs and
// returns each job's compiled blaze design, so tests can check which jobs
// share one. Every job must prepare cleanly. Test-only.
func PreparedDesigns(jobs ...FarmJob) (cds []*CompiledDesign) {
	cfgs, _ := (&Farm{}).prepare(jobs)
	for _, cfg := range cfgs {
		cds = append(cds, cfg.compiled)
	}
	return cds
}
