GO ?= go

.PHONY: check build vet test test-race test-timeout fuzz-smoke serve-smoke conformance perfbench-test bench bench-kernel bench-lower bench-table2 bench-farm

# check is the tier-1 verification: the build, go vet, and the full test
# suite must all pass.
check: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# -shuffle=on randomizes test order so hidden inter-test state
# dependencies surface in CI instead of in the field.
test:
	$(GO) test -shuffle=on ./...

# test-race runs the concurrency-exposed suites under the race detector:
# the root package (session farm, 16 concurrent sessions per backend over
# one frozen design — including 16 blaze sessions sharing one sealed
# instruction stream, cross-checked against an interpreter reference —
# concurrent VCD writers, the fault-injection matrix with its
# in-coroutine svsim panic recovery), the kernel, the reference
# interpreter, and svsim (coroutine handoff).
test-race:
	$(GO) test -race -run 'TestConcurrent|TestFarm|TestSession|TestFault|TestGovernance|TestPoisoned' .
	$(GO) test -race ./internal/engine ./internal/sim ./internal/svsim

# test-timeout is the hang guard: the whole suite must finish inside a
# hard wall-clock budget, so a containment or governance regression that
# turns a failure into a livelock fails CI instead of stalling it.
test-timeout:
	$(GO) test -timeout 120s ./...

# fuzz-smoke is the CI-sized differential fuzzing run: a fixed seed and a
# bounded design count, so it is deterministic and time-boxed. Each design
# runs four legs — {interp, blaze} × {unlowered, lowered} — so blaze is
# fuzzed against the interpreter on every seed. The second leg fuzzes the
# pass pipeline itself: per seed a random pass ordering, checked after
# every pass application, so any divergence is bisected to the first
# divergent pass (named in the repro header and on the report line). Failing designs
# are shrunk into fuzz-failures/ (uploaded as a CI artifact) and fail the
# target. The full acceptance run is -n 1000 for both legs.
fuzz-smoke:
	$(GO) run ./cmd/llhd-fuzz -seed 1 -n 200 -corpus fuzz-failures
	$(GO) run ./cmd/llhd-fuzz -pipeline -seed 1 -n 100 -corpus fuzz-failures

# conformance runs the RV32I conformance suite explicitly and verbosely:
# every image under testdata/rv32i assembled, executed on the reference
# ISS, and cross-checked on all three engines (see conformance_test.go).
# Engine step limits and the ISS step budget keep a wedged core a fast
# deterministic failure; failing runs leave VCD + trace artifacts under
# conformance-failures/ for CI to upload.
conformance:
	$(GO) test -run TestRV32IConformance -count=1 -v .

# serve-smoke is the simulation server's end-to-end self-test: boot
# llhd-serve on an ephemeral port, stream rr_arbiter and byte-diff the
# NDJSON deltas against a serial TraceObserver reference, resubmit to
# check the content-addressed cache hit (identical stream, no recompile),
# and assert that a tiny step budget is rejected with HTTP 429 and the
# "step-limit" failure slug.
serve-smoke:
	$(GO) run ./cmd/llhd-serve -smoke

# perfbench-test builds and tests the end-to-end benchmark module
# (perfbench/), so a public API change that breaks it fails CI.
perfbench-test:
	cd perfbench && $(GO) test ./...

# bench regenerates the paper's evaluation benchmarks (Table 2/4, Figure 5).
bench:
	$(GO) test -bench . -benchmem -run xxx .

# bench-kernel runs the event-kernel microbenchmarks (drive storm, wake
# fan-out, delta cascade); all must report 0 allocs/op at steady state.
bench-kernel:
	$(GO) test -bench BenchmarkEngineKernel -benchmem -run xxx ./internal/engine/

# bench-lower measures llhd.Lower alone on each Table 2 design (moore runs
# outside the timer): the ns/op and allocs/op trend of the §4 lowering.
bench-lower:
	$(GO) test -bench BenchmarkLowerTable2 -benchmem -run xxx .

# bench-table2 runs the Table 2 benchmark and records the machine-readable
# trajectory artifact (ns/op and allocs/op per design and engine).
bench-table2:
	$(GO) test -bench BenchmarkTable2 -benchmem -run xxx .
	$(GO) run ./cmd/llhd-bench -table 2 -json BENCH_TABLE2.json

# bench-farm measures concurrent session-farm throughput (sims/sec over
# the Table 2 designs at -j 1/4/8, shared frozen designs) and records the
# machine-readable artifact.
bench-farm:
	$(GO) test -bench BenchmarkFarmThroughput -benchmem -run xxx .
	$(GO) run ./cmd/llhd-bench -farm -json BENCH_FARM.json
