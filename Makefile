# Developer entry points. `make check` is what CI (and the tier-1 verify)
# runs; `make lint` runs the static gates (gofmt, go vet, reschedvet);
# `make race` additionally race-tests the concurrency-heavy packages;
# `make ci` is the full gate (lint + build + test + race, a repeated race
# run of the simulation/experiment packages, 64-host scale, malleability
# and multi-job smokes, and the benchmark drift guard); `make bench`
# regenerates BENCH_scale.json, BENCH_livemig.json, BENCH_malleable.json,
# BENCH_multijob.json and BENCH_persist.json; `make e2e` runs the
# end-to-end benchmark (cmd/bench, every workload in BENCHMARK.json);
# `make loc` prints the north-star line count every simplicity PR reports.

GO ?= go

# Packages with nontrivial goroutine interaction: the migration middleware,
# the autonomic runtime, the fault injector, the event sink and everything
# they lean on.
RACE_PKGS = ./internal/proto ./internal/monitor ./internal/registry \
            ./internal/commander ./internal/hpcm ./internal/core \
            ./internal/faults ./internal/metrics ./internal/simnet \
            ./internal/events ./internal/livemig ./internal/malleable \
            ./internal/jobs ./internal/scenario ./internal/persist

.PHONY: all build vet fmtcheck lint test race check ci chaos scale malleable multijob fleet bench benchguard e2e loc

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# gofmt drift fails the build; the shell substitution makes the offending
# files part of the error output.
fmtcheck:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt drift in:"; echo "$$out"; exit 1; fi

# The static gates: formatting, go vet, and the project's own analyzer
# (cmd/reschedvet), which enforces the determinism and robustness
# invariants documented in DESIGN.md ("Static invariants").
lint: fmtcheck vet
	$(GO) run ./cmd/reschedvet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race $(RACE_PKGS)

check: lint build test

# The full gate: everything `check` and `race` run, a repeated race-enabled
# run of the network simulation and experiment suites (flushing out
# order-dependent flakiness in the fair-share solver and the determinism
# fences), a single 64-host scale sweep as an end-to-end smoke of the
# control plane, and the benchmark drift guard.
ci: check
	$(GO) test ./internal/analysis/...
	$(MAKE) race
	$(GO) test -race -count=2 ./internal/simnet ./internal/experiments
	$(GO) run ./cmd/repro -exp scale -hosts 64 -seed 42
	$(GO) run ./cmd/repro -exp malleable -seed 42
	$(GO) run ./cmd/repro -exp multijob -seed 42
	$(GO) run ./cmd/repro -exp fleet -seed 1 -runs 25
	$(GO) run ./cmd/repro -exp fleet -seed 7 -runs 25
	$(MAKE) benchguard

# Every chaos run must print the same fault schedules, trap and check lines,
# counters and span counts: the deterministic section (above `timings`) is
# diffed against the committed golden, and any difference fails.
chaos: build
	$(GO) run ./cmd/repro -exp chaos -seed 42 | awk '/^timings/{exit}{print}' \
		| diff internal/experiments/testdata/chaos.txt -

# The 64/256/512-host sweeps under churn (deterministic outcome section per
# seed; the control-plane measurements below it are approximate).
scale: build
	$(GO) run ./cmd/repro -exp scale -seed 42

# Elastic vs migrate-only vs fixed under seeded host churn (deterministic
# resize trajectories per seed; completion times below are approximate).
malleable: build
	$(GO) run ./cmd/repro -exp malleable -seed 42

# The job-queue policy shoot-out: FIFO vs priority-preemptive vs backfill
# over 64 queued gangs under host churn, three pinned scenarios on the
# fleet runner (byte-deterministic per seed).
multijob: build
	$(GO) run ./cmd/repro -exp multijob -seed 42

# The generated scenario fleet: 100 seeded scenarios through the planner,
# migration model and fault machinery, with per-run report dirs under
# fleet_runs/ (byte-deterministic per seed; see the golden regression in
# internal/scenario).
fleet: build
	$(GO) run ./cmd/repro -exp fleet -seed 1 -runs 100 -rundir fleet_runs

# Scheduling microbenchmarks -> BENCH_scale.json: status-ingest throughput
# (direct vs batched), candidate selection at 512 hosts (state-indexed vs
# the seed's re-sort baseline), the 64->512 growth sweep, the zero-alloc
# multi-part send path, and one whole 64-host sweep end to end. All runs
# carry -benchmem so the reports track B/op and allocs/op alongside ns/op.
# Live-migration microbenchmarks (paged writes, dirty scans, modeled
# downtime) -> BENCH_livemig.json. GUARD is empty here; benchguard sets it,
# and every report ($(1)) is then also compared against the committed copy
# it overwrites.
GUARD =
benchjson = $(GO) run ./cmd/benchjson -o $(1) $(if $(GUARD),-baseline $(1) $(GUARD))

bench: build
	{ $(GO) test -run '^$$' -bench 'BenchmarkRegistryReportStatus|BenchmarkCandidate' \
	      -benchtime 1000x -benchmem ./internal/registry ; \
	  $(GO) test -run '^$$' -bench BenchmarkSendParts -benchtime 1000x -benchmem ./internal/mpi ; \
	  $(GO) test -run '^$$' -bench BenchmarkScale64 -benchtime 1x -benchmem ./internal/experiments ; } \
	| $(call benchjson,BENCH_scale.json)
	$(GO) test -run '^$$' -bench . -benchtime 1000x -benchmem ./internal/livemig \
	| $(call benchjson,BENCH_livemig.json)
	$(GO) test -run '^$$' -bench BenchmarkResize -benchtime 100x -benchmem ./internal/malleable \
	| $(call benchjson,BENCH_malleable.json)
	$(GO) test -run '^$$' -bench BenchmarkAdmission -benchtime 1000x -benchmem ./internal/jobs \
	| $(call benchjson,BENCH_multijob.json)
	{ $(GO) test -run '^$$' -bench 'BenchmarkAppend|BenchmarkSnapshotRoundtrip' \
	      -benchtime 1000x -benchmem ./internal/persist ; \
	  $(GO) test -run '^$$' -bench BenchmarkReplayBootstrap -benchtime 10x -benchmem ./internal/registry ; } \
	| $(call benchjson,BENCH_persist.json)

# Drift guard: the bench recipe, with each regenerated report compared to
# the committed one and failing if any benchmark regressed more than 3x — a
# coarse fence against algorithmic regressions (and >3x downtime blowups in
# the live migration model) that survives machine-to-machine ns/op
# variation. The same fence applies to allocs/op where both sides measured
# it, so an allocation creeping back onto a zero-alloc hot path fails the
# gate.
benchguard: GUARD = -max-ratio 3
benchguard: bench

# The end-to-end benchmark the PR driver runs (BENCHMARK.json): six
# closed-loop workloads, eight end-to-end metrics each, ~10 s per workload.
e2e:
	$(GO) run ./cmd/bench -workload all -seed 1

# The north-star number (ROADMAP "Quality of design"): non-test Go lines
# outside the frozen benchmark and the analyzer fixtures.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './cmd/bench/*' \
		! -path '*/testdata/*' -print0 | xargs -0 cat | wc -l
