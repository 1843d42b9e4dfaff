# Developer entry points. `make check` is what CI (and the tier-1 verify)
# runs; `make lint` runs the static gates (gofmt, go vet, reschedvet);
# `make race` additionally race-tests the concurrency-heavy packages;
# `make ci` is the full gate (lint + build + test + race, a repeated race
# run of the simulation/experiment packages, ten seconds of each fuzz
# target, the byte-determinism check of every simulated report, and the
# 64-host scale, malleability, multi-job and fleet smokes);
# `make fuzz` runs the fuzz targets alone; `make bench` prints the
# microbenchmarks (a developer tool: nothing is written or committed);
# `make e2e` runs the end-to-end benchmark (cmd/bench, every workload in
# BENCHMARK.json);
# `make loc` prints the north-star line count every simplicity PR reports,
# `make loc-pkg` the same count per package and `make allows` the two
# `//lint:allow` counts ROADMAP's behaviour fence quotes, failing above them.

GO ?= go

# Packages with nontrivial goroutine interaction: the migration middleware
# and the message passing, virtual clock and paged workloads it rides on,
# the autonomic runtime, the fault injector, the event sink and everything
# they lean on.
RACE_PKGS = ./internal/proto ./internal/monitor ./internal/registry \
            ./internal/hpcm ./internal/core ./internal/faults \
            ./internal/metrics ./internal/sim ./internal/livemig \
            ./internal/malleable ./internal/jobs ./internal/scenario \
            ./internal/persist ./internal/mpi ./internal/vclock \
            ./internal/workload

.PHONY: all build vet fmtcheck lint test race fuzz check ci chaos determinism scale malleable multijob fleet bench e2e loc loc-pkg allows

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

# The fuzz targets, FUZZTIME each (their seed corpora already run under
# plain `go test`): the wire codec against encoding/xml in both directions,
# and the state image reader, the journal's frame reader and its payload
# decoder on arbitrary bytes.
FUZZTIME ?= 10s

fuzz:
	$(GO) test -run '^$$' -fuzz FuzzDecodeDifferential -fuzztime $(FUZZTIME) ./internal/proto
	$(GO) test -run '^$$' -fuzz FuzzEncodeDifferential -fuzztime $(FUZZTIME) ./internal/proto
	$(GO) test -run '^$$' -fuzz FuzzUnmarshalImage -fuzztime $(FUZZTIME) ./internal/hpcm
	$(GO) test -run '^$$' -fuzz FuzzReadFrame -fuzztime $(FUZZTIME) ./internal/persist
	$(GO) test -run '^$$' -fuzz FuzzJournalDecode -fuzztime $(FUZZTIME) ./internal/registry

check: lint build test

# The full gate: everything `check` and `race` run, a repeated race-enabled
# run of the testbed simulation and experiment suites (flushing out
# order-dependent flakiness in the fair-share solver and the determinism
# fences), of the dispatcher's plan-then-reserve and requeue regressions
# (reserve in the planning cycle, two preemptors of one victim, a requeued
# victim's held hosts, requeue before release, a migrate eviction's
# destination held until the gang lands, the ledger following the
# registry's first fit onto a shared host, a timed-out eviction giving
# the victim back the hosts it lent), of the live migrations whose
# application writes its paged region while precopy rounds are on the
# wire and of a stop-and-copy whose destination writes the lazy arrays it
# adopted (a page or an array the destination adopted and the source still
# wrote would be a data race), of a process migrated live twice, whose
# second round 1 copies into the region the first one retired, and of a
# live, a fallen-back and a live migration in a row (no stop-and-copy may
# hand a round the region its destination adopted), of the Jacobi migrated
# both ways (its sweep writes the adopted flat grid or paged region in
# place), of the elastic Jacobi (each rank mutates its row block in place
# between halo exchanges and drains, and keeps stepping it after an aborted
# resize while the root still holds the shard it drained), of a paged
# region's row writes beside concurrent snapshots (a snapshot must see
# each row whole: the write barrier holds the region lock for the whole
# row, and a whole-region snapshot that copies a run of pages
# per hold copies every page written meanwhile again), of the two jobs-crash
# chaos scenarios (the commit-failure edge), of the proto client and server over real TCP (the
# client's one re-dial), of a standby reading the store while the
# primary writes it or compacts it, checked down to the state sets its
# catch-up rebuilds, and of concurrent gang admissions and the one
# eligibility rule (the registry journals every gang reservation and
# resolution through one record of each kind, refilled under its lock), of
# the Auto clock and its Events (Fire marks a parked goroutine's slot and
# may settle the clock from a goroutine that is not the settling one, off
# the clock included), the
# determinism check of every seed-42 report (fig5-8, table2, chaos, the
# 64-host scale sweep, malleable, livemig and multijob), and a single
# 64-host scale sweep, the malleability and multi-job reports and two small
# fleets as end-to-end smokes of the control plane.
ci: check
	$(MAKE) race
	$(GO) test -race -count=2 ./internal/sim ./internal/experiments
	$(GO) test -race -count=200 -run 'TestRunCycleReservesBeforeExecuting$$|TestTwoPreemptorsOfOne|TestRequeuedVictimKeepsItsHostsUntilPending$$|TestCommitFailureRequeuesBeforeRelease$$|TestMigrateEvictionHoldsItsDestination$$|TestLedgerFollowsFirstFit$$|TestTimedOutEvictionGivesTheVictimItsHostsBack$$' ./internal/core
	$(GO) test -race -count=50 -run 'TestLiveMigrationFreezesAndPreservesRegion$$|TestLiveFallbackRunsClassicMigration$$|TestEndingMidPrecopyReleasesTheDestination$$|TestStopAndCopyHandsOverLazyState$$|TestSecondLiveMigrationCopiesIntoTheRetiredRegion$$|TestLiveFallbackThenLiveKeepsTheRegion$$' ./internal/hpcm
	$(GO) test -race -count=50 -run 'TestSnapshotSeesWholeRowWrites$$|TestWholeSnapshotSeesWholeRowWritesAcrossRuns$$' ./internal/livemig
	$(GO) test -race -count=20 -run 'TestJacobiSurvivesMigration$$|TestJacobiPagedSurvivesLiveMigration$$' ./internal/workload
	$(GO) test -race -count=20 -run 'TestElasticJacobi' ./internal/workload
	$(GO) test -count=200 -run 'TestChaosJobsScenariosDeterministic$$' ./internal/experiments
	$(GO) test -race -count=20 -run 'TestClient|TestServer' ./internal/proto
	$(GO) test -race -count=50 -run 'TestStandbySyncsWhilePrimaryWrites$$|TestStandbyCatchUpSpansACompaction$$|TestRestoreOrdersHostsByRegistration$$' ./internal/registry
	$(GO) test -race -count=20 -run 'TestGangConcurrentAdmissions|TestOneEligibilityRule' ./internal/registry
	$(GO) test -race -count=20 -run 'TestAuto|TestEvent' ./internal/vclock
	$(MAKE) fuzz
	$(MAKE) determinism
	$(GO) run ./cmd/repro -exp scale -hosts 64 -seed 42
	$(GO) run ./cmd/repro -exp malleable -seed 42
	$(GO) run ./cmd/repro -exp multijob -seed 42
	$(GO) run ./cmd/repro -exp fleet -seed 1 -runs 25
	$(GO) run ./cmd/repro -exp fleet -seed 7 -runs 25
	@$(MAKE) --no-print-directory loc-pkg allows

# Every chaos run must print the same fault schedules, trap and check lines,
# counters, span counts, timings and phase quantiles: the whole report is
# diffed against the committed golden, and any difference fails.
chaos: build
	$(GO) run ./cmd/repro -exp chaos -seed 42 | diff internal/experiments/testdata/chaos.txt -

# Every simulated report is a pure function of its seed on the Auto clock:
# each is printed twice for seed 42 and the two must be byte-identical, and
# so must the -metrics dumps of chaos and the 64-host scale sweep.
REPRO = $(GO) run ./cmd/repro -seed 42
determinism: build
	@for exp in fig5 fig6 fig7 fig8 table2 chaos "scale -hosts 64" malleable livemig multijob; do \
		a="$$($(REPRO) -exp $$exp)" && b="$$($(REPRO) -exp $$exp)" || exit 1; \
		[ "$$a" = "$$b" ] || { echo "-exp $$exp differs between two runs"; exit 1; }; \
		echo "-exp $$exp: byte-identical"; \
	done
	@d="$$(mktemp -d)"; trap 'rm -rf "$$d"' EXIT; \
	for exp in chaos "scale -hosts 64"; do \
		$(REPRO) -exp $$exp -metrics $$d/a.json >/dev/null && \
		$(REPRO) -exp $$exp -metrics $$d/b.json >/dev/null || exit 1; \
		cmp -s $$d/a.json $$d/b.json || { echo "-exp $$exp -metrics differs between two runs"; exit 1; }; \
		echo "-exp $$exp -metrics: byte-identical"; \
	done

# The 64/256/512-host sweeps under churn (byte-identical per seed).
scale: build
	$(GO) run ./cmd/repro -exp scale -seed 42

# Elastic vs migrate-only vs fixed under seeded host churn (byte-identical
# per seed, completion times included).
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

# The microbenchmarks, to stdout: the wire codec per message kind beside
# the encoding/xml reference, one heartbeat's round trip through a Server
# over loopback, status-ingest throughput,
# candidate selection at 512 hosts (state-indexed vs the seed's re-sort
# baseline), the 64->512 growth sweep, the dispatcher's fleet snapshot and
# one journalled gang admission at 256 hosts, the zero-alloc multi-part
# send path, one whole 64-host sweep, paged row reads and writes / dirty
# scans / modeled downtime, one N=1024 Jacobi sweep flat and paged and its
# row kernel alone, one step of a one-rank N=130 elastic Jacobi block, a
# stop-and-copy and a live migration by state size (B/op
# prices hpcm's data path), resizes, admission by queue depth, and the
# persist append, snapshot fold, snapshot write and replay paths, and one
# resume decision of the Auto clock with 64, 512 and 2 048 goroutines
# parked on timers plus a shared Event. A
# developer tool: regressions are gated by
# `make e2e`'s allocation bounds and the AllocsPerRun tests, not by these.
bench: build
	$(GO) test -run '^$$' -bench 'BenchmarkCodec|BenchmarkHeartbeatRoundTrip' -benchtime 10000x -benchmem ./internal/proto
	$(GO) test -run '^$$' -bench 'BenchmarkRegistryReportStatus|BenchmarkCandidate|BenchmarkSnapshotFold|BenchmarkEligibleHosts|BenchmarkGangAdmission' \
		-benchtime 1000x -benchmem ./internal/registry
	$(GO) test -run '^$$' -bench BenchmarkSendParts -benchtime 1000x -benchmem ./internal/mpi
	$(GO) test -run '^$$' -bench BenchmarkScale64 -benchtime 1x -benchmem ./internal/experiments
	$(GO) test -run '^$$' -bench . -benchtime 1000x -benchmem ./internal/livemig
	$(GO) test -run '^$$' -bench 'BenchmarkJacobiSweep|BenchmarkRelaxRow|BenchmarkElasticStep' -benchtime 20x -benchmem ./internal/workload
	$(GO) test -run '^$$' -bench 'BenchmarkMigration|BenchmarkLiveMigration' -benchtime 10x -benchmem ./internal/hpcm
	$(GO) test -run '^$$' -bench BenchmarkResize -benchtime 100x -benchmem ./internal/malleable
	$(GO) test -run '^$$' -bench BenchmarkAdmission -benchtime 1000x -benchmem ./internal/jobs
	$(GO) test -run '^$$' -bench 'BenchmarkAppend|BenchmarkSnapshotRoundtrip' \
		-benchtime 1000x -benchmem ./internal/persist
	$(GO) test -run '^$$' -bench BenchmarkReplayBootstrap -benchtime 10x -benchmem ./internal/registry
	$(GO) test -run '^$$' -bench BenchmarkAutoResume -benchtime 100000x -benchmem ./internal/vclock

# The end-to-end benchmark the PR driver runs (BENCHMARK.json): six
# closed-loop workloads, eight end-to-end metrics each, ~10 s per workload.
e2e:
	$(GO) run ./cmd/bench -workload all -seed 1

# The north-star number (ROADMAP "Quality of design"): non-test Go lines
# outside the frozen benchmark and the analyzer fixtures.
LOC = find $(1) -name '*.go' ! -name '*_test.go' ! -path '*cmd/bench/*' \
	! -path '*/testdata/*' -print0 | xargs -0 cat | wc -l

loc:
	@$(call LOC,.)

# The same rule per package: one line per internal/* and cmd/* directory
# (cmd/bench is frozen and not counted), for the before/after tables.
loc-pkg:
	@for d in internal/* cmd/*; do \
		[ "$$d" = cmd/bench ] && continue; \
		printf '%6d %s\n' "$$($(call LOC,$$d))" "$$d"; \
	done

# The escape-hatch count that may only go down: `//lint:allow` comments
# outside the analyzer and its fixtures, then in the whole tree. Either
# count above its fence (ROADMAP: 7 and 23) fails; lower the fence with
# the count.
allows:
	@outside="$$(grep -r --include='*.go' 'lint:allow' . | grep -v -c -e /testdata/ -e '^./internal/analysis')"; \
	all="$$(grep -r --include='*.go' 'lint:allow' . | wc -l)"; \
	printf 'lint:allow %d outside fixtures and internal/analysis, %d in all\n' "$$outside" "$$all"; \
	if [ "$$outside" -gt 7 ] || [ "$$all" -gt 23 ]; then \
		echo "lint:allow above the fence (7 outside, 23 in all)"; exit 1; fi
