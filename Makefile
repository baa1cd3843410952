# GAIA-Go build targets. Everything is stdlib Go; `go` >= 1.22 suffices.

GO ?= go

.PHONY: all build vet lint test race cover bench bench-json bench-check bench-quick bench-module-test load-smoke figures figures-full figures-check examples serve clean

# CI's steps in CI's order (.github/workflows/ci.yml), then the snapshot
# bench gate, which CI leaves out: a green `make all` checks at least what
# CI checks.
all: build lint test race load-smoke examples figures-check bench-quick bench-module-test bench-check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Style gate: gofmt must have nothing to rewrite, go vet must be clean.
lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...

test:
	$(GO) test ./...

# The sweep engine runs simulation cells concurrently; keep it race-clean.
race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./internal/... ./cmd/...

# Every benchmark in the module: the root package's figure + hot-path
# benchmarks and any per-package micro-benchmarks. -run='^$' skips the
# unit tests.
bench:
	$(GO) test -run='^$$' -bench=. -benchmem ./...

# Machine-readable snapshot of the hot-path + scaling benchmarks (see
# cmd/gaia-bench). BENCH_JSON names the snapshot this PR commits;
# bench-check replays the same benchmarks and fails on >15% ns/op
# regressions against BENCH_BASELINE, the previous PR's snapshot (only
# benchmarks present in both are compared, so new benchmarks simply
# start their history in the new snapshot).
BENCH_JSON ?= BENCH_PR10.json
BENCH_LABEL ?= pr10
BENCH_BASELINE ?= BENCH_PR9.json
BENCH_PATTERN = SchedulerThroughput|MillionJobRun|DirectRun|PolicyDecide|WaitAwhilePlan|CarbonIntegral|SuiteColdVsWarm|Fingerprint|AdviseThroughput|AdviseBatch|SimulateColdVsWarm|EventCore|Chatty|ReservedSweepPlanReuse|ElasticYear|DAGCriticalPath
# -count=3: gaia-bench keeps each benchmark's fastest sample, which damps
# scheduler noise on shared machines enough for the 15% gate to be stable.
bench-json:
	$(GO) test -run='^$$' -bench='$(BENCH_PATTERN)' -count=3 \
		-benchmem . | $(GO) run ./cmd/gaia-bench -label $(BENCH_LABEL) -o $(BENCH_JSON)

bench-check:
	$(GO) test -run='^$$' -bench='$(BENCH_PATTERN)' -count=3 \
		-benchmem . | $(GO) run ./cmd/gaia-bench -baseline $(BENCH_BASELINE)

# Fast CI smoke of the run-path micro-benchmarks: a short -benchtime run
# that exists to execute the wheel, heap, direct and plan-replay paths,
# the engine's suspend-resume and spot paths (Fig08Policies runs
# WaitAwhile and Ecovisor plans, Fig12SpotReserved Spot-First and
# Spot-RES), the node-level prototype runtime and million-job trace
# construction (GenerateTrace: generation and NewTrace over a shuffled
# trace) and the year-engine WaitAwhile cell (WaitAwhileYear: rolling rank
# window, borrowed plans, allocs/job) under bench conditions
# (and catch gross regressions or panics; PrototypeScale takes seconds
# per op if node acquisition falls back to fleet scans), not to produce stable
# numbers — those come from the committed BENCH_PR*.json snapshots.
# DirectRun runs at -cpu 1,2: one shard, whose replay computes the schedule
# columns in its accounting pass, and two, whose columns run on the second
# core beside the sort and sweep. The
# -race pass replays the run-path differentials under
# the race detector at a fixed parallelism, so every bench-quick run also
# re-proves the direct path bit-identical to the engine and plan replays
# bit-identical to full runs (cold-then-warm sweep with plan hits
# asserted in TestReservedSweepSharesPlans). The -race list also replays
# the elastic degenerate differential (rigid jobs byte-identical under the
# elastic machinery), the resize/cancel-storm wheel-vs-heap fuzz seeds, the
# shard-private usage-delta fill, the shard-boundary cases of the
# replay's parallel validation scans, and concurrent replays of one plan
# racing its memo's publication (shared schedule columns never written),
# and a multi-shard direct run canceled at each of its probes, which must
# join the column workers beside its sweep (TestCanceledDirectRunJoinsWorkers).
# It also replays runcache's single flight, shared by the result and plan
# tiers: one computation for concurrent callers, cancellation only when
# the last waiter leaves, distinct keys independent, a retired flight
# never evicting its successor, a panic returned as the flight's error
# (TestFlight*), a waiter with a live context getting the result after
# the caller that started the computation gave up
# (TestRunContextWaiterOutlivesCanceledLeader), and the memory budget's
# evictions racing runs, joins, peer PUTs and GETs on the same keys
# (TestMemoryEvictionRaces), and carbon's oracle memo clearing at its
# bound while concurrent callers look up, build and read tables
# (TestOracleMemoClearRaces). go test -run skips an
# entry that matches no test without complaint, so bench-quick first
# checks that every entry matches a test `go test -list` reports in the
# listed packages, and fails naming any entry that does not.
BENCH_QUICK_RACE = TestFiguresIdenticalAcrossRunPaths|TestDirectMatchesEngine|TestShardedFillMatchesAddJob|TestShardedScan|TestReservedSweepSharesPlans|TestPlanReplayMatchesDirect|TestConcurrentPlanReplays|TestPlanTier|TestElasticDegenerateMatchesRigid|TestElasticStormWheelVsHeap|TestFiguresIdenticalElasticDegenerate|TestFlightSharesOneComputation|TestFlightCancelsWhenAllLeave|TestFlightDistinctKeysRunIndependently|TestFlightGenerationCheck|TestFlightPanicBecomesError|TestRunContextWaiterOutlivesCanceledLeader|TestMemoryEvictionRaces|TestOracleMemoClearRaces|TestCanceledDirectRunJoinsWorkers
BENCH_QUICK_PKGS = ./internal/experiments ./internal/core ./internal/metrics ./internal/runcache ./internal/carbon
bench-quick:
	@listed=$$($(GO) test -list . $(BENCH_QUICK_PKGS)) || exit 1; \
	for name in $$(echo '$(BENCH_QUICK_RACE)' | tr '|' ' '); do \
		echo "$$listed" | grep -q -- "$$name" || { \
			echo "bench-quick: -run entry $$name matches no test in $(BENCH_QUICK_PKGS)" >&2; exit 1; }; \
	done
	$(GO) test -run='^$$' -bench='EventCore|Chatty|ReservedSweepPlanReuse|ElasticYear|DAGCriticalPath|X04Prototype|PrototypeScale|Fig08Policies|Fig12SpotReserved|GenerateTrace|WaitAwhileYear' -benchtime=0.1s -benchmem .
	$(GO) test -run='^$$' -bench='DirectRun' -cpu 1,2 -benchtime=0.1s -benchmem .
	$(GO) test -race -cpu 4 -run '$(BENCH_QUICK_RACE)' $(BENCH_QUICK_PKGS)

# The benchmark (benchmark/) is a module of its own that imports this one
# through a replace, so the root `go test ./...` never compiles it: an
# exported core/metrics/runcache API change could break it unnoticed. This
# vets it and runs its unit tests, including TestSmoke (every workload at
# tiny scale, about 10 s).
bench-module-test:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# End-to-end fleet smoke test: gaia-load boots two gaia-serve replicas
# joined into one cache tier, drives a short mixed load, and fails unless
# a cell computed on one replica is served as a remote hit on the other
# with zero transport errors. -race catches cross-replica data races.
load-smoke:
	$(GO) run -race ./cmd/gaia-load -smoke -duration 2s

# Regenerate the evaluation tables (quick scale; figures-full = paper scale).
figures:
	$(GO) run ./cmd/gaia-exp -all -outdir results-quick

figures-full:
	$(GO) run ./cmd/gaia-exp -all -full -outdir results

# Paper-scale reproduction check: regenerate every figure at full scale
# into a temp dir and require each .txt to equal its copy in results/
# byte for byte, with no file missing on either side (~10 s on 2 cores).
figures-check:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/gaia-exp -all -full -outdir "$$tmp" >/dev/null && \
	rm -f "$$tmp"/*.tsv && \
	diff -ru results "$$tmp" && echo "figures-check: results/ reproduced byte for byte"

examples:
	@for d in examples/*/; do echo "== $$d"; $(GO) run ./$$d || exit 1; done

# Run the advisory service locally (ctrl-C drains gracefully). Override
# SERVE_FLAGS for knobs, e.g. make serve SERVE_FLAGS='-addr :9000'.
SERVE_FLAGS ?=
serve:
	$(GO) run ./cmd/gaia-serve $(SERVE_FLAGS)

clean:
	rm -rf results-quick
