GO ?= go

.PHONY: all build vet test race check bench-smoke fleet-smoke fuzz bench bench-baseline bench-check bench-grid bench-trajectory cover examples experiments serve clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# race runs the whole module under the race detector — the parallel runner
# makes every package's batch paths multi-threaded, so all of them count.
race:
	$(GO) test -race ./...

# check is the full pre-merge gate: compile, static analysis, tests, races,
# the end-to-end benchmark's own tests, and the fleet of real daemons.
check: build vet test race bench-smoke fleet-smoke

# bench-smoke compiles and tests benchmarks/wrtbench. It is a Go module of its
# own, so the root build and test never see it, yet it calls the serve,
# cluster, store and runner APIs; -short skips its traced smoke runs.
bench-smoke:
	cd benchmarks/wrtbench && GOWORK=off $(GO) test -short ./...

# fleet-smoke boots store-backed wrtserved workers behind a wrtcoord
# coordinator as separate processes and runs a 300-point grid through them:
# byte-identical to the in-process CSV on every pass, fully cached on
# resubmission, served from disk after a full restart, and handed to a
# worker joining at runtime (see README "Running a cluster").
fleet-smoke:
	scripts/fleet-smoke.sh

# fuzz runs each JSON-decoder fuzz target for FUZZTIME (go requires one
# -fuzz pattern per invocation). New inputs that trip a failure are written
# to testdata/fuzz/ — commit the minimised case as a regression seed.
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run='^$$' -fuzz='^FuzzParseScenario$$' -fuzztime=$(FUZZTIME) .
	$(GO) test -run='^$$' -fuzz='^FuzzDestSpec$$' -fuzztime=$(FUZZTIME) .
	$(GO) test -run='^$$' -fuzz='^FuzzFaultSpec$$' -fuzztime=$(FUZZTIME) .
	$(GO) test -run='^$$' -fuzz='^FuzzSubmitRequest$$' -fuzztime=$(FUZZTIME) ./internal/serve
	$(GO) test -run='^$$' -fuzz='^FuzzBatchRequest$$' -fuzztime=$(FUZZTIME) ./internal/serve

bench:
	$(GO) test -bench=. -benchmem ./...

# bench-baseline records the current machine's numbers as the regression
# reference; bench-check re-runs the suite and fails if any benchmark is
# more than BENCH_MAX_REGRESSION_PCT (default 10) percent slower.
bench-baseline:
	scripts/bench.sh benchmarks/baseline.txt

bench-check:
	scripts/bench.sh benchmarks/latest.txt
	scripts/bench-compare.sh benchmarks/baseline.txt benchmarks/latest.txt

# bench-grid measures whole-grid scenario throughput through the runner
# (BenchmarkGridThroughput): runs/sec and allocs/run for the fresh build
# path vs a pooled arena carried across batches. This is the sweep-scale
# companion to the per-slot benchmarks; see benchmarks/README.md.
bench-grid:
	$(GO) test -run='^$$' -bench=BenchmarkGridThroughput -benchmem -count=3 ./internal/runner

# bench-trajectory appends the tracked hot-path benchmarks (RunForN64,
# KernelScheduleAndFire) as the next point in the committed perf trajectory
# (benchmarks/bench_results.csv) and emits a BENCH_<n>.json snapshot.
# See benchmarks/README.md "Perf trajectory".
bench-trajectory:
	scripts/bench-trajectory.sh

cover:
	$(GO) test -cover ./...

examples:
	for e in quickstart conference multimedia recovery multiring allocation; do \
		echo "== $$e"; $(GO) run ./examples/$$e || exit 1; \
	done

experiments:
	$(GO) run ./cmd/wrtexperiments > EXPERIMENTS.md

# serve launches the scenario service (see README "Running as a service").
PORT ?= 8080
serve:
	$(GO) run ./cmd/wrtserved -addr :$(PORT)

clean:
	$(GO) clean ./...
