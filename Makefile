# Build/verification entry points. Tier 1 is the repo's must-stay-green
# gate; tier 2 adds vet and the race detector over the parallel
# experiment runner (slower: simulations run under -race).

GO ?= go

.PHONY: build vet test test-race test-short bench benchcmp tier1 tier2 fleet-e2e perfbench all

all: tier1

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# Race runs simulate 2-4x slower; the harness package alone needs more
# than go test's default 10m package timeout on small machines.
test-race:
	$(GO) test -race -timeout 60m ./...

# fleet-e2e: the coordinator/worker smoke under the race detector —
# 1 coordinator + 2 in-process workers sharing a cache dir, figure sha
# asserted against a local single-process run, one worker killed
# mid-sweep with the exactly-once store-write oracle checked after.
fleet-e2e:
	$(GO) test -race -timeout 30m -run 'TestFleetE2E' -v ./internal/fleet/

# perfbench: vet and test the repo benchmark (perfbench/, a nested module
# importing repro/internal/* through a replace directive). Neither `go
# build ./...` nor `go test ./...` descends into it, so an internal API
# change that breaks the benchmark only shows up here.
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# bench: regenerate the tracked bench/BENCH_sim.json performance baseline.
# Macro benchmarks (figure, matrix, workload and big-mesh pipelines) run
# once per sub-benchmark; the static-table benchmarks (Table*,
# AreaOverhead) and the micro benchmarks (engine, cache bank, NoC hot
# paths, trace generation) run with Go's auto benchtime for stable
# ns/op and allocs/op — one cold call of a microsecond-scale table is
# mostly noise. benchjson records them with the host's CPU count and
# GOMAXPROCS. End-to-end wall time is perfbench's job (bash
# perfbench/run.sh), which measures it with a spread protocol.
BENCH_MACRO = ^Benchmark(Fig|Matrix|Workload|BigMesh)
BENCH_STATIC = ^Benchmark(Table|AreaOverhead)
BENCH_MICRO_PKGS = ./internal/sim ./internal/cache ./internal/noc ./internal/core ./internal/cpu
BENCH_DIR = bench
# BENCH_THRESHOLD is the max tolerated new/old ns-per-op (and allocs)
# ratio benchcmp accepts; CI overrides it upward because shared runners
# are noisy.
BENCH_THRESHOLD ?= 1.10

bench:
	mkdir -p $(BENCH_DIR)
	$(GO) test -run=^$$ -bench='$(BENCH_MACRO)' -benchmem -benchtime=1x . | tee $(BENCH_DIR)/macro.txt
	$(GO) test -run=^$$ -bench='$(BENCH_STATIC)' -benchmem . | tee -a $(BENCH_DIR)/macro.txt
	$(GO) test -run=^$$ -bench=. -benchmem $(BENCH_MICRO_PKGS) | tee $(BENCH_DIR)/micro.txt
	$(GO) run ./cmd/benchjson -o $(BENCH_DIR)/BENCH_sim.json $(BENCH_DIR)/macro.txt $(BENCH_DIR)/micro.txt

# benchcmp: the local performance gate. Re-runs the benchmarks into a
# scratch report and diffs it against the tracked baseline; fails past a
# BENCH_THRESHOLD per-benchmark ns/op or allocs/op regression. Run it on
# a quiet machine — 1x macro iterations are noisy, so treat a small
# flagged delta as a prompt to re-run, not as ground truth. benchcmp
# checks no figure digest; TestFigureDigestsMatchGolden gates figure
# bytes in tier1.
benchcmp:
	mkdir -p $(BENCH_DIR)
	$(GO) test -run=^$$ -bench='$(BENCH_MACRO)' -benchmem -benchtime=1x . | tee $(BENCH_DIR)/macro.new.txt
	$(GO) test -run=^$$ -bench='$(BENCH_STATIC)' -benchmem . | tee -a $(BENCH_DIR)/macro.new.txt
	$(GO) test -run=^$$ -bench=. -benchmem $(BENCH_MICRO_PKGS) | tee $(BENCH_DIR)/micro.new.txt
	$(GO) run ./cmd/benchjson -o $(BENCH_DIR)/BENCH_new.json $(BENCH_DIR)/macro.new.txt $(BENCH_DIR)/micro.new.txt
	$(GO) run ./cmd/benchjson -compare -threshold $(BENCH_THRESHOLD) $(BENCH_DIR)/BENCH_sim.json $(BENCH_DIR)/BENCH_new.json

# tier1: the seed gate — must always pass.
tier1: build test

# tier2: vet + race over the full suite — including the pooled event
# queue, lock pool, and per-line tables, which must stay engine-local
# (never shared across runner workers), and internal/serve's overlapping
# submit/cancel/drain traffic; run before merging runner/harness/serve or
# pooling changes.
tier2: vet test-race
