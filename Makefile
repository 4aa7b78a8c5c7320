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
# than go test's default 10m package timeout on small machines. The run
# includes the parallel-DES shard suite (sim/noc/machine shard tests force
# cross-goroutine windows even on one processor; the harness grid test
# drives whole figures at -shards {1,2,4} × -j {1,8}).
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
# Macro benchmarks (BenchmarkMatrix: whole figure pipelines) run once per
# sub-benchmark; micro benchmarks (engine, cache bank, NoC, flatmap hot
# paths, trace generation) run with Go's auto benchtime for stable ns/op
# and allocs/op.
# benchjson then times a full `nsexp -all -quick` regeneration and records
# its wall-clock and output sha256 alongside the parsed results, plus the
# shard-barrier stall total of a 2-shard figure run (the parallel-DES
# load-balance signal benchcmp tracks).
BENCH_MICRO_PKGS = ./internal/sim ./internal/cache ./internal/noc ./internal/flatmap ./internal/core ./internal/cpu
BENCH_DIR = bench
# BENCH_THRESHOLD is the max tolerated new/old ns-per-op (and allocs)
# ratio benchcmp accepts; CI overrides it upward because shared runners
# are noisy.
BENCH_THRESHOLD ?= 1.10

bench:
	mkdir -p $(BENCH_DIR)
	$(GO) build -o bin/nsexp ./cmd/nsexp
	$(GO) test -run=^$$ -bench=. -benchmem -benchtime=1x . | tee $(BENCH_DIR)/macro.txt
	$(GO) test -run=^$$ -bench=. -benchmem $(BENCH_MICRO_PKGS) | tee $(BENCH_DIR)/micro.txt
	./bin/nsexp -fig 9 -quick -shards 2 -report $(BENCH_DIR)/stalls.json > /dev/null
	$(GO) run ./cmd/benchjson -o $(BENCH_DIR)/BENCH_sim.json -stalls $(BENCH_DIR)/stalls.json $(BENCH_DIR)/macro.txt $(BENCH_DIR)/micro.txt -- ./bin/nsexp -all -quick

# benchcmp: the local performance gate. Re-runs the benchmarks into a
# scratch report (no wall-clock run, so it is much faster than `make
# bench`) and diffs it against the tracked baseline; fails past a
# BENCH_THRESHOLD per-benchmark ns/op or allocs/op regression. Run it on
# a quiet machine — 1x macro iterations are noisy, so treat a small
# flagged delta as a prompt to re-run, not as ground truth. With no timed
# command the scratch report records no output sha256, so benchcmp checks
# no figure digest; TestFigureDigestsMatchGolden gates figure bytes in tier1.
benchcmp:
	mkdir -p $(BENCH_DIR)
	$(GO) build -o bin/nsexp ./cmd/nsexp
	$(GO) test -run=^$$ -bench=. -benchmem -benchtime=1x . | tee $(BENCH_DIR)/macro.new.txt
	$(GO) test -run=^$$ -bench=. -benchmem $(BENCH_MICRO_PKGS) | tee $(BENCH_DIR)/micro.new.txt
	./bin/nsexp -fig 9 -quick -shards 2 -report $(BENCH_DIR)/stalls.new.json > /dev/null
	$(GO) run ./cmd/benchjson -o $(BENCH_DIR)/BENCH_new.json -stalls $(BENCH_DIR)/stalls.new.json $(BENCH_DIR)/macro.new.txt $(BENCH_DIR)/micro.new.txt
	$(GO) run ./cmd/benchjson -compare -threshold $(BENCH_THRESHOLD) $(BENCH_DIR)/BENCH_sim.json $(BENCH_DIR)/BENCH_new.json

# tier1: the seed gate — must always pass.
tier1: build test

# tier2: vet + race over the full suite — including the pooled event
# queue, lock pool, and flatmap tables, which must stay engine-local
# (never shared across runner workers), internal/serve's overlapping
# submit/cancel/drain traffic, and the sharded parallel-DES windows; run
# before merging runner/harness/serve, pooling, or shard-exchange changes.
tier2: vet test-race
