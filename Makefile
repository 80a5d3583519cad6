# Development entry points. `make check` is what CI runs.

GO ?= go
BENCHTIME ?= 100ms

.PHONY: check build test vet race fuzz perfbench bench benchsmoke servesmoke retrysmoke batchsmoke persistsmoke streamsmoke shardsmoke fedsmoke

check: vet build test race fuzz perfbench retrysmoke servesmoke batchsmoke persistsmoke streamsmoke shardsmoke fedsmoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# fuzz runs the two differential fuzz targets for 10 s each (go test
# -fuzz takes one target per run): the k <= 1 edit-distance fast paths
# against the DP, and the exact typo probe against brute force.
fuzz:
	$(GO) test -run=NONE -fuzz='^FuzzEditDistance$$' -fuzztime=10s ./internal/urlutil
	$(GO) test -run=NONE -fuzz='^FuzzDomainNeighbors$$' -fuzztime=10s ./internal/archive

# bench runs the archive and analysis benchmarks and records the
# results (name -> ns/op, B/op, allocs/op) in BENCH_PR2.json via
# cmd/benchjson, so each PR's perf numbers are a diffable artifact.
# Raise BENCHTIME (e.g. BENCHTIME=1s) for more stable numbers.
bench:
	$(GO) test -bench=. -benchmem -benchtime=$(BENCHTIME) -run=^$$ ./internal/archive . \
		| $(GO) run ./cmd/benchjson -o BENCH_PR2.json

# benchsmoke compiles and runs every benchmark exactly once — a CI
# guard that the benchmarks keep building and don't panic.
benchsmoke:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# retrysmoke runs the retry-policy ablation over a fully flaky small
# universe and fails unless the false-dead rate strictly decreases
# single-GET -> retry -> confirmation (DESIGN.md 3.4).
retrysmoke:
	$(GO) run ./cmd/ablate -scale 0.06 -seed 1 -flaky 1 -flaky-rate 0.6 -smoke

# perfbench vets and tests the nested benchmark module, which the root
# build and test do not reach.
perfbench:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# The end-to-end smoke scenarios (cmd/smoke; each scenario's gates are
# listed in its doc comment there):
#   servesmoke   every endpoint once, two loadgen rounds, cache hits, zero 5xx
#   batchsmoke   NDJSON batch load, prefilter on and off, p99 bound
#   persistsmoke paged cold start, gob-vs-paged verdict identity, throughput parity
#   streamsmoke  the monitor's SSE contract, journal on disk, SSE fan-out p99
#   shardsmoke   fleet verdict parity, rebalance, degraded mode, >= 3x at 4 shards
#   fedsmoke     federation byte parity, coverage gain, hedged p99, scenario grid
servesmoke:
	$(GO) run ./cmd/smoke serve
batchsmoke:
	$(GO) run ./cmd/smoke batch
persistsmoke:
	$(GO) run ./cmd/smoke persist
streamsmoke:
	$(GO) run ./cmd/smoke stream
shardsmoke:
	$(GO) run ./cmd/smoke shard
fedsmoke:
	$(GO) run ./cmd/smoke fed
