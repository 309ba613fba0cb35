GO ?= go

.PHONY: build test modes bench bench-json bench-gate bench-progressive bench-e2e bench-selftest bench-compare profile profile-shape profile-heap vet lint staticcheck loc

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# The test modes CI runs after the plain suite, one row each: a name, then the
# command. par4 pins 4 scheduler threads so the chunk-morsel fan-out and the
# parallel≡serial tests use several workers; faultinject fires the
# internal/faultpoint sites; force-encodings dict/RLE/delta-encodes every
# sealed chunk; the spill rows flush every sealed chunk to segment files.
# `make modes` runs every row in order, printing its name, and stops at the
# first failure; `make modes ONLY=race` runs one. A new mode is a new row.
define MODES
par4              | GOMAXPROCS=4 $(GO) test ./...
race              | $(GO) test -race ./...
faultinject       | $(GO) test -race -tags faultinject ./...
force-encodings   | ENGINE_FORCE_ENCODINGS=1 $(GO) test -run 'Equivalence$$' ./internal/engine
spill             | ENGINE_SPILL=1 $(GO) test ./internal/engine ./internal/workload ./internal/core .
spill-race        | ENGINE_SPILL=1 $(GO) test -race ./internal/engine .
spill-faultinject | ENGINE_SPILL=1 $(GO) test -tags faultinject -run Fault ./internal/engine
endef
export MODES

modes: build
	@echo "$$MODES" | while IFS='|' read -r name cmd; do \
		name=$${name%% *}; \
		[ -z "$(ONLY)" ] || [ "$$name" = "$(ONLY)" ] || continue; \
		echo "== mode $$name:$$cmd"; \
		sh -c "$$cmd" || { echo "== mode $$name FAILED"; exit 1; }; \
	done

vet:
	$(GO) vet ./...

# Non-test, non-testdata Go lines per package and in total: the number
# ROADMAP, the issues and CHANGES entries quote. benchmark/ is a module of its
# own and is listed after the total, not in it.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path '*/testdata/*' ! -path '*/.build/*' ! -path './.bench_build/*' \
		-exec wc -l {} + | awk '$$2 != "total" { sub("^\\./", "", $$2); sub("/?[^/]*$$", "", $$2); n[$$2 == "" ? "." : $$2] += $$1 } \
		END { for (d in n) print n[d], d }' | sort -k2 | awk '{ if ($$2 ~ /^benchmark/) b += $$1; else { t += $$1; printf "%7d %s\n", $$1, $$2 } } \
		END { printf "%7d total\n%7d benchmark/ (not in the total)\n", t, b }'

# Project-specific analyzers (internal/lint) run through the standard vet
# driver. Fails on any diagnostic; see README "Static analysis & invariants".
lint:
	$(GO) build -o bin/verdictlint ./cmd/verdictlint
	$(GO) vet -vettool=$(CURDIR)/bin/verdictlint ./...

# Third-party static analysis, pinned. Needs network/module cache, so this is
# a CI (or online-dev) target, not part of the offline default loop.
staticcheck:
	$(GO) run honnef.co/go/tools/cmd/staticcheck@2025.1 ./...

# Engine hot-path microbenchmarks (compare against a previous checkout with
# benchstat, or diff the JSON from `make bench-json`).
bench:
	$(GO) test -run=- -bench 'E1' -benchmem ./internal/engine

# CPU and allocation profiles of one engine microbenchmark at GOMAXPROCS=1,
# e.g. `make profile BENCH=E1DiskScanCold`. The test binary and both profiles
# land in the git-ignored .build/; read them with
# `go tool pprof -top .build/engine.test .build/E1DiskScanCold.cpu`
# (add -sample_index=alloc_space for the .mem file).
profile:
	@test -n "$(BENCH)" || { echo "usage: make profile BENCH=<name of a BenchmarkE1... in internal/engine>"; exit 2; }
	mkdir -p .build
	GOMAXPROCS=1 $(GO) test -run=- -bench 'Benchmark$(BENCH)$$' -benchmem -benchtime 50x -o .build/engine.test \
		-cpuprofile .build/$(BENCH).cpu -memprofile .build/$(BENCH).mem ./internal/engine

# The same for one workload shape through Conn.Query at the repository
# benchmark's scale and sample set (BenchmarkShape in bench_test.go), e.g.
# `make profile-shape SHAPE=iq-14` or `SHAPE=tq-3 MODE=approx`; MODE defaults
# to exact (the BYPASS form exact_scan times). Read with
# `go tool pprof -top .build/verdictdb.test .build/iq-14.exact.cpu`.
MODE ?= exact
profile-shape:
	@test -n "$(SHAPE)" || { echo "usage: make profile-shape SHAPE=<tq-N|iq-N> [MODE=exact|approx]"; exit 2; }
	mkdir -p .build
	GOMAXPROCS=1 $(GO) test -run=- -bench 'BenchmarkShape/$(SHAPE)/$(MODE)$$' -benchmem -benchtime 100x -o .build/verdictdb.test \
		-cpuprofile .build/$(SHAPE).$(MODE).cpu -memprofile .build/$(SHAPE).$(MODE).mem .

# The live heap of both datasets profile-shape queries, after set-up and a GC
# (BenchmarkSetupHeap in bench_test.go): every allocation is sampled, so the
# in-use counts are exact. It prints the live objects and MB; read the sites
# with `go tool pprof -sample_index=inuse_objects -top .build/verdictdb.test
# .build/heap.prof`.
profile-heap:
	mkdir -p .build
	GOMAXPROCS=1 $(GO) test -run=- -bench 'BenchmarkSetupHeap$$' -benchtime 1x -memprofilerate 1 -o .build/verdictdb.test \
		-memprofile .build/heap.prof .

# Machine-readable engine perf numbers for cross-PR diffs. Measured at
# GOMAXPROCS=1 like the committed baseline: allocations scale with the worker
# count, and benchgate refuses to compare reports that disagree on it.
bench-json:
	GOMAXPROCS=1 $(GO) run ./cmd/benchrunner -exp engine -benchout BENCH_engine.json

# Variance-aware perf regression gate: re-measure the engine suite and
# compare against the committed BENCH_engine.json. Wall-clock ratios get
# generous limits (single-run jitter), allocation counts tight ones
# (near-deterministic); see internal/bench/gate.go for the thresholds.
bench-gate:
	GOMAXPROCS=1 $(GO) run ./cmd/benchrunner -exp engine -benchout /tmp/verdict_bench_gate_engine.json
	$(GO) run ./cmd/benchgate -kind engine -base BENCH_engine.json -cand /tmp/verdict_bench_gate_engine.json

# Progressive execution: time-to-accuracy over block-partitioned scrambles.
bench-progressive:
	$(GO) run ./cmd/benchrunner -exp progressive -progout BENCH_progressive.json

# The repo benchmark (BENCHMARK.json): five workloads through real
# Conn.Query. benchmark/ is a module of its own, invisible to ./..., so
# bench-selftest is what notices an engine or middleware API break there.
bench-e2e:
	sh benchmark/run.sh

bench-selftest:
	cd benchmark && $(GO) vet . && $(GO) test .

# The repo benchmark at two revisions in alternating pairs (each pair flips
# which side runs first), every run printed, then per metric both medians and
# the change-better count: `make bench-compare BASE=<rev> [CHANGE=<rev>]
# [WORKLOADS="dash_warm disk_cold"] [PAIRS=5] [SEED=1]`. CHANGE defaults to
# HEAD; both are exported with git archive into the git-ignored .build/.
bench-compare:
	@test -n "$(BASE)" || { echo "usage: make bench-compare BASE=<rev> [CHANGE=<rev>] [WORKLOADS=...] [PAIRS=5] [SEED=1]"; exit 2; }
	WORKLOADS="$(WORKLOADS)" PAIRS="$(PAIRS)" SEED="$(SEED)" sh scripts/bench-compare.sh $(BASE) $(CHANGE)
