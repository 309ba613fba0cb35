GO ?= go

.PHONY: build test modes bench bench-json bench-gate bench-progressive bench-e2e bench-selftest bench-compare profile profile-shape profile-append profile-heap profile-disk vet lint staticcheck loc

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

# The test modes CI runs after the plain suite, one row each: a name, then the
# command. par4 pins 4 scheduler threads so the chunk-morsel fan-out and the
# parallel≡serial tests use several workers, with -count=1 because go test's
# cache does not key on GOMAXPROCS (the runtime reads it, not the test): after
# a plain `go test ./...` it would replay that run's results; faultinject
# fires the internal/faultpoint sites; force-encodings dict/delta/decimal-
# encodes every sealed chunk-column it can; the spill rows flush every sealed chunk to segment files.
# `make modes` runs every row in order, printing its name, and stops at the
# first failure; `make modes ONLY=race` runs one. A new mode is a new row.
define MODES
par4              | GOMAXPROCS=4 $(GO) test -count=1 ./...
race              | $(GO) test -race ./...
faultinject       | $(GO) test -race -tags faultinject ./...
force-encodings   | ENGINE_FORCE_ENCODINGS=1 $(GO) test -run 'Equivalence$$|TypedKernels|LaneReaders|DictKernels|KernelError|ScopeShapes|ErrorOrder|SealEquivalence|SealExactIntBounds|CompactForms|IntegerExtremes|ReadsVersion1' ./internal/engine ./internal/storage
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

# Engine hot-path microbenchmarks: internal/engine's BenchmarkE1*, the
# RowPath baselines included. Compare against a previous checkout with
# benchstat, or against the committed BENCH_engine.txt with `make bench-gate`.
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
# to exact (the BYPASS form exact_scan times). SHAPE matches whole shape ids,
# so tq-1 is not also tq-10 … tq-19, and an alternation gives one profile of
# several shapes. Files are named after SHAPE with every character other than
# letters, digits and '-' replaced by '_'. Read with
# `go tool pprof -top .build/verdictdb.test .build/iq-14.exact.cpu`.
# The share of the GROUP BY path in the 32 shapes exact_scan times (all but
# tq-17), with data set-up and the GC worker left out:
#   make profile-shape SHAPE='tq-([1356789]|1[0-689]|20)|iq-([1-9]|1[0-5])'
#   go tool pprof -top -ignore 'shapeEnv|gcBgMarkWorker|evalNodes|evalFilter' \
#     -focus 'vecPlan..scanChunk|scanPlan..(scanRowsInto|finish)|merge(ChunkGroups|Groups)' \
#     .build/verdictdb.test .build/tq-__1356789__1_0-689__20__iq-__1-9__1_0-5__.exact.cpu
MODE ?= exact
SHAPE_FILE = $(shell printf '%s' '$(SHAPE)' | tr -c 'A-Za-z0-9-' '_')
profile-shape:
	@test -n "$(SHAPE)" || { echo "usage: make profile-shape SHAPE=<tq-N|iq-N|regexp> [MODE=exact|approx]"; exit 2; }
	mkdir -p .build
	GOMAXPROCS=1 $(GO) test -run=- -bench 'BenchmarkShape/^($(SHAPE))$$/$(MODE)$$' -benchmem -benchtime 100x -o .build/verdictdb.test \
		-cpuprofile .build/$(SHAPE_FILE).$(MODE).cpu -memprofile .build/$(SHAPE_FILE).$(MODE).mem .

# The same for ingest_mix's append step (BenchmarkAppendCycle in
# bench_test.go): a CTAS of a 2 000-row batch, INSERT … SELECT of it into
# lineitem, AppendBatch into lineitem's three samples and the drop, 40 times on
# profile-shape's TPC-H data. Read with
# `go tool pprof -top .build/verdictdb.test .build/append.cpu`; the CTAS and
# the INSERT alone: add -focus 'Conn..Exec' -ignore 'shapeEnv|loadAppendFeed'.
profile-append:
	mkdir -p .build
	GOMAXPROCS=1 $(GO) test -run=- -bench 'BenchmarkAppendCycle$$' -benchmem -benchtime 40x -o .build/verdictdb.test \
		-cpuprofile .build/append.cpu -memprofile .build/append.mem .

# The live heap of both datasets profile-shape queries, after set-up and a GC
# (BenchmarkSetupHeap in bench_test.go): every allocation is sampled, so the
# in-use counts are exact. It prints the live objects and MB; read the sites
# with `go tool pprof -sample_index=inuse_objects -top .build/verdictdb.test
# .build/heap.prof`.
profile-heap:
	mkdir -p .build
	GOMAXPROCS=1 $(GO) test -run=- -bench 'BenchmarkSetupHeap$$' -benchtime 1x -memprofilerate 1 -o .build/verdictdb.test \
		-memprofile .build/heap.prof .

# The same for disk_cold's TPC-H side (BenchmarkDiskPass in bench_test.go):
# the 18 TPC-H shapes approximately, once each per iteration, over
# profile-shape's TPC-H data flushed to a data directory behind a 4 MiB chunk
# cache. It prints chunk loads per iteration and the hit ratio; the load and
# decode share: `go tool pprof -top -focus 'segSlot..load|segFill..fillCol'
# .build/verdictdb.test .build/disk.cpu`.
profile-disk:
	mkdir -p .build
	GOMAXPROCS=1 $(GO) test -run=- -bench 'BenchmarkDiskPass$$' -benchmem -benchtime 20x -o .build/verdictdb.test \
		-cpuprofile .build/disk.cpu -memprofile .build/disk.mem .

# The engine suite as the gate measures it: every BenchmarkE1* at
# GOMAXPROCS=1, in three rounds of the whole suite. `-count 3` would run a
# benchmark's three runs back to back, and one slow minute on a shared
# machine then slows all three; rounds put them ≈ 45 s apart, so the median
# the gate takes leaves such a minute out. Allocations scale with the worker
# count, and benchgate refuses to compare outputs whose names carry
# different -N suffixes.
E1_SUITE = for round in 1 2 3; do GOMAXPROCS=1 $(GO) test -run=- -bench 'E1' -benchmem -count 1 ./internal/engine || exit 1; done

# Regenerate the committed engine baseline, BENCH_engine.txt: a date line,
# then E1_SUITE's output as go test prints it (benchstat reads it too).
bench-json:
	mkdir -p .build
	{ echo "date: $$(date -u +%Y-%m-%dT%H:%M:%SZ)"; $(E1_SUITE); } > .build/BENCH_engine.txt
	mv .build/BENCH_engine.txt BENCH_engine.txt

# Variance-aware perf regression gate: re-measure the engine suite into the
# git-ignored .build/ and compare each benchmark's median over the three
# rounds against the committed BENCH_engine.txt. Wall-clock ratios get generous
# limits, allocation counts tight ones (near-deterministic); see
# internal/bench/gate.go for the thresholds.
bench-gate:
	mkdir -p .build
	$(E1_SUITE) > .build/bench_gate_engine.txt
	$(GO) run ./cmd/benchgate -kind engine -base BENCH_engine.txt -cand .build/bench_gate_engine.txt

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
