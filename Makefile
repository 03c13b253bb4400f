# Build, test, and verification targets for the reproduction.
#
# `make ci` is the full gate: formatting, vet, build, the race-enabled test
# suite (including the runner's differential tests under -cpu=1,4), short
# fuzz smokes (trace codecs, BnB state keys, the scheduling service's request
# decoder), the serve-mode golden smoke, and the observability overhead
# guard. It needs nothing beyond the Go toolchain.

GO ?= go
FUZZTIME ?= 10s

.PHONY: all build vet fmt-check test race runner-race fuzz-smoke serve-smoke oracle-short bench bench-guard bench-json bench-json-search bench-json-online bench-json-serve bench-pair golden ci

all: build

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fails listing the offending files if anything is not gofmt-clean.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# Full suite under the race detector.
race:
	$(GO) test -race ./...

# The determinism contract: serial vs parallel sweeps bit-identical, on one
# and four simulated CPUs, race-clean.
runner-race:
	$(GO) test -race -cpu=1,4 -count=1 ./internal/runner/...

# Short fuzz passes over both trace codecs (seed corpus in
# internal/trace/testdata/fuzz/), the BnB state-key canonicalization
# (seed corpus in internal/astar/testdata/fuzz/), the scheduling
# service's request decoder (seed corpus in internal/server/testdata/requests/),
# the streaming workload spec codec + renderer (seed corpus in
# internal/workload/testdata/fuzz/), and the CDCL-vs-brute-force CNF
# differential (in-code seed corpus in internal/npc/satdiff_test.go).
fuzz-smoke:
	$(GO) test -run='^$$' -fuzz=FuzzReadBinary -fuzztime=$(FUZZTIME) ./internal/trace/
	$(GO) test -run='^$$' -fuzz=FuzzReadText -fuzztime=$(FUZZTIME) ./internal/trace/
	$(GO) test -run='^$$' -fuzz=FuzzPrefixCursor -fuzztime=$(FUZZTIME) ./internal/trace/
	$(GO) test -run='^$$' -fuzz=FuzzStateKey -fuzztime=$(FUZZTIME) ./internal/astar/
	$(GO) test -run='^$$' -fuzz=FuzzScheduleRequest -fuzztime=$(FUZZTIME) ./internal/server/
	$(GO) test -run='^$$' -fuzz=FuzzBatchRequest -fuzztime=$(FUZZTIME) ./internal/server/
	$(GO) test -run='^$$' -fuzz=FuzzWorkloadSpec -fuzztime=$(FUZZTIME) ./internal/workload/
	$(GO) test -run='^$$' -fuzz=FuzzCNFSolve -fuzztime=$(FUZZTIME) ./internal/npc/

# One request per algorithm through a real scheduling server, each response
# diffed byte-for-byte against internal/server/testdata/golden/. Run
# `go test ./internal/server/ -run TestServeSmoke -update` after an
# intentional wire-format change.
serve-smoke:
	$(GO) test -run=TestServeSmoke -count=1 ./internal/server/

# Serial vs parallel sweep benchmark (wall-clock wins need GOMAXPROCS > 1).
bench:
	$(GO) test -run='^$$' -bench=Fig5Sweep -cpu=4 ./internal/runner/

# The allocation and search-node budgets: with the recorder disabled, the
# simulator's execution loop must not allocate at all; a warm sim.Evaluator
# and a warm BnB searcher must be allocation-free; a cold sim.Evaluator keeps
# no per-call state (TestEvaluatorPerCallBytes); a
# warm one-shot IAR run on a held core.IARPlanner must stay at or under 50
# allocations and 650 KB, ten times under the first implementation's
# bytes-per-op (TestIARArenaAllocGuard gates both from the root BenchmarkIAR
# path, TestIARArenaWarmAllocGuard the count in internal/core); the online
# replanner's warm hot loop stays near zero allocations per call and its
# planner at least 3x cheaper than from-scratch IAR on every replan, in
# per-thread CPU time so that other processes' load cannot skew the ratio
# (TestOnlineObserveAllocGuard, TestOnlineReplanSpeedupGuard); and
# branch-and-bound must prove
# optimality on the 8-function study instance well inside DefaultMaxNodes. The tests assert the
# budgets; the benchmark runs print the numbers for the log. The exact-solver
# pair gates the oracle the same way: a warm Solver stays under its small
# allocation ceiling on six and eight functions, and two identical solves
# are bit-identical. A warm
# 2000-call corpus prefix load must stay under 64 KiB, so generating a whole
# trace only to truncate it (a scale-1 antlr trace alone is ~940 KB) fails.
# Warm Jikes and V8 policy runs on jython must stay under 40 allocations,
# so a policy or engine that allocates per compile request fails.
# A default-width beam on the nine-function study instance must stay at or
# under 200 allocations and 2 MB (building every scored child read ~112,000
# and ~30 MB), and a Width of 1<<30 on three functions under 1 MB, so beam
# buffers sized from Width instead of from the survivors fail
# (TestBeamAllocGuard). IDA* on the six-function study instance must stay
# under 1,000 allocations per run, so a search that allocates per node fails
# (scoring each node from scratch read 390,557; TestIDAStarAllocGuard).
bench-guard:
	$(GO) test -run='TestDisabledRecorderZeroAlloc|TestRecorderDisabledZeroAlloc|TestEvaluatorZeroAlloc|TestEvaluatorPerCallBytes' -count=1 \
		./internal/obs/ ./internal/sim/
	$(GO) test -run='TestBnBWarmZeroAlloc|TestBnBWarmZeroAllocCancellable|TestBnBNodeBudgetGuard|TestBeamAllocGuard' -count=1 ./internal/astar/
	$(GO) test -run='TestSolverWarmAllocs|TestSolveDeterminism' -count=1 ./internal/exact/
	$(GO) test -run='TestIARArenaWarmAllocGuard' -count=1 ./internal/core/
	$(GO) test -run='TestIARArenaAllocGuard|TestRunPolicyAllocGuard|TestIDAStarAllocGuard' -count=1 .
	$(GO) test -run='TestOnlineObserveAllocGuard|TestOnlineReplanSpeedupGuard' -count=1 ./internal/online/
	$(GO) test -run='TestLoadPrefixAllocGuard' -count=1 ./internal/dacapo/
	$(GO) test -run='^$$' -bench=BenchmarkRunCallsRecorder -benchtime=100x ./internal/sim/
	$(GO) test -run='^$$' -bench='BenchmarkEvaluatorRun' -benchmem -benchtime=50x ./internal/sim/

# Machine-readable benchmark record: the evaluator fast path, the search
# micro-benchmarks, the figure benchmarks with their normalized make-span
# metrics, the online-policy engine (Jikes and V8 on jython, the
# multi-threaded engine), the lower bound, and the uncached /schedule compute
# (BenchmarkServeMiss, one op per corpus miss, 27 ops = 3 passes over the
# suite), collected into BENCH_core.json via cmd/benchjson. The figure
# benchmarks give each iteration a fresh runner, so 3x times three cold
# regenerations. Over 3 iterations, B/op and allocs/op of the pooled
# IAR-ablation and replay benchmarks follow sync.Pool and GC state, so those
# run 20x with the policy engines.
bench-json:
	@{ $(GO) test -run='^$$' -bench='^BenchmarkFig5$$|^BenchmarkIAR$$|^BenchmarkAStarSearch6$$' \
		-benchmem -benchtime=3x . && \
	$(GO) test -run='^$$' -bench='^BenchmarkIARAblation$$|^BenchmarkSimReplay$$|^BenchmarkJikesPolicy$$|^BenchmarkV8Policy$$|^BenchmarkLowerBound$$|^BenchmarkMTEngine$$' \
		-benchmem -benchtime=20x . && \
	$(GO) test -run='^$$' -bench='BenchmarkSimRun|BenchmarkEvaluator' -benchmem -benchtime=50x ./internal/sim/ && \
	$(GO) test -run='^$$' -bench='BenchmarkBeamSearch' -benchmem -benchtime=10x ./internal/astar/ && \
	$(GO) test -run='^$$' -bench='BenchmarkServeMiss' -benchmem -benchtime=27x ./internal/server/; } \
		| $(GO) run ./cmd/benchjson -o BENCH_core.json
	@echo "wrote BENCH_core.json"

# Machine-readable search benchmarks: the exact searches (A*, beam, BnB serial
# and parallel) on their study instances, plus the exact-solver oracle with
# its CDCL and pruning counters, collected into BENCH_search.json.
bench-json-search:
	@{ $(GO) test -run='^$$' -bench='^BenchmarkAStarSearch6$$' -benchmem -benchtime=3x . && \
	$(GO) test -run='^$$' -bench='BenchmarkBeamSearch|BenchmarkBnBStudy8' -benchmem -benchtime=5x ./internal/astar/ && \
	$(GO) test -run='^$$' -bench='BenchmarkExactSolve' -benchmem -benchtime=3x ./internal/exact/; } \
		| $(GO) run ./cmd/benchjson -o BENCH_search.json
	@echo "wrote BENCH_search.json"

# Machine-readable online-scheduling benchmarks: the replanning IAR scheduler
# across the lookahead ladder (regret vs offline IAR and scheduler-side
# ns/call reported as custom metrics), the long-stream incremental-replanning
# headline (sched-ns/call and replan-speedup vs a test-only scheduler that
# runs from-scratch core.IAR at every replan), the three schedulers head-to-head at one bounded window, and
# the workload generator itself, collected into BENCH_online.json.
bench-json-online:
	@{ $(GO) test -run='^$$' -bench='BenchmarkOnlineWindow|BenchmarkOnlineLongStream|BenchmarkOnlineSchedulers|BenchmarkWorkloadRender' \
		-benchmem -benchtime=3x ./internal/online/; } \
		| $(GO) run ./cmd/benchjson -o BENCH_online.json
	@echo "wrote BENCH_online.json"

# Serving-path load record: replay the stream-mix workload preset as ≥10k
# HTTP requests against an in-process scheduling service and write
# BENCH_serve.json (latency percentiles, cache hit rate, queue wait,
# per-tenant accounting). The driver gates itself: a p99 above 2s or a cache
# hit rate below 0.95 fails the target, so serving-path latency and
# single-flight regressions fail CI without a separate checker.
bench-json-serve:
	$(GO) run ./cmd/jitsched bench-serve -preset stream-mix -requests 12000 -concurrency 32 \
		-o BENCH_serve.json -max-p99 2s -min-hit-rate 0.95
	@echo "wrote BENCH_serve.json"

# Paired before/after against a base revision. Builds the test binary of
# PKG twice — from a `git archive` export of BASE (a local checkout, no
# network) and from the working tree — then runs the benchmarks matching
# BENCH on both N times, alternating which side runs first, each binary in
# its own copy of the package directory. Prints, per benchmark and unit,
# both medians with their quartiles, the change in the median, and how many
# of the N pairs the change won (lower wins, except speed-ups and rates).
#   make bench-pair BASE=HEAD~1 BENCH='^BenchmarkIAR$' PKG=. N=10
BASE ?=
BENCH ?= .
PKG ?= .
N ?= 10
BENCHTIME ?= 1s

bench-pair:
	@test -n "$(BASE)" || { echo "usage: make bench-pair BASE=<rev> BENCH=<regexp> [PKG=<pkg>] [N=10] [BENCHTIME=1s]"; exit 2; }
	@set -e; work=$$(mktemp -d); trap 'rm -rf "$$work"' EXIT; \
	mkdir "$$work/base"; git archive "$(BASE)" | tar -x -C "$$work/base"; \
	(cd "$$work/base" && $(GO) test -c -o "$$work/base.test" "$(PKG)"); \
	$(GO) test -c -o "$$work/change.test" "$(PKG)"; \
	$(GO) build -o "$$work/benchjson" ./cmd/benchjson; \
	bench() { (cd "$$2" && "$$work/$$1.test" -test.run='^$$' -test.bench='$(value BENCH)' \
		-test.benchmem -test.benchtime=$(BENCHTIME) -test.timeout=1h) >>"$$work/$$1.txt"; }; \
	for i in $$(seq $(N)); do \
		if [ $$((i % 2)) = 1 ]; then bench base "$$work/base/$(PKG)"; bench change "$(PKG)"; \
		else bench change "$(PKG)"; bench base "$$work/base/$(PKG)"; fi; \
	done; \
	echo "base $(BASE) ($$(git rev-parse --short "$(BASE)")) vs the working tree, $(N) pairs, $(PKG)"; \
	"$$work/benchjson" -pair "$$work/base.txt" "$$work/change.txt"

# The differential oracle suite at -short depth: exact vs BnB vs exhaustive
# agreement, heuristics-never-beat-exact, the CDCL property tests, and the
# exact DFS's incremental state held to its from-scratch references (per-node
# chain bound vs CostBoundTight, Push/Pop vs Load, packed vs byte no-good
# keys) — the quick certification pass (the full-depth suite runs in
# `make test`/`race`).
oracle-short:
	$(GO) test -short -count=1 ./internal/exact/... ./internal/npc/ ./internal/ocsp/

# Regenerate the experiment golden files after an intentional output change.
golden:
	$(GO) test ./internal/experiments -run TestGolden -update

ci: fmt-check vet build race runner-race fuzz-smoke serve-smoke oracle-short bench-guard bench-json bench-json-search bench-json-online bench-json-serve
