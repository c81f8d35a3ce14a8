# Developer targets for the Corelite reproduction.
#
#   make         -> build + vet + test
#   make race    -> race-detector pass over the concurrent packages
#   make check   -> everything (the documented verify flow), gofmt included
#   make profile -> CPU-profile a short evaluation run and print hot spots
#   make loc     -> non-test, non-blank Go lines per package
#   make bench   -> the figure, batch and observability benchmarks (go test -bench)
#   make perf-gate -> the benchmark driver (./benchmark) on HEAD vs HEAD^1,
#                     failing on a regression that repeats in three pairs

GO ?= go

# Per-target fuzzing budget for `make fuzz`; CI uses a shorter one.
FUZZ_TIME ?= 30s

# Statement-coverage floor over ./internal/... enforced by `make cover`.
# Measured 87.3% when the gate was introduced; the baseline leaves slack
# for refactors but fails the build if tests rot wholesale.
COVERAGE_BASELINE ?= 85

.PHONY: all build test race vet fmt bench perf-gate check profile fuzz cover loc

all: build vet test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The internal/run worker pool is the repository's first concurrent code;
# it and its primary caller must stay race-clean. The observability layer
# rides along in every pool job, so it is covered here too.
race:
	$(GO) test -race ./internal/run ./internal/experiments ./internal/obs ./internal/flowsim

vet:
	$(GO) vet ./...

# fmt fails when gofmt would rewrite any file, and names the files.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

# bench runs the root package's figure, batch, ablation, sensitivity,
# extension and observability benchmarks. End-to-end engine performance is
# the benchmark driver's job (go run ./benchmark; see perf-gate).
#
# For statistically sound before/after comparisons use benchstat
# (golang.org/x/perf/cmd/benchstat) on raw repeated runs:
#
#   go test -run '^$$' -bench BatchFiguresSerial -benchmem -count 10 > old.txt
#   <apply change>
#   go test -run '^$$' -bench BatchFiguresSerial -benchmem -count 10 > new.txt
#   benchstat old.txt new.txt
bench:
	$(GO) test -bench=. -benchmem

# perf-gate builds the benchmark driver at HEAD and at HEAD^1, runs each three
# times interleaved, and fails if a head run has a failed op or the same
# workload/metric regresses past its BENCHMARK.json bound in all three
# base-vs-head comparisons. See scripts/perf-gate.sh.
perf-gate:
	./scripts/perf-gate.sh

# profile runs a short paper-topology simulation under the CPU profiler and
# prints the top-10 hot functions. The pprof file and the telemetry bundle
# land in profile-out/ for deeper digging (go tool pprof, chrome://tracing).
profile:
	mkdir -p profile-out
	$(GO) run ./cmd/coresim -flows 10 -duration 30s -summary=false \
		-obs profile-out -cpuprofile profile-out/cpu.prof -memprofile profile-out/mem.prof
	$(GO) tool pprof -top -nodecount=10 profile-out/cpu.prof

# fuzz runs each native fuzz target for FUZZ_TIME on top of the checked-in
# seed corpora under internal/**/testdata/fuzz/. New interesting inputs land
# in the local build cache; minimized crashers land in testdata/fuzz/ and
# should be committed as regression tests.
fuzz:
	$(GO) test ./internal/maxmin -run '^$$' -fuzz FuzzMaxMin -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/sim -run '^$$' -fuzz FuzzScheduler -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/topospec -run '^$$' -fuzz FuzzTopoSpec -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/experiments -run '^$$' -fuzz FuzzFlowSim -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/flowsim -run '^$$' -fuzz FuzzIncrementalAlloc -fuzztime $(FUZZ_TIME)
	$(GO) test ./internal/trace -run '^$$' -fuzz FuzzAppendFixed3 -fuzztime $(FUZZ_TIME)

# cover fails if total statement coverage over the library packages drops
# below COVERAGE_BASELINE percent.
cover:
	$(GO) test -coverprofile=coverage.out ./internal/...
	$(GO) tool cover -func=coverage.out | tail -1
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ {gsub(/%/, "", $$3); print $$3}'); \
	awk -v t="$$total" -v base="$(COVERAGE_BASELINE)" 'BEGIN { \
		if (t+0 < base+0) { printf "coverage %.1f%% is below the %s%% baseline\n", t, base; exit 1 } \
		else { printf "coverage %.1f%% meets the %s%% baseline\n", t, base } }'

# loc prints the non-test, non-blank Go line count of every package
# directory — the number CHANGES.md entries quote before → after — and the
# total.
loc:
	@for d in $$($(GO) list -f '{{.Dir}}' ./...); do \
		n=$$(ls $$d/*.go | grep -v _test.go | xargs cat | grep -cv '^[[:space:]]*$$'); \
		printf '%6d %s\n' $$n .$${d#$(CURDIR)}; t=$$((t+n)); \
	done; printf '%6d total\n' $$t

check: build vet fmt test race
