GO ?= go

.PHONY: build test race vet bench bench-parallel serve fuzz fuzz-short ci perfbench-test perfbench-smoke

build:
	$(GO) build ./...

# Default gate: vet plus the full suite under the race detector (the
# service's single-flight test is only meaningful with -race on).
test: vet
	$(GO) test -race ./...

# The parallel exact searcher is exercised under the race detector;
# TestParallelDeterminism and the checker equivalence suite run here.
race:
	$(GO) test -race ./internal/exact/... ./internal/sched/...

vet:
	$(GO) vet ./...

bench:
	$(GO) test -bench . -benchtime 1x ./...

# The parallel exact search against the sequential one on the layered
# classes that reach it, at one and two cores (EXPERIMENTS.md, "Exact
# search performance"). Five runs of each, for medians.
bench-parallel:
	$(GO) test -run xxx -bench BenchmarkExactCorpus -cpu 1,2 -benchtime 3x -count 5 ./internal/service/

# Run the scheduling daemon (cmd/rtserved) with defaults.
serve:
	$(GO) run ./cmd/rtserved

# Short fuzz passes: the spec parser round-trip and the canonical
# fingerprint's renaming invariance.
fuzz:
	$(GO) test -run xxx -fuzz FuzzParse -fuzztime 10s ./internal/spec/
	$(GO) test -run xxx -fuzz FuzzFingerprint -fuzztime 10s ./internal/spec/

# Short fuzz passes spread across every fuzz target: parser,
# fingerprint, the schedule store's segment reader
# (no-panic-on-any-bytes) and import rule, the memo segment reader and
# replay path, the pruned-vs-seed differential oracle of the exact
# search, the analytic tier's verdict-vs-oracle soundness check, and the queue
# journal's record reader and replay state machine. A worker that
# finds a new interesting input minimizes it before it fuzzes on, for
# up to -fuzzminimizetime (60 s by default, longer than a pass), and
# minimizing a multi-kilobyte input is quadratic; the cap
# keeps every pass fuzzing. It shortens no check: every exec still
# runs every property.
FUZZSHORT = -run xxx -fuzztime 20s -fuzzminimizetime 2s

# fuzz_floor runs the short pass of target $(1) in package $(2) and
# fails when it reports fewer than $(3) execs: a pass that stalls
# (minimizing one input for its whole budget, or paying milliseconds
# of set-up per exec) fuzzes almost nothing, and a green run would
# hide that. Each floor is about a tenth of what the target reaches
# in 20 s on 2 vCPUs.
define fuzz_floor
	@echo '$(GO) test $(FUZZSHORT) -fuzz $(1) $(2)'
	@out=$$($(GO) test $(FUZZSHORT) -fuzz $(1) $(2) 2>&1); status=$$?; \
	printf '%s\n' "$$out"; \
	test $$status -eq 0 || exit $$status; \
	execs=$$(printf '%s\n' "$$out" | sed -n 's/.*execs: \([0-9]*\).*/\1/p' | tail -n 1); \
	if [ "$${execs:-0}" -lt $(3) ]; then \
		echo "$(1): $${execs:-0} execs, below the floor of $(3)"; exit 1; \
	fi
endef

fuzz-short:
	$(call fuzz_floor,FuzzParse,./internal/spec/,25000)
	$(call fuzz_floor,FuzzFingerprint,./internal/spec/,30000)
	$(call fuzz_floor,FuzzStoreDecode,./internal/store/,8000)
	$(call fuzz_floor,FuzzMemoSegmentDecode,./internal/store/,2000)
	$(call fuzz_floor,FuzzExactPruned,./internal/exact/,6000)
	$(call fuzz_floor,FuzzAnalysisSound,./internal/analysis/,20000)
	$(call fuzz_floor,FuzzQueueDecode,./internal/queue/,10000)

# The CI gate: vet, the full suite under the race detector, the short
# fuzz pass, and the serving benchmark's own vet, tests and smoke runs.
ci: test fuzz-short perfbench-test perfbench-smoke

# The serving benchmark (perfbench/) is its own module, so the root
# go test ./... never builds it: vet and test it here, so an internal
# API change cannot break the benchmark unnoticed.
perfbench-test:
	cd perfbench && $(GO) vet ./... && $(GO) test ./...

# Two-second runs of the serving benchmark's hit-path workloads. Every
# answer goes through its oracle, which compares each timed answer
# byte for byte with one checked against the real handler, so a hit
# path that serves a stale or wrong body fails CI (the run exits 1).
# The five-second cold_corpus run covers at least one complete chunk
# of 2,000 fresh classes through analysis, heuristic and exact search,
# each verdict checked against a reference: a cold-path change that
# makes the workload exit non-zero fails CI too.
perfbench-smoke:
	bash perfbench/run.sh --workload hot_mix --seed 1 --seconds 2 --trace 0
	bash perfbench/run.sh --workload store_spill --seed 1 --seconds 2 --trace 0
	bash perfbench/run.sh --workload cold_corpus --seed 1 --seconds 5 --trace 0
