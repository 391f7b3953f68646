GO ?= go

.PHONY: build test race vet bench serve fuzz fuzz-short ci perfbench-test perfbench-smoke

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

# Worker-count sweep for the parallel exact search (EXPERIMENTS.md §E2b).
bench-parallel:
	$(GO) test -run xxx -bench BenchmarkExactParallel -benchtime 20x .

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
# (no-panic-on-any-bytes), the memo segment reader and import path,
# the pruned-vs-seed differential oracle of the exact search, the
# analytic tier's verdict-vs-oracle soundness check, and the queue
# journal's record reader and replay state machine. A worker that
# finds a new interesting input minimizes it before it fuzzes on, for
# up to -fuzzminimizetime (60 s by default, longer than a pass), and
# minimizing a multi-kilobyte input is quadratic; the cap
# keeps every pass fuzzing. It shortens no check: every exec still
# runs every property.
FUZZSHORT = -run xxx -fuzztime 20s -fuzzminimizetime 2s

fuzz-short:
	$(GO) test $(FUZZSHORT) -fuzz FuzzParse ./internal/spec/
	$(GO) test $(FUZZSHORT) -fuzz FuzzFingerprint ./internal/spec/
	$(GO) test $(FUZZSHORT) -fuzz FuzzStoreDecode ./internal/store/
	$(GO) test $(FUZZSHORT) -fuzz FuzzMemoSegmentDecode ./internal/store/
	$(GO) test $(FUZZSHORT) -fuzz FuzzExactPruned ./internal/exact/
	$(GO) test $(FUZZSHORT) -fuzz FuzzAnalysisSound ./internal/analysis/
	$(GO) test $(FUZZSHORT) -fuzz FuzzQueueDecode ./internal/queue/

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
perfbench-smoke:
	bash perfbench/run.sh --workload hot_mix --seed 1 --seconds 2 --trace 0
	bash perfbench/run.sh --workload store_spill --seed 1 --seconds 2 --trace 0
