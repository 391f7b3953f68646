GO ?= go

.PHONY: build test race vet bench serve fuzz fuzz-short ci bench-json bench-load bench-load-smoke bench-solver bench-solver-smoke bench-corpus bench-corpus-smoke bench-queue bench-queue-smoke bench-cluster bench-cluster-smoke bench-memostore bench-memostore-smoke perfbench-test perfbench-smoke

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
# journal's record reader and replay state machine.
fuzz-short:
	$(GO) test -run xxx -fuzz FuzzParse -fuzztime 20s ./internal/spec/
	$(GO) test -run xxx -fuzz FuzzFingerprint -fuzztime 20s ./internal/spec/
	$(GO) test -run xxx -fuzz FuzzStoreDecode -fuzztime 20s ./internal/store/
	$(GO) test -run xxx -fuzz FuzzMemoSegmentDecode -fuzztime 20s ./internal/store/
	$(GO) test -run xxx -fuzz FuzzExactPruned -fuzztime 20s ./internal/exact/
	$(GO) test -run xxx -fuzz FuzzAnalysisSound -fuzztime 20s ./internal/analysis/
	$(GO) test -run xxx -fuzz FuzzQueueDecode -fuzztime 20s ./internal/queue/

# The CI gate: vet, the full suite under the race detector, the short
# fuzz pass, the serving benchmark's own vet and tests and its smoke
# runs, then the load-, solver-, corpus-, queue-, cluster- and
# memo-store-suite smokes (results to throwaway dirs so the committed
# bench/ numbers stay the curated ones). Delta replication's wire-cost
# floor runs in the cluster package's tests
# (TestSyncNearlyConvergedWireCost).
ci: test fuzz-short perfbench-test perfbench-smoke bench-load-smoke bench-solver-smoke bench-corpus-smoke bench-queue-smoke bench-cluster-smoke bench-memostore-smoke

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

# Machine-readable micro-benchmarks (ns/op, allocs/op) for tracking
# the perf trajectory across PRs; writes bench/BENCH_<suite>.json.
bench-json:
	$(GO) run ./cmd/rtbench -json bench

# Service load suite: closed-loop hot paths (verified-hit fast path vs
# remap + re-check) and an open-loop cold burst against the bounded
# exact-search admission; writes bench/BENCH_service_load.json with
# p50/p95/p99 latency and throughput per scenario.
bench-load:
	$(GO) run ./cmd/rtbench -load bench

# Same suite into a throwaway directory — the CI smoke that proves the
# load harness runs end to end without touching committed results.
bench-load-smoke:
	$(GO) run ./cmd/rtbench -load $$(mktemp -d)

# Exact-search pruner suite: refutation-heavy E2/E3/E4 rows, pruners
# off vs on, plus a 4-worker shared-table row; writes
# bench/BENCH_exact_prune.json.
bench-solver:
	$(GO) run ./cmd/rtbench -solver bench

# Solver suite into a throwaway directory — verifies verdict parity
# between pruner configurations end to end without touching bench/.
bench-solver-smoke:
	$(GO) run ./cmd/rtbench -solver $$(mktemp -d)

# Random-DAG corpus suite: 2000 distinct isomorphism classes through
# the admission pipeline with the analytic tier off vs on — per-tier
# decision fractions, exact-search work saved, and a verdict-parity
# cross-check; writes bench/BENCH_corpus.json.
bench-corpus:
	$(GO) run ./cmd/rtbench -corpus bench -corpus-n 2000

# Corpus suite into a throwaway directory at smoke size — the CI gate
# that runs the generator, both pipeline configurations, and the
# parity cross-check end to end.
bench-corpus-smoke:
	$(GO) run ./cmd/rtbench -corpus $$(mktemp -d) -corpus-n 200

# Async-queue suite: the cold burst replayed with the durable solve
# queue attached — sheds become journaled jobs drained by background
# workers, with a synchronous verdict-parity oracle; writes
# bench/BENCH_queue.json with the shed→terminal conversion rate,
# enqueue latency, and end-to-end job latency.
bench-queue:
	$(GO) run ./cmd/rtbench -queue bench

# Queue suite into a throwaway directory — the CI smoke that drives
# submit → journal → worker drain → terminal verdict end to end
# (including the parity oracle) without touching committed results.
bench-queue-smoke:
	$(GO) run ./cmd/rtbench -queue $$(mktemp -d)

# Cluster suite: a 3-node fingerprint-sharded fleet in-process — seed
# every class on its shard owner, one anti-entropy sync round, warm
# serves from every non-owner (zero new exact searches), then a
# kill-one-owner burst (zero failed requests); writes
# bench/BENCH_cluster.json. Acceptance violations fail the run.
bench-cluster:
	$(GO) run ./cmd/rtbench -cluster bench

# Cluster suite into a throwaway directory — the CI smoke that drives
# sharded routing, Merkle replication, and owner-failure fallback end
# to end without touching committed results.
bench-cluster-smoke:
	$(GO) run ./cmd/rtbench -cluster $$(mktemp -d)

# Memo store suite: hard-NO 3-PARTITION classes solved cold with a
# store attached, the service restarted, and perturbed near-miss
# variants replayed warm from the persisted transposition table —
# warm-vs-cold node ratios with tiered verdict-parity oracles; writes
# bench/BENCH_memo_store.json. A ratio below 2x or any verdict
# mismatch fails the run.
bench-memostore:
	$(GO) run ./cmd/rtbench -memostore bench

# The two small families into a throwaway directory — the CI smoke
# that drives cold solve → restart → warm seeded replay → oracle
# parity end to end without touching committed results.
bench-memostore-smoke:
	$(GO) run ./cmd/rtbench -memostore $$(mktemp -d) -memostore-n 2
