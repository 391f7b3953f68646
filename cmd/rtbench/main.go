// Command rtbench runs the full experiment suite (E1–E9 of DESIGN.md)
// and prints the tables recorded in EXPERIMENTS.md. With -json DIR it
// instead runs the micro-benchmark suites (exact search, serving
// tiers, durable store) and writes machine-readable results to
// DIR/BENCH_<suite>.json — ns/op, allocs/op, bytes/op, workers — so
// the perf trajectory is trackable across PRs. With -load DIR it runs
// the service load suite — closed-loop repeat workloads over the
// verified-hit fast path and the remap + re-check hit path, a mixed
// isomorphic-surface workload, and an open-loop cold burst against
// the bounded exact-search admission — and writes p50/p95/p99 latency
// plus throughput to DIR/BENCH_service_load.json. With -solver DIR it
// runs the exact-search pruner suite — the refutation-heavy E2/E3/E4
// rows, pruners off vs. on, plus a 4-worker run over the shared
// transposition table — and writes node counts, cut tallies and wall
// time to DIR/BENCH_exact_prune.json. With -corpus DIR it draws -corpus-n
// distinct random layered-DAG classes and runs the whole set through
// the admission pipeline with the analytic tier off and on, writing
// per-tier decision fractions, the exact-search work saved, and a
// verdict-parity cross-check to DIR/BENCH_corpus.json. With -queue DIR
// it replays the cold burst with the durable async solve queue
// attached — sheds become journaled jobs drained by background workers
// — and writes the shed→terminal conversion rate, enqueue latency, and
// end-to-end job latency (with a synchronous verdict-parity oracle) to
// DIR/BENCH_queue.json. With -cluster DIR it stands up a 3-node
// fingerprint-sharded fleet in-process and runs the replication
// acceptance scenario — seed on owners, one anti-entropy round,
// warm serves from every non-owner with zero new searches, then a
// kill-one-owner burst with zero failed requests — writing
// DIR/BENCH_cluster.json. With -memostore DIR it runs the durable
// refutation-cache near-miss suite — hard-NO 3-PARTITION classes
// solved cold with a store attached, the service restarted, and
// perturbed near-miss variants replayed warm from the persisted
// transposition table, with tiered verdict-parity oracles — writing
// warm-vs-cold node ratios to DIR/BENCH_memo_store.json.
//
// Usage:
//
//	rtbench [-only E3] [-workers N] [-json DIR] [-load DIR] [-solver DIR]
//	        [-corpus DIR [-corpus-n N] [-corpus-seed S]] [-queue DIR] [-cluster DIR]
//	        [-memostore DIR [-memostore-n N]]
package main

import (
	"flag"
	"fmt"
	"os"

	"rtm/internal/experiments"
)

func main() {
	only := flag.String("only", "", "run only the experiment with this ID (e.g. E3)")
	workers := flag.Int("workers", 1, "exact-search workers for E2-E4; 1 reproduces the committed tables' node counts, -1 means all CPUs")
	jsonDir := flag.String("json", "", "write machine-readable benchmark results to this directory instead of running experiments")
	loadDir := flag.String("load", "", "run the service load suite and write BENCH_service_load.json to this directory")
	solverDir := flag.String("solver", "", "run the exact-search pruner suite and write BENCH_exact_prune.json to this directory")
	corpusDir := flag.String("corpus", "", "run the random-DAG corpus suite and write BENCH_corpus.json to this directory")
	queueDir := flag.String("queue", "", "run the async-queue cold-burst suite and write BENCH_queue.json to this directory")
	clusterDir := flag.String("cluster", "", "run the 3-node cluster replication suite and write BENCH_cluster.json to this directory")
	corpusN := flag.Int("corpus-n", 2000, "distinct isomorphism classes to draw for -corpus")
	corpusSeed := flag.Int64("corpus-seed", 1, "generator seed for -corpus")
	memoDir := flag.String("memostore", "", "run the durable refutation-cache near-miss suite and write BENCH_memo_store.json to this directory")
	memoN := flag.Int("memostore-n", 0, "family sizes to run for -memostore (0 = all)")
	flag.Parse()

	if *memoDir != "" {
		if err := writeMemoStoreJSON(*memoDir, *memoN); err != nil {
			fmt.Fprintf(os.Stderr, "rtbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *clusterDir != "" {
		if err := writeClusterJSON(*clusterDir); err != nil {
			fmt.Fprintf(os.Stderr, "rtbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *queueDir != "" {
		if err := writeQueueJSON(*queueDir); err != nil {
			fmt.Fprintf(os.Stderr, "rtbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *corpusDir != "" {
		if err := writeCorpusJSON(*corpusDir, *corpusN, *corpusSeed); err != nil {
			fmt.Fprintf(os.Stderr, "rtbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *solverDir != "" {
		if err := writeSolverJSON(*solverDir); err != nil {
			fmt.Fprintf(os.Stderr, "rtbench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *jsonDir != "" {
		if err := writeBenchJSON(*jsonDir, *workers); err != nil {
			fmt.Fprintf(os.Stderr, "rtbench: %v\n", err)
			os.Exit(1)
		}
		if *loadDir == "" {
			return
		}
	}
	if *loadDir != "" {
		if err := writeLoadJSON(*loadDir); err != nil {
			fmt.Fprintf(os.Stderr, "rtbench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	experiments.SetExactWorkers(*workers)

	ran := 0
	for _, t := range experiments.All() {
		if *only != "" && t.ID != *only {
			continue
		}
		fmt.Println(t)
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "rtbench: no experiment %q\n", *only)
		os.Exit(1)
	}
}
