package service

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// Metrics is the service's counter set: monotonically increasing
// atomics in the style of expvar, rendered as plain "name value"
// lines for the daemon's /metrics endpoint. All fields are safe for
// concurrent use; read them through Snapshot or String.
type Metrics struct {
	Requests     atomic.Int64 // Schedule calls accepted for processing
	Invalid      atomic.Int64 // model validation failures
	CacheHits    atomic.Int64 // requests served from the schedule cache (front hits included)
	FrontHits    atomic.Int64 // cache hits answered by the daemon's front cache (Rehit)
	MemoHits     atomic.Int64 // hits served by the verified-hit fast path (no remap/re-check)
	CacheMisses  atomic.Int64 // requests that had to enter the flight path (= pipelines run)
	FlightShared atomic.Int64 // requests that piggybacked on an in-flight search
	Searches     atomic.Int64 // exact searches actually executed (not analysis/heuristic decisions)
	Overloaded   atomic.Int64 // requests shed by exact-search admission (ErrOverloaded)
	Enqueued     atomic.Int64 // requests converted into async solve-queue jobs

	AnalysisRefuted atomic.Int64 // proven infeasible by the analytic tier (necessary tests)
	AnalysisSolved  atomic.Int64 // verified witnesses built by the analytic tier (Construct)
	HeuristicSolved atomic.Int64 // schedules produced by the paper's heuristic
	HeuristicErrors atomic.Int64 // heuristic failures that were real errors, not ErrNoSchedule
	ExactSolved     atomic.Int64 // schedules produced by exhaustive search
	ExactRefuted    atomic.Int64 // proven infeasible by exhaustion
	Undecided       atomic.Int64 // searches cut off by the candidate budget
	Canceled        atomic.Int64 // searches aborted by request contexts

	Evictions atomic.Int64 // cache entries displaced by newer fingerprints

	StoreHits      atomic.Int64 // requests served from the durable store (L2)
	StorePuts      atomic.Int64 // decided outcomes written through to the store
	StorePutErrors atomic.Int64 // write-throughs that failed (durability lost, not correctness)
	StoreCorrupt   atomic.Int64 // store loads dropped at serve time (shape or re-verification failure)

	MemoSeedHits     atomic.Int64 // exact searches seeded from the durable refutation cache
	MemoSeedSigs     atomic.Int64 // signatures loaded into seeded searches (cumulative)
	MemoSnapshotPuts atomic.Int64 // post-search refutation snapshots merged into the store

	Forwards         atomic.Int64 // requests proxied to their shard owner (cluster mode)
	ForwardFallbacks atomic.Int64 // forwards that failed over to a local solve (owner unreachable)
	SyncPulls        atomic.Int64 // record batches pulled from peers by anti-entropy sync
	SyncRecords      atomic.Int64 // records imported from pulled segments
	SyncRounds       atomic.Int64 // completed anti-entropy rounds
	SyncBytesRx      atomic.Int64 // replication bytes received from peers (manifests, digests, segments)
	SyncPeerFailures atomic.Int64 // per-peer sync attempts that ended in failure
	SyncLastUnix     atomic.Int64 // unix time of the most recent completed round (gauge, not a counter)

	hitNanos       atomic.Int64 // cumulative latency of cache- and store-hit requests
	missNanos      atomic.Int64 // cumulative latency of fresh (pipeline-leading) requests
	searchNanos    atomic.Int64 // cumulative wall time inside the exact-search stage
	exactNodes     atomic.Int64 // cumulative search-tree nodes explored by the exact stage
	queueWaitNanos atomic.Int64 // cumulative time spent queued for exact-search admission
}

// Snapshot returns every counter by name, including the derived
// average latencies (in nanoseconds) of the hit, miss, and
// exact-search paths. hit_ns_avg divides by every request that added
// to hit_ns_total: cache hits (front hits included) and store hits.
// search_ns_avg divides by executed exact searches only — analysis-
// and heuristic-decided pipelines never dilute it.
func (mt *Metrics) Snapshot() map[string]int64 {
	s := map[string]int64{
		"requests":            mt.Requests.Load(),
		"invalid":             mt.Invalid.Load(),
		"cache_hits":          mt.CacheHits.Load(),
		"front_hits":          mt.FrontHits.Load(),
		"memo_hits":           mt.MemoHits.Load(),
		"cache_misses":        mt.CacheMisses.Load(),
		"flight_shared":       mt.FlightShared.Load(),
		"searches":            mt.Searches.Load(),
		"overloaded":          mt.Overloaded.Load(),
		"enqueued":            mt.Enqueued.Load(),
		"analysis_refuted":    mt.AnalysisRefuted.Load(),
		"analysis_solved":     mt.AnalysisSolved.Load(),
		"heuristic_solved":    mt.HeuristicSolved.Load(),
		"heuristic_errors":    mt.HeuristicErrors.Load(),
		"exact_solved":        mt.ExactSolved.Load(),
		"exact_refuted":       mt.ExactRefuted.Load(),
		"exact_nodes_total":   mt.exactNodes.Load(),
		"undecided":           mt.Undecided.Load(),
		"canceled":            mt.Canceled.Load(),
		"evictions":           mt.Evictions.Load(),
		"hit_ns_total":        mt.hitNanos.Load(),
		"miss_ns_total":       mt.missNanos.Load(),
		"search_ns_total":     mt.searchNanos.Load(),
		"queue_wait_ns_total": mt.queueWaitNanos.Load(),

		// store_corrupt_skipped here counts only serve-time drops;
		// Service.Snapshot folds in the store's own scan-time events
		"store_hits":            mt.StoreHits.Load(),
		"store_puts":            mt.StorePuts.Load(),
		"store_put_errors":      mt.StorePutErrors.Load(),
		"store_corrupt_skipped": mt.StoreCorrupt.Load(),

		"memo_seed_hits":     mt.MemoSeedHits.Load(),
		"memo_seed_sigs":     mt.MemoSeedSigs.Load(),
		"memo_snapshot_puts": mt.MemoSnapshotPuts.Load(),

		"forwards":           mt.Forwards.Load(),
		"fallbacks":          mt.ForwardFallbacks.Load(),
		"sync_pulls":         mt.SyncPulls.Load(),
		"sync_records":       mt.SyncRecords.Load(),
		"sync_rounds":        mt.SyncRounds.Load(),
		"sync_bytes_rx":      mt.SyncBytesRx.Load(),
		"sync_peer_failures": mt.SyncPeerFailures.Load(),
		"sync_last_unix":     mt.SyncLastUnix.Load(),
	}
	if h := s["cache_hits"] + s["store_hits"]; h > 0 {
		s["hit_ns_avg"] = s["hit_ns_total"] / h
	}
	if n := s["cache_misses"]; n > 0 {
		s["miss_ns_avg"] = s["miss_ns_total"] / n
	}
	if n := s["searches"]; n > 0 {
		s["search_ns_avg"] = s["search_ns_total"] / n
	}
	return s
}

// String renders the snapshot as sorted "rtm_<name> <value>" lines.
func (mt *Metrics) String() string { return renderMetrics(mt.Snapshot()) }

// renderMetrics renders a snapshot as sorted "rtm_<name> <value>"
// lines (shared by Metrics.String and Service.MetricsText).
func renderMetrics(snap map[string]int64) string {
	names := make([]string, 0, len(snap))
	for k := range snap {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, k := range names {
		fmt.Fprintf(&b, "rtm_%s %d\n", k, snap[k])
	}
	return b.String()
}
