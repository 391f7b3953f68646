// Package service is the online face of the scheduler: a concurrent,
// in-process scheduling service that accepts models, synthesizes and
// verifies static schedules, and memoizes results in a canonical
// schedule cache.
//
// The paper's run-time model is deliberately static — all timing
// constraints are compiled into one cyclic schedule executed
// table-driven forever — which makes synthesis a pure function of the
// model up to renaming of its elements. The service exploits exactly
// that: every request is canonicalized (core.Canonicalize), and the
// cache is keyed by the canonical fingerprint, so workloads that are
// identical up to element renaming and constraint reordering share
// one entry. Cached schedules are stored over canonical element
// indices and remapped into each requester's names on the way out;
// every positive hit is re-verified against the requesting model
// before being served, so a canonicalization defect can cost a cache
// miss but never a wrong schedule.
//
// The serving path is built to scale with cores:
//
//   - The LRU + single-flight table is sharded by fingerprint hash
//     (power-of-two shards, one mutex each), so concurrent hits on
//     different isomorphism classes never contend on a lock.
//   - Each cache entry memoizes its verified materializations per
//     requester surface (Result.OrderDigest): a byte-identical repeat
//     workload skips the remap + re-verify entirely and is served the
//     already-verified schedule — the verified-hit fast path. Only
//     results that passed verification ever enter the memo.
//   - Every entry entering the LRU is stamped with a per-shard
//     generation, which a cache hit returns (Result.Generation).
//     Rehit lets a caller that kept an earlier hit's answer — rtserved's
//     front cache — serve it again while that same entry is resident.
//   - The exact-search stage sits behind a bounded admission
//     semaphore (default GOMAXPROCS slots) with a queue-wait budget:
//     a burst of cold searches queues briefly and then fails fast
//     with ErrOverloaded instead of starving hit serving. Hits,
//     static analysis, and the heuristic are never gated.
//
// An optional durable tier (internal/store) sits behind the LRU: the
// hit order is LRU → store → compute, decided outcomes are written
// through, and store loads travel the same remap + re-verify path as
// cache hits — so a warm restart serves previously solved classes
// without re-running any search, while disk corruption can only ever
// cost a miss.
//
// Requests that miss are single-flighted per fingerprint: N
// concurrent requests for the same workload trigger exactly one
// admission pipeline (the O(model) analytic tier — closed-form
// necessary tests for NO, the constructive generalized-Theorem-3 test
// for YES — then the paper's heuristic, then budgeted exact search
// under the request context), and the result fans back out to every
// waiter. A fingerprint's cache
// slot and flight slot live in the same shard under the same mutex,
// so a fingerprint is searched at most once for as long as its entry
// stays resident.
package service

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"runtime"
	"time"

	"rtm/internal/analysis"
	"rtm/internal/core"
	"rtm/internal/exact"
	"rtm/internal/heuristic"
	"rtm/internal/queue"
	"rtm/internal/sched"
	"rtm/internal/store"
)

// ErrOverloaded reports that the exact-search admission queue was
// full for longer than the queue-wait budget. The request was not
// searched; the caller should retry after backing off (rtserved maps
// this to HTTP 429 with a Retry-After header).
var ErrOverloaded = errors.New("service: overloaded: exact-search admission queue is full")

// Options configure a Service.
type Options struct {
	// CacheSize bounds the schedule cache (entries = isomorphism
	// classes). Default 256. Capacity is split evenly across shards
	// (rounded up per shard), so the effective bound is CacheSize
	// rounded up to a multiple of CacheShards.
	CacheSize int
	// CacheShards is the shard count for the LRU + single-flight
	// table, rounded up to a power of two. Default 8. Use 1 to get
	// the exact single-LRU eviction semantics.
	CacheShards int
	// ResultMemo caps how many verified materializations (requester
	// surfaces) each cache entry memoizes for the verified-hit fast
	// path. 0 picks the default (8); negative disables the memo so
	// every hit re-runs remap + re-verify.
	ResultMemo int
	// Exact is the per-request budget for the exhaustive fallback.
	// MaxLen 0 picks the model's hyperperiod capped at MaxLenCap;
	// MaxCandidates and Workers pass through (see exact.Options;
	// Workers must be ≥ 0). The search pruners default to on, so the
	// same admission budget refutes far deeper instances before a
	// request sheds as ErrOverloaded or aborts on ErrBudget.
	Exact exact.Options
	// MaxLenCap caps the automatic MaxLen choice. Default 64.
	MaxLenCap int
	// SearchConcurrency bounds how many exact searches run at once
	// (the backpressure valve that keeps cold bursts from starving
	// hit serving). 0 picks GOMAXPROCS; negative disables the bound.
	SearchConcurrency int
	// SearchQueueWait is how long a request may wait for an exact
	// search admission slot before failing with ErrOverloaded. 0
	// picks the default (500ms); negative fails fast without
	// queueing.
	SearchQueueWait time.Duration
	// DisableAnalysis skips the analytic tier (DecideFast), sending
	// every miss to the heuristic/exact stages (used by benchmarks
	// measuring what the analytic tier saves).
	DisableAnalysis bool
	// DisableHeuristic skips the heuristic stage, sending every miss
	// straight to exact search (used by benchmarks and tests that
	// need the cold path to be the exact search).
	DisableHeuristic bool
	// Store, when non-nil, is the durable L2 tier: requests that miss
	// the LRU consult it before computing (hit order LRU → store →
	// compute), and every decided outcome is written through. Store
	// loads are remapped and re-verified against the requesting model
	// before serving, so a corrupt or stale record can cost a miss,
	// never a wrong schedule.
	Store *store.Store
	// Queue, when non-nil, is the durable async solve queue: New
	// starts its worker pool against this service's ungated pipeline
	// (workers run the same analysis→heuristic→exact stages but are
	// bounded by the pool size instead of the admission semaphore,
	// and their decided outcomes warm the LRU and write through to
	// the Store), and ScheduleOrEnqueue converts exact-search sheds
	// into queued jobs instead of ErrOverloaded.
	Queue *queue.Queue
}

// Result is the outcome of one scheduling request.
type Result struct {
	// Fingerprint is the canonical model fingerprint (the cache key).
	Fingerprint string
	// OrderDigest identifies the requester's surface within the
	// fingerprint's isomorphism class: a digest of the canonical
	// element order plus the constraint names/parameters/task shapes
	// as the requester spelled them. Byte-identical repeat workloads
	// share a digest; the verified-hit memo is keyed by (Fingerprint,
	// OrderDigest).
	OrderDigest string
	// Decided reports whether the verdict is definitive. False means
	// the search budget ran out before feasibility was decided.
	Decided bool
	// Feasible reports the verdict when Decided.
	Feasible bool
	// Schedule is the verified static schedule in the requester's
	// element names; nil unless feasible. Repeat requests with the
	// same OrderDigest may share one schedule value — treat it as
	// read-only.
	Schedule *sched.Schedule
	// Report is the verification of Schedule against the requesting
	// model; nil unless feasible. May be shared like Schedule.
	Report *sched.Report
	// Source identifies what produced the verdict: "cache" (LRU hit),
	// "store" (durable-store hit), "analysis", "heuristic", or
	// "exact". Source is the authoritative serving tier.
	Source string
	// CacheHit is true only when the verdict came from the in-memory
	// LRU (Source "cache"). Durable-store hits leave it false — use
	// Source to distinguish tiers.
	CacheHit bool
	// Generation identifies the LRU entry a cache hit was served from
	// (0 unless CacheHit): Rehit(Fingerprint, Generation) succeeds
	// only while that same entry stays resident.
	Generation uint64
	// Shared is true when this request piggybacked on another
	// request's in-flight search.
	Shared bool
	// Elapsed is the request's wall-clock service time.
	Elapsed time.Duration
}

// Service is a concurrent scheduling service. Create with New; all
// methods are safe for concurrent use.
type Service struct {
	opt     Options
	metrics Metrics

	cache     *shardedCache
	memoCap   int
	sem       chan struct{} // exact-search admission slots; nil = unbounded
	queueWait time.Duration // ≤ 0: fail fast when the semaphore is full
}

// call is one in-flight admission pipeline. The outcome is canonical
// (like a cache entry) so that every waiter — which may hold a
// differently-named model of the same class — materializes its own
// schedule.
type call struct {
	done chan struct{}
	out  *entry
	err  error
}

// New returns a Service with the given options.
func New(opt Options) *Service {
	if opt.CacheSize <= 0 {
		opt.CacheSize = 256
	}
	if opt.CacheShards <= 0 {
		opt.CacheShards = 8
	}
	if opt.MaxLenCap <= 0 {
		opt.MaxLenCap = 64
	}
	memoCap := opt.ResultMemo
	switch {
	case memoCap == 0:
		memoCap = 8
	case memoCap < 0:
		memoCap = 0
	}
	s := &Service{
		opt:     opt,
		cache:   newShardedCache(opt.CacheSize, opt.CacheShards),
		memoCap: memoCap,
	}
	conc := opt.SearchConcurrency
	if conc == 0 {
		conc = runtime.GOMAXPROCS(0)
	}
	if conc > 0 {
		s.sem = make(chan struct{}, conc)
	}
	switch {
	case opt.SearchQueueWait == 0:
		s.queueWait = 500 * time.Millisecond
	case opt.SearchQueueWait > 0:
		s.queueWait = opt.SearchQueueWait
	default:
		s.queueWait = 0 // fail fast
	}
	if opt.Queue != nil {
		opt.Queue.Start(s.solveQueued)
	}
	return s
}

// Queue returns the attached async solve queue, or nil.
func (s *Service) Queue() *queue.Queue { return s.opt.Queue }

// solveQueued is the queue workers' solver: the same serving loop as
// Schedule — cache, store, single-flight, full pipeline — but ungated
// by the exact-search admission semaphore (the worker pool size is
// the concurrency bound) and reduced to the verdict (the schedule
// itself lands in the LRU and the store, where synchronous requests
// will find it).
func (s *Service) solveQueued(ctx context.Context, m *core.Model) (queue.Verdict, error) {
	res, err := s.schedule(ctx, m, false)
	if err != nil {
		return queue.Verdict{}, err
	}
	return queue.Verdict{Decided: res.Decided, Feasible: res.Feasible, Source: res.Source}, nil
}

// Enqueue submits m to the async solve queue without attempting a
// synchronous solve, deduplicated by canonical fingerprint. Callers
// use it for explicitly-async requests; ScheduleOrEnqueue uses it
// when the synchronous path sheds.
func (s *Service) Enqueue(m *core.Model) (*queue.Status, error) {
	if s.opt.Queue == nil {
		return nil, fmt.Errorf("service: no queue attached")
	}
	st, err := s.opt.Queue.Submit(m)
	if err != nil {
		return nil, err
	}
	s.metrics.Enqueued.Add(1)
	return st, nil
}

// ScheduleOrEnqueue serves one request like Schedule, but converts an
// exact-search shed into an eventual answer when a queue is attached:
// instead of surfacing ErrOverloaded, the request is journaled as an
// async job (deduplicated by fingerprint) and the job's status is
// returned with a nil Result. Exactly one of Result and Status is
// non-nil on success.
func (s *Service) ScheduleOrEnqueue(ctx context.Context, m *core.Model) (*Result, *queue.Status, error) {
	res, err := s.schedule(ctx, m, true)
	if err == nil {
		return res, nil, nil
	}
	if !errors.Is(err, ErrOverloaded) || s.opt.Queue == nil {
		return nil, nil, err
	}
	js, qerr := s.Enqueue(m)
	if qerr != nil {
		// the queue could not durably accept the job; the honest
		// answer is the original backpressure signal
		return nil, nil, err
	}
	return nil, js, nil
}

// Resident returns the verdict the LRU holds for the class with
// fingerprint fp — the answer to a poll for a job the queue has
// already forgotten. It neither refreshes the entry's recency nor
// counts anything in Metrics, so the tier sums are untouched. It never
// reads the store: a feasible record there may be a peer's import
// that no model has re-verified, while an LRU entry was decided or
// re-checked on this node.
func (s *Service) Resident(fp string) (queue.Verdict, bool) {
	sh := s.cache.shard(fp)
	sh.mu.Lock()
	e := sh.lru.peek(fp)
	sh.mu.Unlock()
	if e == nil {
		return queue.Verdict{}, false
	}
	return queue.Verdict{Decided: true, Feasible: e.feasible, Source: e.source}, true
}

// Metrics exposes the service counters.
func (s *Service) Metrics() *Metrics { return &s.metrics }

// CacheLen returns the number of resident cache entries (summed
// across shards).
func (s *Service) CacheLen() int { return s.cache.len() }

// CacheShards returns the shard count (a power of two).
func (s *Service) CacheShards() int { return len(s.cache.shards) }

// EvictionsByShard returns each shard's eviction counter; the sum
// equals Metrics.Evictions.
func (s *Service) EvictionsByShard() []int64 { return s.cache.evictionsByShard() }

// newEntry builds a cache entry wired to this service's memo policy.
func (s *Service) newEntry(key string, decided, feasible bool, slots []int, source string) *entry {
	return &entry{key: key, decided: decided, feasible: feasible, slots: slots, source: source, memoCap: s.memoCap}
}

// Schedule serves one request: validate, canonicalize, consult the
// cache shard, and fall through the single-flighted admission
// pipeline on a miss. The context cancels the exact-search stage; a
// canceled request returns ctx.Err(). A request that cannot get an
// exact-search admission slot within the queue-wait budget returns
// ErrOverloaded.
func (s *Service) Schedule(ctx context.Context, m *core.Model) (*Result, error) {
	return s.schedule(ctx, m, true)
}

// schedule is the serving loop behind Schedule (gated) and the queue
// workers (ungated: the exact stage skips the admission semaphore —
// the worker pool bounds concurrency instead — and a piggybacked
// flight whose leader shed retries as leader rather than surfacing
// ErrOverloaded).
func (s *Service) schedule(ctx context.Context, m *core.Model, gated bool) (*Result, error) {
	start := time.Now()
	if err := m.Validate(); err != nil {
		s.metrics.Invalid.Add(1)
		return nil, err
	}
	s.metrics.Requests.Add(1)
	can := core.Canonicalize(m)
	key := can.Fingerprint()
	digest := requestDigest(m, can)
	sh := s.cache.shard(key)

	for {
		sh.mu.Lock()
		if e := sh.lru.get(key); e != nil {
			gen := e.gen
			sh.mu.Unlock()
			res, ok := s.materialize(m, can, digest, e, start)
			if ok {
				s.metrics.CacheHits.Add(1)
				s.metrics.hitNanos.Add(int64(res.Elapsed))
				res.CacheHit = true
				res.Source = "cache"
				res.Generation = gen
				return res, nil
			}
			// re-verification failed: never serve it, drop the entry
			// and search afresh
			sh.mu.Lock()
			sh.lru.remove(key)
			sh.mu.Unlock()
			continue
		}
		// L2: the durable store. Probe under the shard lock (it is an
		// in-memory index), but remap + re-verify outside it.
		if st := s.opt.Store; st != nil {
			if rec, ok := st.Get(key); ok {
				sh.mu.Unlock()
				if e, err := entryFromRecord(key, can, rec, s.memoCap); err == nil {
					if res, ok := s.materialize(m, can, digest, e, start); ok {
						s.metrics.StoreHits.Add(1)
						s.metrics.hitNanos.Add(int64(res.Elapsed))
						res.Source = "store"
						// promote into the LRU so the next hit skips
						// the remapping of record slices
						sh.mu.Lock()
						s.addToShard(sh, e)
						sh.mu.Unlock()
						return res, nil
					}
				}
				// the record is inconsistent with the requesting model
				// or fails verification: it is corrupt or stale — drop
				// it and fall through to a fresh search
				s.metrics.StoreCorrupt.Add(1)
				st.Drop(key)
				continue
			}
		}
		if c, ok := sh.flight[key]; ok {
			sh.mu.Unlock()
			s.metrics.FlightShared.Add(1)
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-c.done:
			}
			if c.err != nil {
				if errors.Is(c.err, context.Canceled) || errors.Is(c.err, context.DeadlineExceeded) {
					continue // the leader was canceled, not us: retry
				}
				if !gated && errors.Is(c.err, ErrOverloaded) {
					continue // the leader shed; an ungated caller retries as leader
				}
				return nil, c.err
			}
			res, ok := s.materialize(m, can, digest, c.out, start)
			if !ok {
				return nil, fmt.Errorf("service: in-flight result failed verification for %s", key)
			}
			res.Shared = true
			return res, nil
		}
		c := &call{done: make(chan struct{})}
		if sh.flight == nil {
			sh.flight = make(map[string]*call)
		}
		sh.flight[key] = c
		s.metrics.CacheMisses.Add(1)
		sh.mu.Unlock()

		c.out, c.err = s.runPipeline(ctx, m, can, key, gated)
		if c.err == nil && c.out.decided {
			if st := s.opt.Store; st != nil {
				// write-through: decided outcomes are write-once
				// artifacts. A failed append degrades durability, not
				// correctness, so it is counted rather than fatal.
				if err := st.Put(recordFromEntry(can, c.out)); err != nil {
					s.metrics.StorePutErrors.Add(1)
				} else {
					s.metrics.StorePuts.Add(1)
				}
			}
		}
		sh.mu.Lock()
		if c.err == nil && c.out.decided {
			s.addToShard(sh, c.out)
		}
		delete(sh.flight, key)
		sh.mu.Unlock()
		close(c.done)

		if c.err != nil {
			return nil, c.err
		}
		res, ok := s.materialize(m, can, digest, c.out, start)
		if !ok {
			return nil, fmt.Errorf("service: fresh result failed verification for %s", key)
		}
		s.metrics.missNanos.Add(int64(res.Elapsed))
		return res, nil
	}
}

// addToShard inserts an entry into a shard's LRU (caller holds the
// shard lock), stamps it with the shard's next generation and accounts
// evictions both per shard and globally.
func (s *Service) addToShard(sh *cacheShard, e *entry) {
	sh.gen++
	e.gen = sh.gen
	if ev := sh.lru.add(e); ev > 0 {
		sh.evictions.Add(int64(ev))
		s.metrics.Evictions.Add(int64(ev))
	}
}

// Rehit serves a cache hit whose answer the caller already holds: the
// daemon's front cache keeps the response body of an earlier hit
// together with that Result's Fingerprint and Generation. Rehit
// reports true only while the same LRU entry is still resident. It
// then does what a full hit does to the cache — refreshes the entry's
// recency — and counts the request as a front hit and a cache hit,
// and also as a verified-memo hit for a feasible class, since no remap
// or sched.Check ran. The time since start counts as hit latency and
// is returned. On false nothing is counted, and the caller must take
// the full path.
func (s *Service) Rehit(fp string, gen uint64, start time.Time) (time.Duration, bool) {
	sh := s.cache.shard(fp)
	sh.mu.Lock()
	e := sh.lru.get(fp)
	ok := e != nil && e.gen == gen
	sh.mu.Unlock()
	if !ok {
		return 0, false
	}
	s.metrics.Requests.Add(1)
	s.metrics.FrontHits.Add(1)
	s.metrics.CacheHits.Add(1)
	if e.feasible {
		s.metrics.MemoHits.Add(1)
	}
	elapsed := time.Since(start)
	s.metrics.hitNanos.Add(int64(elapsed))
	return elapsed, true
}

// acquireSearch takes an exact-search admission slot, waiting at most
// the queue-wait budget. It returns ErrOverloaded when the queue is
// saturated and ctx.Err() when the request is canceled while queued.
func (s *Service) acquireSearch(ctx context.Context) error {
	select {
	case s.sem <- struct{}{}:
		return nil
	default:
	}
	if s.queueWait <= 0 {
		s.metrics.Overloaded.Add(1)
		return ErrOverloaded
	}
	waitStart := time.Now()
	t := time.NewTimer(s.queueWait)
	defer t.Stop()
	select {
	case s.sem <- struct{}{}:
		s.metrics.queueWaitNanos.Add(int64(time.Since(waitStart)))
		return nil
	case <-t.C:
		s.metrics.queueWaitNanos.Add(int64(time.Since(waitStart)))
		s.metrics.Overloaded.Add(1)
		return ErrOverloaded
	case <-ctx.Done():
		s.metrics.queueWaitNanos.Add(int64(time.Since(waitStart)))
		s.metrics.Canceled.Add(1)
		return ctx.Err()
	}
}

// runPipeline executes the admission pipeline for one fingerprint:
// the analytic tier (DecideFast — closed-form necessary tests for NO,
// the generalized Theorem-3 construction for YES, its witness already
// Checker-verified), the paper's heuristic, then budgeted exact
// search — gated by the bounded admission semaphore — under the
// request context. The outcome is canonical. Every tier's positive
// outcome is re-verified again on the way out by materialize, so a
// tier can cost time but never soundness.
func (s *Service) runPipeline(ctx context.Context, m *core.Model, can *core.Canonical, key string, gated bool) (*entry, error) {
	if !s.opt.DisableAnalysis {
		fd, err := analysis.DecideFast(m)
		if err != nil {
			return nil, fmt.Errorf("service: analysis: %w", err)
		}
		switch fd.Verdict {
		case analysis.Infeasible:
			s.metrics.AnalysisRefuted.Add(1)
			return s.newEntry(key, true, false, nil, "analysis"), nil
		case analysis.Feasible:
			s.metrics.AnalysisSolved.Add(1)
			return s.newEntry(key, true, true, canonicalSlots(can, fd.Witness), "analysis"), nil
		}
	}

	if !s.opt.DisableHeuristic {
		res, err := heuristic.Schedule(m, heuristic.Options{MergeShared: true})
		switch {
		case err == nil:
			s.metrics.HeuristicSolved.Add(1)
			return s.newEntry(key, true, true, canonicalSlots(can, res.Schedule), "heuristic"), nil
		case !errors.Is(err, heuristic.ErrNoSchedule):
			// a real defect (bad merge, broken task graph), not the
			// expected "couldn't find one": count it so it is visible,
			// then let the exact stage give the definitive answer
			s.metrics.HeuristicErrors.Add(1)
		}
	}

	// only the NP-hard stage is backpressured: a burst of cold
	// searches must queue (briefly) and shed, not monopolize the box.
	// Queue workers come through ungated — their pool size is already
	// the concurrency bound, and a worker must never shed its own job.
	if gated && s.sem != nil {
		if err := s.acquireSearch(ctx); err != nil {
			return nil, err
		}
		defer func() { <-s.sem }()
	}

	exopt := s.opt.Exact
	if exopt.MaxLen <= 0 {
		exopt.MaxLen = m.Hyperperiod()
		if exopt.MaxLen > s.opt.MaxLenCap {
			exopt.MaxLen = s.opt.MaxLenCap
		}
	}
	// Durable refutation cache (DESIGN.md §14): when a store is
	// attached, seed the search with the memo class's persisted
	// transposition table — any structurally identical problem solved
	// on this node (before a restart, or a near-miss variant of this
	// class) pre-prunes this search — and export what this
	// search derives for the next one. Seeding is verdict-invisible:
	// signatures prune only on exact byte match against the search's
	// own signature builder.
	var memoClass string
	if s.opt.Store != nil {
		if k, ok := exact.MemoKey(m, exopt); ok {
			memoClass = k
			exopt.SnapshotMemo = true
			if rec, ok := s.opt.Store.GetMemo(k); ok {
				exopt.SeedMemo = rec.Sigs
				s.metrics.MemoSeedHits.Add(1)
				s.metrics.MemoSeedSigs.Add(int64(len(rec.Sigs)))
			}
		}
	}
	s.metrics.Searches.Add(1)
	searchStart := time.Now()
	sc, st, err := exact.FindScheduleCtx(ctx, m, exopt)
	s.metrics.searchNanos.Add(int64(time.Since(searchStart)))
	if st != nil {
		s.metrics.exactNodes.Add(int64(st.NodesExplored))
		if memoClass != "" {
			// write-back is merge-by-union, so concurrent searches of
			// the class and repeated solves only ever grow the cache;
			// a failed append degrades future warmth, not correctness.
			// Runs whose refutations were all seeded still merge — it
			// registers this fingerprint as a member of the class
			if perr := s.opt.Store.PutMemo(memoClass, []string{key}, st.MemoSnapshot); perr == nil && len(st.MemoSnapshot) > 0 {
				s.metrics.MemoSnapshotPuts.Add(1)
			}
		}
	}
	switch {
	case err == nil:
		s.metrics.ExactSolved.Add(1)
		return s.newEntry(key, true, true, canonicalSlots(can, sc), "exact"), nil
	case errors.Is(err, exact.ErrNotFound):
		s.metrics.ExactRefuted.Add(1)
		return s.newEntry(key, true, false, nil, "exact"), nil
	case errors.Is(err, exact.ErrBudget):
		s.metrics.Undecided.Add(1)
		// undecided outcomes are never cached: a later request (or a
		// bigger budget) may still decide the class
		return s.newEntry(key, false, false, nil, "exact"), nil
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		s.metrics.Canceled.Add(1)
		return nil, err
	default:
		return nil, fmt.Errorf("service: exact search: %w", err)
	}
}

// materialize turns a canonical outcome into the requester's Result:
// remap the canonical slots through the requester's canonical element
// order and re-verify against the requesting model. It reports false
// when a feasible outcome fails verification — the collision guard
// that keeps the cache sound even if canonicalization were buggy.
//
// The verified-hit fast path: when this entry has already been
// materialized and verified for the same request digest, the memoized
// schedule and report are served directly — the digest pins the
// canonical element order and the constraint surface, so the remap
// and re-check would reproduce the memoized values bit for bit.
func (s *Service) materialize(m *core.Model, can *core.Canonical, digest string, e *entry, start time.Time) (*Result, bool) {
	res := &Result{
		Fingerprint: e.key,
		OrderDigest: digest,
		Decided:     e.decided,
		Feasible:    e.feasible,
		Source:      e.source,
	}
	if e.feasible {
		if v := e.lookupVerified(digest); v != nil {
			s.metrics.MemoHits.Add(1)
			res.Schedule = v.schedule
			res.Report = v.report
		} else {
			sc, err := sched.FromIndices(can.Order, e.slots)
			if err != nil {
				// out-of-range indices (possible only for entries loaded
				// from the durable store) are treated like any failed
				// verification: never served
				return nil, false
			}
			rep := sched.Check(m, sc)
			if !rep.Feasible {
				return nil, false
			}
			e.storeVerified(digest, &verified{schedule: sc, report: rep})
			res.Schedule = sc
			res.Report = rep
		}
	}
	res.Elapsed = time.Since(start)
	return res, true
}

// requestDigest digests the requester's surface: the canonical
// element order plus every constraint's name, parameters, and task
// shape in the requester's own spelling and order. Within one
// fingerprint (isomorphism class), an equal digest means the remap
// target and the verification report are determined — the soundness
// condition the verified-hit memo rests on. A differently-spelled
// isomorphic model gets a different digest and simply takes the full
// remap + re-verify path.
func requestDigest(m *core.Model, can *core.Canonical) string {
	h := sha256.New()
	var buf [8]byte
	writeInt := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	writeStr := func(s string) {
		writeInt(len(s))
		h.Write([]byte(s))
	}
	writeInt(len(can.Order))
	for _, e := range can.Order {
		writeStr(e)
	}
	writeInt(len(m.Constraints))
	for _, c := range m.Constraints {
		writeStr(c.Name)
		writeInt(int(c.Kind))
		writeInt(c.Period)
		writeInt(c.Deadline)
		nodes := c.Task.Nodes()
		writeInt(len(nodes))
		for _, nd := range nodes {
			writeStr(nd)
			writeStr(c.Task.ElementOf(nd))
		}
		edges := c.Task.G.Edges()
		writeInt(len(edges))
		for _, e := range edges {
			writeStr(e.From)
			writeStr(e.To)
		}
	}
	sum := h.Sum(nil)
	return hex.EncodeToString(sum[:16])
}

// canonicalSlots converts a schedule in element names to canonical
// index form (-1 = idle). Schedules arriving here were synthesized
// over the model's own elements, so conversion cannot fail.
func canonicalSlots(can *core.Canonical, s *sched.Schedule) []int {
	out, err := s.ToIndices(can.Index)
	if err != nil {
		panic(fmt.Sprintf("service: synthesized schedule outside the model: %v", err))
	}
	return out
}
