package service

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"rtm/internal/core"
	"rtm/internal/workload"
)

// This file covers the sharded serving state and the two hot-path
// mechanisms layered on it: the verified-hit memo and the
// backpressured exact-search admission.

// TestShardEvictionAccounting drives enough distinct classes through
// a small multi-shard cache to force evictions in several shards, and
// checks that the per-shard counters sum to the global metric while
// residency stays within every shard's bound.
func TestShardEvictionAccounting(t *testing.T) {
	svc := New(Options{CacheSize: 8, CacheShards: 4})
	if got := svc.CacheShards(); got != 4 {
		t.Fatalf("shards = %d, want 4", got)
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 40; i++ {
		m := workload.AsyncOnly(rng, 2+i%5, 0.5)
		if _, err := svc.Schedule(ctx, m); err != nil {
			t.Fatal(err)
		}
	}
	var sum int64
	for _, ev := range svc.EvictionsByShard() {
		if ev < 0 {
			t.Fatalf("negative shard eviction counter: %v", svc.EvictionsByShard())
		}
		sum += ev
	}
	if got := svc.Metrics().Evictions.Load(); got != sum {
		t.Fatalf("evictions metric %d != per-shard sum %d (%v)", got, sum, svc.EvictionsByShard())
	}
	if sum == 0 {
		t.Fatal("40 classes through an 8-entry cache evicted nothing")
	}
	// per-shard cap is ceil(8/4) = 2, so 4 shards hold at most 8
	if got := svc.CacheLen(); got > 8 {
		t.Fatalf("cache holds %d entries, cap is 8", got)
	}
	for i := range svc.cache.shards {
		sh := &svc.cache.shards[i]
		sh.mu.Lock()
		n := sh.lru.len()
		sh.mu.Unlock()
		if n > 2 {
			t.Fatalf("shard %d holds %d entries, per-shard cap is 2", i, n)
		}
	}
}

// TestShardedCacheConcurrentLen hammers a sharded cache with
// concurrent adds and removes while reading len() from other
// goroutines, under -race. After the writers join, len() must equal
// the exact survivor count.
func TestShardedCacheConcurrentLen(t *testing.T) {
	c := newShardedCache(1<<16, 8) // big enough that nothing evicts
	const writers = 8
	const perWriter = 200
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if n := c.len(); n < 0 || n > writers*perWriter {
					panic(fmt.Sprintf("len = %d mid-flight", n))
				}
			}
		}()
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				key := fmt.Sprintf("k-%d-%d", w, i)
				sh := c.shard(key)
				sh.mu.Lock()
				sh.lru.add(&entry{key: key, decided: true})
				sh.mu.Unlock()
				if i%2 == 1 { // remove every other key
					sh.mu.Lock()
					sh.lru.remove(key)
					sh.mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	want := writers * perWriter / 2
	if got := c.len(); got != want {
		t.Fatalf("len = %d after concurrent add/remove, want %d", got, want)
	}
}

// TestShardCollisionSingleFlight forces several fingerprints into a
// 2-shard table (guaranteeing collisions) and fires identical
// concurrent requests per class: the single-flight invariant is per
// fingerprint, so exactly one search must run per class no matter how
// classes share shards. Run with -race.
func TestShardCollisionSingleFlight(t *testing.T) {
	// unbounded admission: this test isolates the single-flight
	// invariant from backpressure shedding
	svc := New(Options{CacheShards: 2, DisableHeuristic: true, SearchConcurrency: -1})
	ctx := context.Background()
	models := []*core.Model{
		density1Instance(1, []int{2, 6, 6, 6}),
		density1Instance(2, []int{2, 6, 6, 6}),
		density1Instance(3, []int{2, 6, 6, 6}),
		density1Instance(1, []int{2, 3, 6}), // infeasible
		core.ExampleSystem(core.DefaultExampleParams()),
	}
	const per = 6
	var wg sync.WaitGroup
	errs := make(chan error, len(models)*per)
	for _, m := range models {
		for g := 0; g < per; g++ {
			wg.Add(1)
			go func(m *core.Model) {
				defer wg.Done()
				if _, err := svc.Schedule(ctx, m); err != nil {
					errs <- err
				}
			}(m)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	mt := svc.Metrics().Snapshot()
	decided := mt["analysis_solved"] + mt["analysis_refuted"] + mt["searches"]
	if decided != int64(len(models)) {
		t.Fatalf("analysis_solved(%d) + analysis_refuted(%d) + searches(%d) = %d, want %d (one pipeline per class)",
			mt["analysis_solved"], mt["analysis_refuted"], mt["searches"], decided, len(models))
	}
}

// TestVerifiedHitMemo checks the verified-hit fast path: a
// byte-identical repeat request is served the memoized schedule and
// report (no remap/re-check), a renamed isomorphic request shares the
// cache entry but not the memo slot, and its own repeat then memo-hits
// under its own digest.
func TestVerifiedHitMemo(t *testing.T) {
	svc := New(Options{})
	ctx := context.Background()
	m := core.ExampleSystem(core.DefaultExampleParams())

	r1, err := svc.Schedule(ctx, m)
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Feasible || r1.OrderDigest == "" {
		t.Fatalf("cold request: %+v", r1)
	}
	r2, err := svc.Schedule(ctx, m)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.CacheHit || r2.OrderDigest != r1.OrderDigest {
		t.Fatalf("repeat request: %+v", r2)
	}
	if got := svc.Metrics().MemoHits.Load(); got != 1 {
		t.Fatalf("memo_hits after identical repeat = %d, want 1", got)
	}
	// the fast path serves the already-verified values themselves
	if r2.Schedule != r1.Schedule || r2.Report != r1.Report {
		t.Fatal("memo hit did not serve the memoized schedule/report")
	}

	// an isomorphic surface shares the fingerprint but not the digest:
	// it takes the remap + re-verify path, then memoizes its own slot
	ren := renameModel(rand.New(rand.NewSource(5)), m)
	r3, err := svc.Schedule(ctx, ren)
	if err != nil {
		t.Fatal(err)
	}
	if !r3.CacheHit || r3.Fingerprint != r1.Fingerprint || r3.OrderDigest == r1.OrderDigest {
		t.Fatalf("renamed request: %+v", r3)
	}
	if got := svc.Metrics().MemoHits.Load(); got != 1 {
		t.Fatalf("memo_hits after renamed request = %d, want 1 (must re-verify)", got)
	}
	r4, err := svc.Schedule(ctx, ren)
	if err != nil {
		t.Fatal(err)
	}
	if got := svc.Metrics().MemoHits.Load(); got != 2 {
		t.Fatalf("memo_hits after renamed repeat = %d, want 2", got)
	}
	if r4.Schedule != r3.Schedule {
		t.Fatal("renamed repeat did not memo-hit its own surface")
	}
}

// TestVerifiedHitMemoConstraintSurface: two models that differ only in
// constraint names share a fingerprint (names are surface, not
// structure) but must not share memo slots — the report carries the
// requester's constraint names, so serving one surface's report to
// the other would be wrong.
func TestVerifiedHitMemoConstraintSurface(t *testing.T) {
	build := func(cname string) *core.Model {
		m := core.NewModel()
		m.Comm.AddElement("a", 1)
		m.AddConstraint(&core.Constraint{
			Name: cname, Task: core.ChainTask("a"),
			Period: 3, Deadline: 3, Kind: core.Periodic,
		})
		return m
	}
	svc := New(Options{})
	ctx := context.Background()
	r1, err := svc.Schedule(ctx, build("P"))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := svc.Schedule(ctx, build("Q"))
	if err != nil {
		t.Fatal(err)
	}
	if r1.Fingerprint != r2.Fingerprint {
		t.Fatal("constraint rename changed the fingerprint")
	}
	if r1.OrderDigest == r2.OrderDigest {
		t.Fatal("constraint rename did not change the order digest")
	}
	if got := svc.Metrics().MemoHits.Load(); got != 0 {
		t.Fatalf("memo_hits across distinct surfaces = %d, want 0", got)
	}
	if r2.Report.Constraints[0].Name != "Q" {
		t.Fatalf("report names constraint %q, want the requester's %q",
			r2.Report.Constraints[0].Name, "Q")
	}
}

// TestVerifiedHitMemoDisabled: ResultMemo < 0 turns the fast path
// off — every hit re-runs remap + re-verify and still serves.
func TestVerifiedHitMemoDisabled(t *testing.T) {
	svc := New(Options{ResultMemo: -1})
	ctx := context.Background()
	m := core.ExampleSystem(core.DefaultExampleParams())
	for i := 0; i < 3; i++ {
		r, err := svc.Schedule(ctx, m)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Feasible || !r.Report.Feasible {
			t.Fatalf("request %d: %+v", i, r)
		}
	}
	if got := svc.Metrics().MemoHits.Load(); got != 0 {
		t.Fatalf("memo_hits with memo disabled = %d, want 0", got)
	}
	if got := svc.Metrics().CacheHits.Load(); got != 2 {
		t.Fatalf("cache_hits = %d, want 2", got)
	}
}

// TestEntryMemoCap: the per-entry memo never grows past its cap.
func TestEntryMemoCap(t *testing.T) {
	e := &entry{key: "k", decided: true, feasible: true, memoCap: 2}
	for i := 0; i < 10; i++ {
		e.storeVerified(fmt.Sprintf("d%d", i), &verified{})
	}
	e.memoMu.Lock()
	n := len(e.memo)
	e.memoMu.Unlock()
	if n > 2 {
		t.Fatalf("memo holds %d surfaces, cap is 2", n)
	}
	if e.lookupVerified("d9") == nil {
		t.Fatal("most recent surface was evicted from the memo")
	}
}

// TestOverloadFailFast: with one admission slot held and no queue-wait
// budget, a cold request that reaches the exact stage is shed with
// ErrOverloaded — and succeeds once the slot frees.
func TestOverloadFailFast(t *testing.T) {
	svc := New(Options{SearchConcurrency: 1, SearchQueueWait: -1, DisableHeuristic: true})
	ctx := context.Background()
	m := density1Instance(1, []int{2, 6, 6, 6})

	svc.sem <- struct{}{} // occupy the only admission slot
	_, err := svc.Schedule(ctx, m)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("saturated admission returned %v, want ErrOverloaded", err)
	}
	if got := svc.Metrics().Overloaded.Load(); got != 1 {
		t.Fatalf("overloaded = %d, want 1", got)
	}
	if svc.CacheLen() != 0 {
		t.Fatal("shed request left a cache entry")
	}

	<-svc.sem // free the slot: the same request must now succeed
	r, err := svc.Schedule(ctx, m)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Decided || !r.Feasible {
		t.Fatalf("post-recovery request: %+v", r)
	}
}

// TestOverloadQueueWait: a queued request takes the slot when it frees
// within the budget, and is shed with ErrOverloaded when it does not.
func TestOverloadQueueWait(t *testing.T) {
	svc := New(Options{SearchConcurrency: 1, SearchQueueWait: 20 * time.Millisecond, DisableHeuristic: true})
	ctx := context.Background()

	// budget exceeded: the slot never frees
	svc.sem <- struct{}{}
	_, err := svc.Schedule(ctx, density1Instance(1, []int{2, 6, 6, 6}))
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("expired queue wait returned %v, want ErrOverloaded", err)
	}

	// slot frees mid-wait: the queued request must be admitted
	done := make(chan error, 1)
	go func() {
		svcQ := New(Options{SearchConcurrency: 1, SearchQueueWait: 5 * time.Second, DisableHeuristic: true})
		svcQ.sem <- struct{}{}
		go func() {
			time.Sleep(10 * time.Millisecond)
			<-svcQ.sem
		}()
		_, err := svcQ.Schedule(ctx, density1Instance(1, []int{2, 6, 6, 6}))
		done <- err
	}()
	if err := <-done; err != nil {
		t.Fatalf("queued request failed after the slot freed: %v", err)
	}

	// the time spent queued is accounted
	if svc.metrics.queueWaitNanos.Load() <= 0 {
		t.Fatal("queue wait time was not accounted")
	}
}

// TestOverloadCanceledWhileQueued: a request canceled while waiting
// for an admission slot returns the context error, not ErrOverloaded.
func TestOverloadCanceledWhileQueued(t *testing.T) {
	svc := New(Options{SearchConcurrency: 1, SearchQueueWait: 5 * time.Second, DisableHeuristic: true})
	svc.sem <- struct{}{}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	_, err := svc.Schedule(ctx, density1Instance(1, []int{2, 6, 6, 6}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled queued request returned %v, want context.Canceled", err)
	}
}
