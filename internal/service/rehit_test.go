package service

import (
	"context"
	"testing"
	"time"

	"rtm/internal/core"
)

// TestRehitNamesOneEntry: Rehit succeeds only for the generation a
// cache hit reported, and only while that entry is resident; a class
// evicted and solved again is a new generation.
func TestRehitNamesOneEntry(t *testing.T) {
	ctx := context.Background()
	svc := New(Options{CacheSize: 1, CacheShards: 1})
	a := core.ExampleSystem(core.DefaultExampleParams())
	b := density1Instance(1, []int{2, 3, 6})

	cold, err := svc.Schedule(ctx, a)
	if err != nil {
		t.Fatal(err)
	}
	if cold.CacheHit || cold.Generation != 0 {
		t.Fatalf("cold result carries a generation: %+v", cold)
	}
	hit, err := svc.Schedule(ctx, a)
	if err != nil || !hit.CacheHit || hit.Generation == 0 {
		t.Fatalf("hit: %+v err=%v", hit, err)
	}
	if _, ok := svc.Rehit(hit.Fingerprint, hit.Generation+1, time.Now()); ok {
		t.Fatal("Rehit accepted a generation no hit reported")
	}
	if _, ok := svc.Rehit(hit.Fingerprint, hit.Generation, time.Now()); !ok {
		t.Fatal("Rehit refused the resident entry")
	}

	if _, err := svc.Schedule(ctx, b); err != nil { // evicts a
		t.Fatal(err)
	}
	if _, ok := svc.Rehit(hit.Fingerprint, hit.Generation, time.Now()); ok {
		t.Fatal("Rehit accepted an evicted entry")
	}
	if _, err := svc.Schedule(ctx, a); err != nil { // a solved again
		t.Fatal(err)
	}
	if _, ok := svc.Rehit(hit.Fingerprint, hit.Generation, time.Now()); ok {
		t.Fatal("Rehit accepted the old generation of a re-solved class")
	}
	again, err := svc.Schedule(ctx, a)
	if err != nil || !again.CacheHit || again.Generation == hit.Generation {
		t.Fatalf("re-solved class hit: %+v err=%v (old generation %d)", again, err, hit.Generation)
	}
	if got := svc.Metrics().FrontHits.Load(); got != 1 {
		t.Fatalf("front_hits = %d, want 1 (failed probes count nothing)", got)
	}
}

// TestHitAverageCountsStoreHits: hit_ns_total sums the latency of
// cache hits and store hits, so hit_ns_avg divides by both.
func TestHitAverageCountsStoreHits(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	ms := []*core.Model{
		core.ExampleSystem(core.DefaultExampleParams()),
		density1Instance(1, []int{2, 3, 6}),
		density1Instance(1, []int{2, 4, 4}),
	}
	st1 := openStoreT(t, dir)
	svc1 := New(Options{Store: st1})
	for _, m := range ms {
		if _, err := svc1.Schedule(ctx, m); err != nil {
			t.Fatal(err)
		}
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	svc := New(Options{Store: openStoreT(t, dir)})
	for _, m := range ms { // store hits
		if _, err := svc.Schedule(ctx, m); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := svc.Schedule(ctx, ms[0]); err != nil { // one LRU hit
		t.Fatal(err)
	}
	s := svc.Snapshot()
	if s["store_hits"] != 3 || s["cache_hits"] != 1 {
		t.Fatalf("store_hits %d, cache_hits %d, want 3 and 1", s["store_hits"], s["cache_hits"])
	}
	if want := s["hit_ns_total"] / 4; s["hit_ns_avg"] != want {
		t.Fatalf("hit_ns_avg = %d, want hit_ns_total/4 = %d", s["hit_ns_avg"], want)
	}
}
