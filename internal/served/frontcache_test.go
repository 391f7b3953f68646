package served

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"rtm/internal/cluster"
	"rtm/internal/core"
	"rtm/internal/exact"
	"rtm/internal/queue"
	"rtm/internal/sched"
	"rtm/internal/service"
	"rtm/internal/spec"
	"rtm/internal/store"
)

// These tests pin the front cache's soundness: it serves a stored body
// only for the same request bytes, with no query string, on a node
// that would serve the request locally, and while the LRU entry the
// body came from is still resident. Each case drives the handler in
// process.

// serveReq sends one request to h and returns the status and body.
func serveReq(t *testing.T, h http.Handler, req *http.Request) (int, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.String()
}

// postIn POSTs body to h's /schedule (target may carry a query).
func postIn(t *testing.T, h http.Handler, target, body string) (int, string) {
	t.Helper()
	return serveReq(t, h, httptest.NewRequest(http.MethodPost, target, strings.NewReader(body)))
}

// decode parses a 200 /schedule answer.
func decode(t *testing.T, code int, body string) scheduleResponse {
	t.Helper()
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var out scheduleResponse
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatalf("%v\n%s", err, body)
	}
	return out
}

// postOK POSTs specText to h's /schedule and decodes the 200 answer.
func postOK(t *testing.T, h http.Handler, specText string) scheduleResponse {
	t.Helper()
	code, body := postIn(t, h, "/schedule", specText)
	return decode(t, code, body)
}

// frontHits reads the service's front-hit counter.
func frontHits(svc *service.Service) int64 { return svc.Metrics().FrontHits.Load() }

var elapsedField = regexp.MustCompile(`"elapsedMicros":\d+`)

// stableBody strips the per-request elapsed time from an answer.
func stableBody(body string) string {
	return elapsedField.ReplaceAllString(body, `"elapsedMicros":X`)
}

// warmFront posts specText twice, a cold solve and the LRU hit whose
// body the front cache keeps, and checks the body was stored.
func warmFront(t *testing.T, d *Daemon, h http.Handler, specText string) scheduleResponse {
	t.Helper()
	n := d.front.len()
	postOK(t, h, specText)
	hit := postOK(t, h, specText)
	if !hit.CacheHit || d.front.len() != n+1 {
		t.Fatalf("warming hit: front cache holds %d bodies, want %d: %+v", d.front.len(), n+1, hit)
	}
	return hit
}

// TestFrontCacheOneByteChangeMisses: a body one byte away from a
// cached one is a different key and is answered in its own words.
func TestFrontCacheOneByteChangeMisses(t *testing.T) {
	svc := service.New(service.Options{})
	d := newDaemon(svc, 10*time.Second, 1<<20, 1024)
	h := d.Mux()
	warmFront(t, d, h, exampleSpec)
	changed := strings.Replace(exampleSpec, "system ctl", "system ctm", 1)
	if len(changed) != len(exampleSpec) {
		t.Fatal("test edit is not a one-byte change")
	}
	got := postOK(t, h, changed)
	if frontHits(svc) != 0 {
		t.Fatalf("one-byte change was front-served (front_hits %d)", frontHits(svc))
	}
	if got.System != "ctm" || !got.CacheHit {
		t.Fatalf("one-byte change: %+v", got)
	}
}

// TestFrontCacheRenamedSurfaceMisses: a renamed isomorphic surface is
// a cache hit on the class but a front miss, and gets its own names.
func TestFrontCacheRenamedSurfaceMisses(t *testing.T) {
	svc := service.New(service.Options{})
	d := newDaemon(svc, 10*time.Second, 1<<20, 1024)
	h := d.Mux()
	orig := warmFront(t, d, h, exampleSpec)
	code, body := postIn(t, h, "/schedule", renamedSpec)
	iso := decode(t, code, body)
	if frontHits(svc) != 0 {
		t.Fatalf("renamed surface was front-served (front_hits %d)", frontHits(svc))
	}
	if !iso.CacheHit || iso.Fingerprint != orig.Fingerprint || iso.System != "ctl2" {
		t.Fatalf("renamed surface: %+v", iso)
	}
	for _, el := range []string{"fS", "fK", "fX"} {
		if strings.Contains(body, `"`+el+`"`) {
			t.Fatalf("renamed surface answered in the original names:\n%s", body)
		}
	}
	// its own repeat is front-served with its own body
	code, again := postIn(t, h, "/schedule", renamedSpec)
	decode(t, code, again)
	if frontHits(svc) != 1 || stableBody(again) != stableBody(body) {
		t.Fatalf("renamed repeat: front_hits %d\n%s\n%s", frontHits(svc), body, again)
	}
}

// TestFrontCacheAsyncBypasses: with a queue attached, ?async=1 answers
// 202 even when the plain body is front-cached, and a 202 is never
// stored.
func TestFrontCacheAsyncBypasses(t *testing.T) {
	// no workers: the job stays pending, so the synchronous posts below
	// solve the class themselves
	q, err := queue.Open(t.TempDir(), queue.Options{Workers: 0, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	svc := service.New(service.Options{Queue: q})
	d := newDaemon(svc, 10*time.Second, 1<<20, 1024)
	h := d.Mux()

	if code, body := postIn(t, h, "/schedule?async=1", exampleSpec); code != http.StatusAccepted {
		t.Fatalf("async submit: status %d: %s", code, body)
	}
	if d.front.len() != 0 {
		t.Fatal("202 answer was stored")
	}
	warmFront(t, d, h, exampleSpec)
	for i := 0; i < 2; i++ {
		if code, body := postIn(t, h, "/schedule?async=1", exampleSpec); code != http.StatusAccepted {
			t.Fatalf("async repeat of a front-cached body: status %d: %s", code, body)
		}
	}
	if frontHits(svc) != 0 || d.front.len() != 1 {
		t.Fatalf("async requests touched the front cache: front_hits %d, len %d", frontHits(svc), d.front.len())
	}
}

// TestFrontCacheSkipsUndecided: an undecided answer (exact budget run
// out) is never cached, in the LRU or in front.
func TestFrontCacheSkipsUndecided(t *testing.T) {
	const hard = `system hard
element u0 weight 2
element u1 weight 2
element u2 weight 2
sporadic c0 separation 4 deadline 4 { u0 }
sporadic c1 separation 6 deadline 6 { u1 }
sporadic c2 separation 12 deadline 12 { u2 }
`
	svc := service.New(service.Options{Exact: exact.Options{MaxCandidates: 1}, DisableHeuristic: true})
	d := newDaemon(svc, 10*time.Second, 1<<20, 1024)
	h := d.Mux()
	for i := 0; i < 3; i++ {
		if got := postOK(t, h, hard); got.Decided || got.CacheHit {
			t.Fatalf("request %d: %+v", i, got)
		}
	}
	if d.front.len() != 0 || frontHits(svc) != 0 {
		t.Fatalf("undecided answer reached the front cache: len %d", d.front.len())
	}
}

// TestFrontCacheSkipsBadRequests: 400 and 413 answers are never stored.
func TestFrontCacheSkipsBadRequests(t *testing.T) {
	svc := service.New(service.Options{})
	d := newDaemon(svc, 10*time.Second, 64, 1024)
	h := d.Mux()
	big := strings.Repeat("element x weight 1\n", 100)
	for i := 0; i < 2; i++ {
		if code, _ := postIn(t, h, "/schedule", "element dangling syntax"); code != http.StatusBadRequest {
			t.Fatalf("malformed spec: status %d", code)
		}
		if code, _ := postIn(t, h, "/schedule", big); code != http.StatusRequestEntityTooLarge {
			t.Fatalf("oversized spec: status %d", code)
		}
	}
	if d.front.len() != 0 {
		t.Fatalf("front cache holds %d bodies after 4xx answers", d.front.len())
	}
}

// slowSpec keeps the exact stage busy for far longer than a test: with
// the analytic tier and the heuristic off, its search runs until its
// request is canceled.
const slowSpec = `system slow
element a weight 2
element b weight 2
element c weight 2
element d weight 2
sporadic p separation 7 deadline 7 { a }
sporadic q separation 9 deadline 9 { b }
sporadic r separation 11 deadline 11 { c }
sporadic s separation 13 deadline 13 { d }
`

// holdSearchSlot starts slowSpec on h and returns once its search
// holds svc's only admission slot; the returned func cancels it and
// waits for its answer.
func holdSearchSlot(t *testing.T, svc *service.Service, h http.Handler) func() {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		req := httptest.NewRequest(http.MethodPost, "/schedule", strings.NewReader(slowSpec)).WithContext(ctx)
		h.ServeHTTP(httptest.NewRecorder(), req)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for svc.Metrics().Searches.Load() == 0 {
		if time.Now().After(deadline) {
			cancel()
			t.Fatal("slow search never started")
		}
		time.Sleep(time.Millisecond)
	}
	return func() { cancel(); wg.Wait() }
}

// TestFrontCacheSkipsShed: with the only admission slot held, a cold
// request is shed — 429 without a queue, 202 with one — and neither
// answer is stored.
func TestFrontCacheSkipsShed(t *testing.T) {
	opt := service.Options{SearchConcurrency: 1, SearchQueueWait: -1, DisableAnalysis: true, DisableHeuristic: true}

	svc := service.New(opt)
	d := newDaemon(svc, time.Minute, 1<<20, 1024)
	h := d.Mux()
	release := holdSearchSlot(t, svc, h)
	for i := 0; i < 2; i++ {
		if code, body := postIn(t, h, "/schedule", exampleSpec); code != http.StatusTooManyRequests {
			t.Fatalf("shed request: status %d: %s", code, body)
		}
	}
	release()
	if d.front.len() != 0 {
		t.Fatalf("front cache holds %d bodies after 429 answers", d.front.len())
	}

	q, err := queue.Open(t.TempDir(), queue.Options{Workers: 0, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	opt.Queue = q
	svcQ := service.New(opt)
	dq := newDaemon(svcQ, time.Minute, 1<<20, 1024)
	hq := dq.Mux()
	release = holdSearchSlot(t, svcQ, hq)
	for i := 0; i < 2; i++ {
		if code, body := postIn(t, hq, "/schedule", exampleSpec); code != http.StatusAccepted {
			t.Fatalf("shed request with a queue: status %d: %s", code, body)
		}
	}
	release()
	if dq.front.len() != 0 {
		t.Fatalf("front cache holds %d bodies after 202 answers", dq.front.len())
	}
}

// TestFrontCacheEvictedEntryNotServed: once the LRU entry a body came
// from is evicted, a byte-identical repeat takes the full path — here
// a store hit — and gets exactly the body a daemon without a front
// cache serves.
func TestFrontCacheEvictedEntryNotServed(t *testing.T) {
	run := func(respCache int) (string, *Daemon, *service.Service) {
		st, err := store.Open(t.TempDir(), store.Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		svc := service.New(service.Options{CacheSize: 1, CacheShards: 1, Store: st})
		d := newDaemon(svc, 10*time.Second, 1<<20, respCache)
		h := d.Mux()
		postOK(t, h, exampleSpec)
		postOK(t, h, exampleSpec) // LRU hit
		postOK(t, h, auxSpec)     // evicts exampleSpec's class
		code, body := postIn(t, h, "/schedule", exampleSpec)
		decode(t, code, body)
		return body, d, svc
	}
	body, d, svc := run(1024)
	if !strings.Contains(body, `"source":"store","cacheHit":false`) {
		t.Fatalf("repeat after eviction was not a store hit:\n%s", body)
	}
	if frontHits(svc) != 0 {
		t.Fatalf("evicted entry was front-served (front_hits %d)", frontHits(svc))
	}
	if d.front.len() != 0 {
		t.Fatalf("stale entry kept: front cache holds %d bodies", d.front.len())
	}
	if want, _, _ := run(0); stableBody(body) != stableBody(want) {
		t.Fatalf("answer differs from the full path's:\n%s\n%s", body, want)
	}
}

// TestFrontCacheNewGenerationNotServed: after the class is evicted and
// solved again, its LRU entry is a new generation, and a body stored
// from the old one is never served.
func TestFrontCacheNewGenerationNotServed(t *testing.T) {
	svc := service.New(service.Options{CacheSize: 1, CacheShards: 1})
	d := newDaemon(svc, 10*time.Second, 1<<20, 1024)
	h := d.Mux()
	warmFront(t, d, h, exampleSpec)
	// mark the stored body so serving it would show
	const stale = `{"stale":`
	for el := d.front.order.Front(); el != nil; el = el.Next() {
		el.Value.(*frontItem).prefix = []byte(stale)
	}
	postOK(t, h, auxSpec) // evicts the class
	if got := postOK(t, h, renamedSpec); got.CacheHit {
		t.Fatalf("re-solve after eviction was a hit: %+v", got)
	}
	code, body := postIn(t, h, "/schedule", exampleSpec)
	got := decode(t, code, body)
	if strings.HasPrefix(body, stale) || frontHits(svc) != 0 || !got.CacheHit {
		t.Fatalf("old generation's body served (front_hits %d):\n%s", frontHits(svc), body)
	}
	// the full path stored the new generation's body, which serves
	code, again := postIn(t, h, "/schedule", exampleSpec)
	decode(t, code, again)
	if frontHits(svc) != 1 || stableBody(again) != stableBody(body) {
		t.Fatalf("new generation not front-served (front_hits %d):\n%s", frontHits(svc), again)
	}
}

// TestFrontHitKeepsLRURecency: a front hit refreshes its class's LRU
// recency exactly as a full hit does. Serve A then B, front-hit A,
// serve C: B is the entry evicted.
func TestFrontHitKeepsLRURecency(t *testing.T) {
	svc := service.New(service.Options{CacheSize: 2, CacheShards: 1})
	d := newDaemon(svc, 10*time.Second, 1<<20, 1024)
	h := d.Mux()
	warmFront(t, d, h, exampleSpec) // A
	postOK(t, h, auxSpec)           // B
	postOK(t, h, exampleSpec)
	if frontHits(svc) != 1 {
		t.Fatalf("A was not front-hit (front_hits %d)", frontHits(svc))
	}
	postOK(t, h, thirdSpec) // C
	if ev := svc.Metrics().Evictions.Load(); ev != 1 {
		t.Fatalf("evictions = %d, want 1", ev)
	}
	postOK(t, h, exampleSpec)
	if frontHits(svc) != 2 {
		t.Fatal("A was evicted; B should have been")
	}
	misses := svc.Metrics().CacheMisses.Load()
	if got := postOK(t, h, auxSpec); got.CacheHit || svc.Metrics().CacheMisses.Load() != misses+1 {
		t.Fatalf("B survived: %+v", got)
	}
}

// TestFrontHitCounters: a front hit counts as a request, a cache hit
// and a front hit, and as a memo hit for a feasible class only; it
// touches no term of the tier-sum invariant.
func TestFrontHitCounters(t *testing.T) {
	const infeasible = `system over
element a weight 2
element b weight 2
periodic p period 3 deadline 3 { a }
periodic q period 3 deadline 3 { b }
`
	svc := service.New(service.Options{})
	d := newDaemon(svc, 10*time.Second, 1<<20, 1024)
	h := d.Mux()
	for _, tc := range []struct {
		spec string
		memo int64
	}{{exampleSpec, 1}, {infeasible, 0}} {
		warmFront(t, d, h, tc.spec)
		before := svc.Snapshot()
		got := postOK(t, h, tc.spec)
		if !got.CacheHit || got.Source != "cache" || got.Feasible != (tc.memo == 1) {
			t.Fatalf("front hit answer: %+v", got)
		}
		after := svc.Snapshot()
		want := map[string]int64{
			"requests": 1, "cache_hits": 1, "front_hits": 1, "memo_hits": tc.memo,
			"cache_misses": 0, "analysis_solved": 0, "analysis_refuted": 0,
			"heuristic_solved": 0, "searches": 0, "store_hits": 0,
		}
		for k, v := range want {
			if d := after[k] - before[k]; d != v {
				t.Errorf("%s: %s moved by %d on a front hit, want %d", got.System, k, d, v)
			}
		}
		if after["hit_ns_total"] <= before["hit_ns_total"] {
			t.Errorf("%s: front hit added no hit latency", got.System)
		}
	}
	srv := httptest.NewServer(h)
	defer srv.Close()
	if got := metricValue(t, srv.URL, "front_hits"); got != 2 {
		t.Fatalf("/metrics front_hits = %d, want 2", got)
	}
}

// TestFrontCacheNonOwnerForwardsAgain: a non-owner that stored a body
// while its owner was down (the local fallback) never front-serves it,
// and forwards again once the owner is back.
func TestFrontCacheNonOwnerForwardsAgain(t *testing.T) {
	ring, err := cluster.NewRing([]string{"n1", "n2"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := spec.Parse(exampleSpec)
	if err != nil {
		t.Fatal(err)
	}
	ownerID := ring.Owner(core.Fingerprint(sp.Model))
	selfID := "n1"
	if ownerID == selfID {
		selfID = "n2"
	}
	ownerSvc := service.New(service.Options{})
	ownerSrv := httptest.NewServer(New(Config{
		Service: ownerSvc, Timeout: 10 * time.Second, MaxBody: 1 << 20, RespCache: 64,
		Cluster: &Cluster{NodeID: ownerID, Ring: ring, Peers: map[string]*cluster.Client{}},
	}).Mux())
	defer ownerSrv.Close()
	dead := httptest.NewServer(http.NotFoundHandler())
	dead.Close()

	peers := map[string]*cluster.Client{ownerID: cluster.NewClient(ownerID, dead.URL, time.Second)}
	svc := service.New(service.Options{})
	d := New(Config{
		Service: svc, Timeout: 10 * time.Second, MaxBody: 1 << 20, RespCache: 64,
		Cluster: &Cluster{NodeID: selfID, Ring: ring, Peers: peers},
	})
	h := d.Mux()

	// owner down: local fallbacks, the second an LRU hit whose body is
	// stored; the third is still not front-served
	warmFront(t, d, h, exampleSpec)
	postOK(t, h, exampleSpec)
	if frontHits(svc) != 0 {
		t.Fatalf("non-owner front-served a request it would forward (front_hits %d)", frontHits(svc))
	}
	if got := svc.Metrics().ForwardFallbacks.Load(); got != 3 {
		t.Fatalf("fallbacks = %d, want 3", got)
	}

	// owner back: the same bytes are forwarded
	peers[ownerID] = cluster.NewClient(ownerID, ownerSrv.URL, 2*time.Second)
	postOK(t, h, exampleSpec)
	if frontHits(svc) != 0 || svc.Metrics().Forwards.Load() != 1 {
		t.Fatalf("owner back: front_hits %d, forwards %d, want 0 and 1", frontHits(svc), svc.Metrics().Forwards.Load())
	}
	if got := ownerSvc.Metrics().Requests.Load(); got != 1 {
		t.Fatalf("owner served %d requests, want 1", got)
	}
}

// TestFrontCacheConcurrentChurn: several clients repeat four classes
// through a two-entry LRU and a two-body front cache, so entries are
// evicted, re-solved and re-stored while others are being served.
// Every answer must still be the requester's own, fully met schedule.
func TestFrontCacheConcurrentChurn(t *testing.T) {
	svc := service.New(service.Options{CacheSize: 2, CacheShards: 1})
	d := newDaemon(svc, 10*time.Second, 1<<20, 2)
	h := d.Mux()
	specs := map[string]string{"ctl": exampleSpec, "ctl2": renamedSpec, "aux": auxSpec, "third": thirdSpec}
	names := []string{"ctl", "ctl2", "aux", "third"}
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				sys := names[(c+i*(c+1))%len(names)]
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/schedule", strings.NewReader(specs[sys])))
				var got scheduleResponse
				if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &got) != nil {
					t.Errorf("%s: status %d: %s", sys, rec.Code, rec.Body.Bytes())
					return
				}
				if got.System != sys || !got.Decided || !got.Feasible {
					t.Errorf("%s answered as %+v", sys, got)
					return
				}
				for _, slot := range got.Schedule {
					if slot != sched.Idle && !strings.Contains(specs[sys], "element "+slot+" ") {
						t.Errorf("%s: schedule names %q, not one of its elements", sys, slot)
						return
					}
				}
				for _, con := range got.Constraints {
					if !con.OK {
						t.Errorf("%s: constraint %s not met", sys, con.Name)
						return
					}
				}
			}
		}(c)
	}
	wg.Wait()
	if frontHits(svc) == 0 || svc.Metrics().Evictions.Load() == 0 {
		t.Fatalf("no churn: front_hits %d, evictions %d", frontHits(svc), svc.Metrics().Evictions.Load())
	}
}
