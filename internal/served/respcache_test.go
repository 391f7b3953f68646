package served

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"rtm/internal/service"
)

// TestRespCacheBounded: the front cache is LRU-bounded and returns
// exactly what was stored; remove deletes only the entry it names.
func TestRespCacheBounded(t *testing.T) {
	item := func(body, prefix string) *frontItem {
		return &frontItem{key: sha256.Sum256([]byte(body)), prefix: []byte(prefix)}
	}
	get := func(c *frontCache, body string) []byte {
		if it := c.get(sha256.Sum256([]byte(body))); it != nil {
			return it.prefix
		}
		return nil
	}
	c := newFrontCache(2)
	c.put(item("a", "A"))
	c.put(item("b", "B"))
	if got := get(c, "a"); string(got) != "A" {
		t.Fatalf("get(a) = %q", got)
	}
	c.put(item("c", "C")) // evicts b (a was just touched)
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
	if get(c, "b") != nil {
		t.Fatal("LRU victim survived")
	}
	if get(c, "a") == nil || get(c, "c") == nil {
		t.Fatal("resident bodies missing")
	}

	// remove of a replaced entry leaves the replacement in place
	old := c.get(sha256.Sum256([]byte("a")))
	c.put(item("a", "A2"))
	c.remove(old)
	if got := get(c, "a"); string(got) != "A2" {
		t.Fatalf("remove of a replaced entry dropped its replacement: %q", got)
	}
	c.remove(c.get(sha256.Sum256([]byte("a"))))
	if get(c, "a") != nil || c.len() != 1 {
		t.Fatal("removed entry survived")
	}

	// capacity 0 disables caching entirely
	off := newFrontCache(0)
	off.put(item("k", "V"))
	if get(off, "k") != nil || off.len() != 0 || off.enabled() {
		t.Fatal("disabled cache stored a body")
	}
}

// TestAppendElapsed: completing a cached prefix yields the same JSON
// the direct marshaling path produces.
func TestAppendElapsed(t *testing.T) {
	resp := scheduleResponse{Fingerprint: "f", Decided: true, Source: "cache", CacheHit: true}
	b, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	body := appendElapsed(b[:len(b)-2], 1234)
	var got scheduleResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatalf("completed body does not parse: %v\n%s", err, body)
	}
	if got.ElapsedUS != 1234 || got.Fingerprint != "f" || !got.CacheHit {
		t.Fatalf("completed body round-trips wrong: %+v", got)
	}
}

// TestScheduleStatus pins the error → HTTP status mapping, 429 +
// retryable for overload in particular.
func TestScheduleStatus(t *testing.T) {
	cases := []struct {
		err       error
		code      int
		retryable bool
	}{
		{service.ErrOverloaded, http.StatusTooManyRequests, true},
		{fmt.Errorf("wrapped: %w", service.ErrOverloaded), http.StatusTooManyRequests, true},
		{context.DeadlineExceeded, http.StatusGatewayTimeout, false},
		{context.Canceled, http.StatusGatewayTimeout, false},
		{fmt.Errorf("invalid model"), http.StatusBadRequest, false},
	}
	for _, tc := range cases {
		code, retryable := scheduleStatus(tc.err)
		if code != tc.code || retryable != tc.retryable {
			t.Fatalf("scheduleStatus(%v) = (%d, %v), want (%d, %v)",
				tc.err, code, retryable, tc.code, tc.retryable)
		}
	}
}

// TestServedResponseBodyCache: a byte-identical repeat POST is served
// the front-cached body — identical except for the stamped
// elapsedMicros — while a renamed isomorphic spec gets its own body
// under its own names.
func TestServedResponseBodyCache(t *testing.T) {
	svc := service.New(service.Options{})
	d := newDaemon(svc, 10*time.Second, 1<<20, 1024)
	srv := httptest.NewServer(d.Mux())
	defer srv.Close()

	post := func(spec string) (string, scheduleResponse) {
		t.Helper()
		resp, err := http.Post(srv.URL+"/schedule", "text/plain", strings.NewReader(spec))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, raw)
		}
		var out scheduleResponse
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("%v\n%s", err, raw)
		}
		return string(raw), out
	}

	_, cold := post(exampleSpec)
	if cold.CacheHit || cold.OrderDigest == "" {
		t.Fatalf("cold response: %+v", cold)
	}
	if d.front.len() != 0 {
		t.Fatal("cold (miss) response was cached")
	}

	warm1Body, warm1 := post(exampleSpec)
	if !warm1.CacheHit {
		t.Fatalf("first warm response: %+v", warm1)
	}
	if d.front.len() != 1 {
		t.Fatalf("front cache holds %d bodies after first hit, want 1", d.front.len())
	}

	warm2Body, warm2 := post(exampleSpec)
	if !warm2.CacheHit || warm2.OrderDigest != warm1.OrderDigest {
		t.Fatalf("second warm response: %+v", warm2)
	}
	if got := svc.Metrics().FrontHits.Load(); got != 1 {
		t.Fatalf("front_hits = %d, want 1 (the second warm repeat)", got)
	}
	// the bodies must be byte-identical once the elapsed stamp is
	// normalized out
	elapsed := regexp.MustCompile(`"elapsedMicros":\d+`)
	n1 := elapsed.ReplaceAllString(warm1Body, `"elapsedMicros":X`)
	n2 := elapsed.ReplaceAllString(warm2Body, `"elapsedMicros":X`)
	if n1 != n2 {
		t.Fatalf("repeat bodies diverge:\n%s\n%s", n1, n2)
	}
	if warm2.ElapsedUS < 0 {
		t.Fatalf("stamped elapsed is negative: %d", warm2.ElapsedUS)
	}

	// a renamed isomorphic spec shares the fingerprint but not the
	// digest: it must not be served the cached body
	isoBody, iso := post(renamedSpec)
	if iso.Fingerprint != warm1.Fingerprint || iso.OrderDigest == warm1.OrderDigest {
		t.Fatalf("isomorphic response: %+v", iso)
	}
	if strings.Contains(isoBody, `"fS"`) {
		t.Fatalf("isomorphic body leaks the original naming:\n%s", isoBody)
	}
	if got := svc.Metrics().MemoHits.Load(); got != 2 {
		t.Fatalf("memo_hits = %d, want 2 (both identical repeats, not the renamed one)", got)
	}
}

// TestPprofMux: the diagnostics mux serves the pprof index and the
// profile inventory, and the daemon mux does not.
func TestPprofMux(t *testing.T) {
	diag := httptest.NewServer(pprofMux())
	defer diag.Close()
	resp, err := http.Get(diag.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(raw), "goroutine") {
		t.Fatalf("pprof index: status=%d body=%.120s", resp.StatusCode, raw)
	}

	svc := service.New(service.Options{})
	app := httptest.NewServer(newDaemon(svc, time.Second, 1<<20, 0).Mux())
	defer app.Close()
	leak, err := http.Get(app.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	leak.Body.Close()
	if leak.StatusCode != http.StatusNotFound {
		t.Fatalf("service mux exposes pprof: status=%d", leak.StatusCode)
	}
}
