package served

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rtm/internal/service"
	"rtm/internal/store"
)

const exampleSpec = `system ctl
element fS weight 1
element fK weight 1
element fX weight 1
path fS -> fK

periodic trk period 12 deadline 12 { fS -> fK }
sporadic upd separation 9 deadline 8 { fX }
`

// renamedSpec is exampleSpec under a different element naming and
// constraint order — the same isomorphism class.
const renamedSpec = `system ctl2
element b weight 1
element a weight 1
element c weight 1
path a -> b

sporadic one separation 9 deadline 8 { c }
periodic two period 12 deadline 12 { a -> b }
`

func newTestServer(t *testing.T) (*httptest.Server, *service.Service) {
	return newTestServerOpts(t, service.Options{}, 1<<20)
}

func newTestServerOpts(t *testing.T, opt service.Options, maxBody int64) (*httptest.Server, *service.Service) {
	t.Helper()
	svc := service.New(opt)
	srv := httptest.NewServer(newDaemon(svc, 10*time.Second, maxBody, 1024))
	t.Cleanup(srv.Close)
	return srv, svc
}

func postSpec(t *testing.T, url, body string) (*http.Response, scheduleResponse) {
	t.Helper()
	resp, err := http.Post(url+"/schedule", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out scheduleResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp, out
}

func TestServedScheduleEndpoint(t *testing.T) {
	srv, _ := newTestServer(t)

	resp, cold := postSpec(t, srv.URL, exampleSpec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if !cold.Decided || !cold.Feasible || cold.CacheHit {
		t.Fatalf("cold response: %+v", cold)
	}
	if cold.Cycle == 0 || len(cold.Schedule) != cold.Cycle {
		t.Fatalf("schedule missing: %+v", cold)
	}
	for _, c := range cold.Constraints {
		if !c.OK {
			t.Fatalf("constraint %s not met in response", c.Name)
		}
	}

	_, warm := postSpec(t, srv.URL, exampleSpec)
	if !warm.CacheHit || warm.Source != "cache" {
		t.Fatalf("warm response missed the cache: %+v", warm)
	}

	// an isomorphic spec under different names must hit the same entry
	// and come back scheduled in its own names
	_, iso := postSpec(t, srv.URL, renamedSpec)
	if !iso.CacheHit {
		t.Fatalf("isomorphic spec missed the cache: %+v", iso)
	}
	if iso.Fingerprint != cold.Fingerprint {
		t.Fatalf("fingerprints differ: %s vs %s", iso.Fingerprint, cold.Fingerprint)
	}
	for _, slot := range iso.Schedule {
		if strings.HasPrefix(slot, "f") {
			t.Fatalf("translated schedule leaks foreign element %q", slot)
		}
	}
}

func TestServedBadRequests(t *testing.T) {
	srv, _ := newTestServer(t)

	resp, _ := postSpec(t, srv.URL, "element dangling syntax")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed spec: status = %d", resp.StatusCode)
	}

	get, err := http.Get(srv.URL + "/schedule")
	if err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if get.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /schedule: status = %d", get.StatusCode)
	}
}

func TestServedMetricsAndHealth(t *testing.T) {
	srv, svc := newTestServer(t)
	if _, body := postSpec(t, srv.URL, exampleSpec); !body.Feasible {
		t.Fatal("seed request infeasible")
	}

	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{"rtm_requests 1", "rtm_cache_misses 1", "rtm_cache_len 1"} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics missing %q:\n%s", want, text)
		}
	}
	if svc.Metrics().Requests.Load() != 1 {
		t.Fatal("service counter drifted from endpoint output")
	}

	h, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	h.Body.Close()
	if h.StatusCode != http.StatusOK {
		t.Fatalf("healthz: status = %d", h.StatusCode)
	}
}

func TestServedRequestBodyCap(t *testing.T) {
	srv, _ := newTestServerOpts(t, service.Options{}, 64)

	resp, _ := postSpec(t, srv.URL, strings.Repeat("element x weight 1\n", 100))
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status = %d, want 413", resp.StatusCode)
	}

	// a spec under the cap still parses and schedules
	small := "element a weight 1\nperiodic p period 4 deadline 4 { a }\n"
	if int64(len(small)) > 64 {
		t.Fatalf("test spec is %d bytes, does not fit the cap", len(small))
	}
	resp, body := postSpec(t, srv.URL, small)
	if resp.StatusCode != http.StatusOK || !body.Feasible {
		t.Fatalf("small spec: status=%d body=%+v", resp.StatusCode, body)
	}
}

// auxSpec is a second, non-isomorphic workload for the restart test.
const auxSpec = `system aux
element g1 weight 1
element g2 weight 1
path g1 -> g2

periodic flow period 8 deadline 8 { g1 -> g2 }
`

// metricValue digs one rtm_<name> counter out of /metrics.
func metricValue(t *testing.T, url, name string) int64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		var v int64
		if n, _ := fmt.Sscanf(line, "rtm_"+name+" %d", &v); n == 1 {
			return v
		}
	}
	t.Fatalf("metric %s missing:\n%s", name, raw)
	return 0
}

// TestServedStoreWarmRestart is the acceptance test: a restarted
// daemon with -store-dir serves a previously solved spec from the
// store without invoking heuristic or exact search, and a deliberately
// corrupted record is skipped — counted, never served.
func TestServedStoreWarmRestart(t *testing.T) {
	dir := t.TempDir()

	// first life: solve two distinct workloads through the daemon
	st1, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv1, _ := newTestServerOpts(t, service.Options{Store: st1}, 1<<20)
	if _, first := postSpec(t, srv1.URL, exampleSpec); !first.Feasible || first.Source == "store" {
		t.Fatalf("first solve: %+v", first)
	}
	firstEnd := st1.Bytes() // frame boundary between the two records
	if _, second := postSpec(t, srv1.URL, auxSpec); !second.Feasible {
		t.Fatalf("second solve: %+v", second)
	}
	srv1.Close()
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	// the crash/corruption: flip a byte inside the second record's frame
	path := filepath.Join(dir, "store.log")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[firstEnd+2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	// second life: warm start over the damaged store
	st2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Len() != 1 || st2.CorruptSkipped() != 1 {
		t.Fatalf("recovered store: len=%d corrupt=%d, want 1/1", st2.Len(), st2.CorruptSkipped())
	}
	srv2, svc2 := newTestServerOpts(t, service.Options{Store: st2}, 1<<20)

	// the intact record serves from the store — no search stage runs
	_, warm := postSpec(t, srv2.URL, exampleSpec)
	if warm.Source != "store" || !warm.Feasible {
		t.Fatalf("warm restart response: %+v", warm)
	}
	for _, c := range warm.Constraints {
		if !c.OK {
			t.Fatalf("store-served schedule violates %s", c.Name)
		}
	}
	if got := metricValue(t, srv2.URL, "searches"); got != 0 {
		t.Fatalf("warm restart ran %d searches, want 0", got)
	}
	if got := metricValue(t, srv2.URL, "store_hits"); got != 1 {
		t.Fatalf("store_hits = %d, want 1", got)
	}
	if got := metricValue(t, srv2.URL, "store_corrupt_skipped"); got != 1 {
		t.Fatalf("store_corrupt_skipped = %d, want 1", got)
	}

	// the corrupted record was skipped: its class recomputes (one
	// fresh admission pipeline), is served correctly, and is written
	// through again
	_, redo := postSpec(t, srv2.URL, auxSpec)
	if redo.Source == "store" || !redo.Feasible {
		t.Fatalf("corrupted class response: %+v", redo)
	}
	if got := metricValue(t, srv2.URL, "cache_misses"); got != 1 {
		t.Fatalf("corrupted class reran %d pipelines, want 1", got)
	}
	if got := metricValue(t, srv2.URL, "store_len"); got != 2 {
		t.Fatalf("store_len after heal = %d, want 2", got)
	}
	if svc2.Metrics().StoreHits.Load() != 1 {
		t.Fatal("corrupted record counted as a store hit")
	}
}
