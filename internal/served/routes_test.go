package served

import (
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rtm/internal/cluster"
	"rtm/internal/exact"
	"rtm/internal/service"
	"rtm/internal/store"
)

// TestRoutes pins the daemon's answer on every route, for a
// single-node daemon and for a cluster member with a store (the only
// kind that serves the /cluster/ routes): the status, the content
// type and, where it does not vary with timing, the body.
func TestRoutes(t *testing.T) {
	single := New(Config{Service: service.New(service.Options{}), Timeout: 10 * time.Second, MaxBody: 1 << 20}).Mux()
	st, err := store.Open(t.TempDir(), store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	ring, err := cluster.NewRing([]string{"n1"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	member := New(Config{
		Service: service.New(service.Options{Store: st}), Timeout: 10 * time.Second, MaxBody: 1 << 20,
		Cluster: &Cluster{NodeID: "n1", Ring: ring, Peers: map[string]*cluster.Client{}, Store: st},
	}).Mux()

	const (
		text     = "text/plain; charset=utf-8"
		notFound = "404 page not found\n"
	)
	routes := []struct {
		member       bool
		method, path string
		code         int
		ctype, body  string // body "*" is not compared
	}{
		{false, "POST", "/schedule", 200, "application/json", "*"},
		{false, "GET", "/schedule", 405, text, "POST a specification to /schedule\n"},
		{false, "POST", "/schedule/", 404, text, notFound},
		{false, "POST", "/schedule/x", 404, text, notFound},
		{false, "GET", "/job/abc", 404, text, "async solve queue not enabled (-queue-dir)\n"},
		{false, "GET", "/job/", 400, text, "GET /job/<id>\n"},
		{false, "GET", "/job/a/b", 400, text, "GET /job/<id>\n"},
		{false, "POST", "/job/abc", 405, text, "GET /job/<id>\n"},
		{false, "GET", "/job", 404, text, notFound},
		{false, "GET", "/metrics", 200, text, "*"},
		{false, "GET", "/metrics/", 404, text, notFound},
		{false, "GET", "/healthz", 200, text, "ok\n"},
		{false, "POST", "/healthz", 200, text, "ok\n"},
		{false, "GET", "/", 404, text, notFound},
		{false, "GET", "/nope", 404, text, notFound},
		{false, "GET", "/metrics/../healthz", 404, text, notFound},
		{false, "GET", "/cluster/digests/", 404, text, notFound},
		{false, "POST", "/cluster/fetch", 404, text, notFound},
		{true, "POST", "/schedule", 200, "application/json", "*"},
		{true, "GET", "/healthz", 200, text, "ok\n"},
		{true, "GET", "/cluster/digests/", 200, "application/json", "*"},
		{true, "GET", "/cluster/digests/a", 200, "application/json", "*"},
		{true, "GET", "/cluster/digests/?tier=x", 200, "application/json", "*"},
		{true, "POST", "/cluster/digests/", 405, text, "GET /cluster/digests/<prefix>\n"},
		{true, "GET", "/cluster/digests", 404, text, notFound},
		{true, "GET", "/cluster/leaf/abc", 200, "application/json", "*"},
		{true, "GET", "/cluster/leaf/", 400, text, "*"},
		{true, "GET", "/cluster/memoleaf/abc", 404, text, notFound},
		{true, "POST", "/cluster/fetch", 200, "*", "*"},
		{true, "GET", "/cluster/fetch", 405, text, "POST /cluster/fetch\n"},
		{true, "GET", "/cluster/fetch/", 404, text, notFound},
		{true, "GET", "/cluster", 404, text, notFound},
	}
	for _, rt := range routes {
		h, kind := single, "single"
		if rt.member {
			h, kind = member, "member"
		}
		body := ""
		switch {
		case strings.HasPrefix(rt.path, "/schedule"):
			body = exampleSpec
		case rt.path == "/cluster/fetch":
			body = "[]"
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(rt.method, rt.path, strings.NewReader(body)))
		label := fmt.Sprintf("%s %s %s", kind, rt.method, rt.path)
		if rec.Code != rt.code {
			t.Errorf("%s: status %d, want %d (%q)", label, rec.Code, rt.code, rec.Body.String())
			continue
		}
		if ct := rec.Header().Get("Content-Type"); rt.ctype != "*" && ct != rt.ctype {
			t.Errorf("%s: Content-Type %q, want %q", label, ct, rt.ctype)
		}
		if rt.body != "*" && rec.Body.String() != rt.body {
			t.Errorf("%s: body %q, want %q", label, rec.Body.String(), rt.body)
		}
	}
}

// BenchmarkDaemonConstruct prices what the serving benchmark's
// cold_corpus workload times as its set-up: a fresh service under the
// serving budget and the daemon around it, up to its HTTP handler.
func BenchmarkDaemonConstruct(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		svc := service.New(service.Options{
			CacheSize: 256, CacheShards: 8, ResultMemo: 8, MaxLenCap: 24,
			Exact: exact.Options{MaxCandidates: 20_000},
		})
		h := New(Config{Service: svc, Timeout: 120 * time.Second, MaxBody: 1 << 20, RespCache: 1024}).Mux()
		if h == nil {
			b.Fatal("no handler")
		}
	}
}
