package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"runtime"
	"strings"
	"time"

	"rtm/internal/core"
	"rtm/internal/exact"
	"rtm/internal/served"
	"rtm/internal/service"
	"rtm/internal/store"
)

// config is the daemon configuration. The benchmark always runs
// benchConfig; tests build variants of it.
type config struct {
	cache, shards, memo, workers  int
	maxCand, maxLenCap, respCache int
	timeout                       time.Duration
}

// benchConfig is rtserved's defaults plus a finite exact budget:
// 20 000 candidates and an automatic length cap of 24, as rtbench
// -corpus runs it, so no cold class searches without end. maxlen-cap
// has no rtserved flag (rtserved always caps at the service default,
// 64). The timeout is raised from rtserved's 30 s default: the
// candidate budget does not bound the nodes searched between
// candidates, and a rare class needs about 30 s to exhaust it (see
// README.md). store_spill's store is opened with NoSync. The rtserved
// settings not listed — search concurrency, queue wait, body limit —
// are its defaults.
var benchConfig = config{
	cache: 256, shards: 8, memo: 8, workers: -1,
	maxCand: 20000, maxLenCap: 24, respCache: 1024,
	timeout: 120 * time.Second,
}

const maxBody = 1 << 20 // rtserved -max-body default

// flags renders the configuration as the equivalent rtserved command
// line.
func (cfg config) flags() string {
	return fmt.Sprintf("rtserved -cache %d -shards %d -memo %d -workers %d -maxcand %d -resp-cache %d -timeout %s (service MaxLenCap %d; store_spill: -store-dir with the store opened NoSync)",
		cfg.cache, cfg.shards, cfg.memo, cfg.workers, cfg.maxCand, cfg.respCache, cfg.timeout, cfg.maxLenCap)
}

// workerCount resolves rtserved's "-1 = all CPUs".
func (cfg config) workerCount() int {
	if cfg.workers < 0 {
		return runtime.GOMAXPROCS(0)
	}
	return cfg.workers
}

// exactOptions is the exact stage's per-request budget for m as the
// service computes it: MaxLen is the hyperperiod capped at maxlen-cap.
func (cfg config) exactOptions(m *core.Model, workers int) exact.Options {
	maxLen := m.Hyperperiod()
	if maxLen > cfg.maxLenCap {
		maxLen = cfg.maxLenCap
	}
	return exact.Options{MaxLen: maxLen, MaxCandidates: cfg.maxCand, Workers: workers}
}

// newService builds the daemon's service exactly as rtserved does
// from the same flags.
func (cfg config) newService(st *store.Store) *service.Service {
	return service.New(service.Options{
		CacheSize:   cfg.cache,
		CacheShards: cfg.shards,
		ResultMemo:  cfg.memo,
		Exact:       exact.Options{MaxCandidates: cfg.maxCand, Workers: cfg.workerCount()},
		MaxLenCap:   cfg.maxLenCap,
		Store:       st,
	})
}

// newDaemon wraps svc in the HTTP daemon (cl nil: single node).
func (cfg config) newDaemon(svc *service.Service, cl *served.Cluster) http.Handler {
	return served.New(served.Config{
		Service:   svc,
		Timeout:   cfg.timeout,
		MaxBody:   maxBody,
		RespCache: cfg.respCache,
		Cluster:   cl,
	}).Mux()
}

var scheduleURL = &url.URL{Path: "/schedule"}

// recorder is a reusable in-process http.ResponseWriter: one per
// client, reset per request, so the harness adds almost no
// allocations of its own to the daemon's.
type recorder struct {
	hdr    http.Header
	reqHdr http.Header // request headers: never written by the daemon
	code   int
	body   bytes.Buffer
	rd     bytes.Reader
	req    http.Request
}

func newRecorder() *recorder { return &recorder{hdr: http.Header{}, reqHdr: http.Header{}} }

func (r *recorder) Header() http.Header { return r.hdr }

func (r *recorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *recorder) Write(p []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.body.Write(p)
}

// post sends one POST /schedule with body to h in-process and
// returns the status and the answer bytes (valid until the next
// post on this recorder).
func (r *recorder) post(h http.Handler, body []byte) (int, []byte) {
	clear(r.hdr)
	r.code = 0
	r.body.Reset()
	r.rd.Reset(body)
	r.req = http.Request{
		Method:        http.MethodPost,
		URL:           scheduleURL,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        r.reqHdr,
		Body:          io.NopCloser(&r.rd),
		ContentLength: int64(len(body)),
		Host:          "bench",
		RequestURI:    "/schedule",
	}
	h.ServeHTTP(r, &r.req)
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.code, r.body.Bytes()
}

// statusError describes a non-200 answer.
func statusError(c *class, code int, body []byte) error {
	return fmt.Errorf("%s: HTTP %d: %s", c.name, code, strings.TrimSpace(string(body)))
}
