// Package served is the HTTP serving layer of the scheduling service
// — the daemon behind cmd/rtserved, factored into a library so the
// serving benchmark (perfbench) can drive the handler in-process and
// tests can run whole fleets of nodes without subprocesses.
//
// A Daemon wraps one service.Service (pipeline + cache + optional
// store and queue) with the HTTP surface: POST /schedule, GET
// /job/<id>, /metrics, /healthz, a front cache that answers
// byte-identical repeats of verified hits before the spec is parsed
// (while the LRU entry they came from stays resident; see
// respcache.go), and — when a Cluster config is attached — the
// fingerprint-sharded peer protocol: non-owner nodes proxy /schedule
// and /job requests to the shard owner (one hop max, with graceful
// fallback to a local solve when the owner is unreachable), and the
// /cluster/digests/<prefix>, /cluster/leaf/<prefix> and /cluster/fetch
// endpoints serve the store's Merkle tree and feasible records for
// anti-entropy replication.
package served

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strings"
	"time"

	"rtm/internal/cluster"
	"rtm/internal/queue"
	"rtm/internal/service"
	"rtm/internal/spec"
	"rtm/internal/store"
)

// Cluster is the daemon's view of fleet membership. Nil means
// single-node serving (the pre-cluster behavior, byte for byte).
type Cluster struct {
	// NodeID is this node's ring member ID.
	NodeID string
	// Ring maps fingerprints to owning node IDs; it must contain
	// NodeID.
	Ring *cluster.Ring
	// Peers maps peer node IDs (never NodeID) to their clients.
	Peers map[string]*cluster.Client
	// Store, when non-nil, is served to peers at the /cluster/digests,
	// /cluster/leaf and /cluster/fetch endpoints for anti-entropy
	// replication.
	Store *store.Store
}

// Config assembles a Daemon.
type Config struct {
	// Service is the scheduling pipeline the daemon serves.
	Service *service.Service
	// Timeout bounds each scheduling request (0 = no per-request
	// timeout beyond the client's).
	Timeout time.Duration
	// MaxBody bounds the /schedule request body in bytes.
	MaxBody int64
	// RespCache is the front cache capacity: how many response
	// bodies of verified hits are kept for byte-identical repeat
	// requests (0 disables).
	RespCache int
	// Cluster, when non-nil, enables fingerprint-sharded peer
	// forwarding and Merkle replication.
	Cluster *Cluster
}

// Daemon bundles the serving state behind the HTTP handlers.
type Daemon struct {
	svc     *service.Service
	timeout time.Duration
	maxBody int64
	front   *frontCache
	cl      *Cluster
}

// New builds a Daemon from cfg.
func New(cfg Config) *Daemon {
	return &Daemon{
		svc:     cfg.Service,
		timeout: cfg.Timeout,
		maxBody: cfg.MaxBody,
		front:   newFrontCache(cfg.RespCache),
		cl:      cfg.Cluster,
	}
}

// newDaemon is the single-node constructor tests use.
func newDaemon(svc *service.Service, timeout time.Duration, maxBody int64, respCacheSize int) *Daemon {
	return New(Config{Service: svc, Timeout: timeout, MaxBody: maxBody, RespCache: respCacheSize})
}

// Mux returns the daemon's HTTP handler: the daemon itself.
func (d *Daemon) Mux() http.Handler { return d }

// ServeHTTP routes a request on its path alone. An exact path names
// each endpoint; /job/ and the /cluster/ reads take the rest of the
// path as their argument. Anything else is 404: no path is cleaned or
// redirected. The /cluster/ routes exist only on a fleet member with
// a store.
func (d *Daemon) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	path := r.URL.Path
	switch {
	case path == "/schedule":
		d.handleSchedule(w, r)
	case strings.HasPrefix(path, "/job/"):
		d.handleJob(w, r)
	case path == "/metrics":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, d.svc.MetricsText())
	case path == "/healthz":
		io.WriteString(w, "ok\n")
	case d.cl == nil || d.cl.Store == nil:
		http.NotFound(w, r)
	case strings.HasPrefix(path, "/cluster/digests/"):
		d.handleDigests(w, r)
	case strings.HasPrefix(path, "/cluster/leaf/"):
		d.handleLeaf(w, r)
	case path == "/cluster/fetch":
		d.handleFetch(w, r)
	default:
		http.NotFound(w, r)
	}
}

// scheduleResponse is the JSON verdict for one request. ElapsedUS
// must stay the final field: the front cache stores the serialized
// bytes up to the elapsedMicros value and stamps each request's own
// elapsed time into the tail.
type scheduleResponse struct {
	System      string           `json:"system,omitempty"`
	Fingerprint string           `json:"fingerprint"`
	OrderDigest string           `json:"orderDigest,omitempty"`
	Decided     bool             `json:"decided"`
	Feasible    bool             `json:"feasible"`
	Source      string           `json:"source"`
	CacheHit    bool             `json:"cacheHit"`
	Shared      bool             `json:"shared,omitempty"`
	Cycle       int              `json:"cycle,omitempty"`
	Schedule    []string         `json:"schedule,omitempty"`
	Constraints []constraintJSON `json:"constraints,omitempty"`
	ElapsedUS   int64            `json:"elapsedMicros"`
}

type constraintJSON struct {
	Name     string `json:"name"`
	Latency  int    `json:"latency"`
	Deadline int    `json:"deadline"`
	OK       bool   `json:"ok"`
}

// jobResponse is the JSON body for 202 Accepted answers and for
// GET /job/<id>. A done job carries only the verdict — the schedule
// itself is collected by re-POSTing the spec, which the worker's
// write-through has made a store hit.
type jobResponse struct {
	Job         string `json:"job"` // canonical fingerprint = job id
	State       string `json:"state"`
	Decided     bool   `json:"decided,omitempty"`
	Feasible    bool   `json:"feasible,omitempty"`
	Source      string `json:"source,omitempty"`
	Error       string `json:"error,omitempty"`
	SubmitUnix  int64  `json:"submitUnix,omitempty"`
	Resubmitted bool   `json:"resubmitted,omitempty"`
	Poll        string `json:"poll,omitempty"` // where to poll for the verdict
}

// writeJob renders a queue job status.
func writeJob(w http.ResponseWriter, js *queue.Status, code int) {
	resp := jobResponse{
		Job:         js.ID,
		State:       js.State.String(),
		Decided:     js.Verdict.Decided,
		Feasible:    js.Verdict.Feasible,
		Source:      js.Verdict.Source,
		Error:       js.Err,
		SubmitUnix:  js.SubmitUnix,
		Resubmitted: js.Resubmitted,
	}
	if !js.State.Terminal() {
		resp.Poll = "/job/" + js.ID
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(resp)
}

// maxJobWait caps GET /job/<id>?wait= long-polls so a client cannot
// pin a connection past the server's write timeout.
const maxJobWait = 30 * time.Second

// handleJob serves job status: GET /job/<id> returns the current
// state; ?wait=10s long-polls until the job is terminal or the wait
// expires (the poll-vs-push middle ground that costs one goroutine,
// not one connection per retry loop). A job unknown locally is looked
// up at its shard owner in cluster mode — the job ID is the canonical
// fingerprint, so routing needs no extra state — and otherwise
// answered from this node's LRU, since a finished job is forgotten at
// the queue's next compaction while its verdict stays resident.
func (d *Daemon) handleJob(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET /job/<id>", http.StatusMethodNotAllowed)
		return
	}
	id := strings.TrimPrefix(r.URL.Path, "/job/")
	if id == "" || strings.Contains(id, "/") {
		http.Error(w, "GET /job/<id>", http.StatusBadRequest)
		return
	}
	var wait time.Duration
	if waitStr := r.URL.Query().Get("wait"); waitStr != "" {
		var err error
		if wait, err = time.ParseDuration(waitStr); err != nil || wait < 0 {
			http.Error(w, "bad wait duration", http.StatusBadRequest)
			return
		}
		wait = min(wait, maxJobWait)
	}
	q := d.svc.Queue()
	var js *queue.Status
	if q != nil {
		// one lookup that holds the job for the whole poll: Wait
		// returns its final status, or the current one when the poll
		// budget (zero without ?wait=) expires, even if a compaction
		// forgets the job meanwhile
		ctx, cancel := context.WithTimeout(r.Context(), wait)
		defer cancel()
		js, _ = q.Wait(ctx, id)
	}
	if js == nil && d.forwardJob(w, r, id) {
		return
	}
	if q == nil {
		http.Error(w, "async solve queue not enabled (-queue-dir)", http.StatusNotFound)
		return
	}
	if js == nil {
		v, ok := d.svc.Resident(id)
		if !ok {
			http.Error(w, "no such job", http.StatusNotFound)
			return
		}
		js = &queue.Status{ID: id, State: queue.Done, Verdict: v}
	}
	writeJob(w, js, http.StatusOK)
}

// scheduleStatus maps a service error to its HTTP status and whether
// the client should be told to retry (429 carries Retry-After).
func scheduleStatus(err error) (code int, retryable bool) {
	switch {
	case errors.Is(err, service.ErrOverloaded):
		return http.StatusTooManyRequests, true
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout, false
	default:
		return http.StatusBadRequest, false
	}
}

func (d *Daemon) handleSchedule(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST a specification to /schedule", http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, d.maxBody))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, "specification exceeds the request body limit", http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	// front cache: a byte-identical repeat of a verified hit is served
	// its stored body while the LRU entry it came from is resident, and
	// only where the full path would serve it locally. A request with
	// a query string (?async=1) always takes the full path, so the key
	// is the body alone.
	start := time.Now()
	var key [sha256.Size]byte
	front := d.front.enabled() && r.URL.RawQuery == ""
	if front {
		key = sha256.Sum256(body)
		if it := d.front.get(key); it != nil {
			if d.owner(r, it.fp) == nil {
				if elapsed, ok := d.svc.Rehit(it.fp, it.gen, start); ok {
					w.Header().Set("Content-Type", "application/json")
					w.Write(appendElapsed(it.prefix, elapsed.Microseconds()))
					return
				}
			}
			d.front.remove(it)
		}
	}

	sp, err := spec.Parse(string(body))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	// cluster routing: a non-owner proxies the request to the shard
	// owner (never a forward of a forward); on owner failure it falls
	// through to a local solve
	if d.forwardSchedule(w, r, body, sp.Model) {
		return
	}

	ctx := r.Context()
	if d.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d.timeout)
		defer cancel()
	}

	// explicitly-async requests skip the synchronous attempt: the spec
	// is journaled and answered 202 immediately (dedup by fingerprint
	// makes re-posting an already-known class free)
	if r.URL.Query().Get("async") == "1" && d.svc.Queue() != nil {
		js, err := d.svc.Enqueue(sp.Model)
		if err != nil {
			http.Error(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		writeJob(w, js, http.StatusAccepted)
		return
	}

	res, job, err := d.svc.ScheduleOrEnqueue(ctx, sp.Model)
	if err != nil {
		code, retryable := scheduleStatus(err)
		if retryable {
			w.Header().Set("Retry-After", "1")
		}
		msg := err.Error()
		switch code {
		case http.StatusTooManyRequests:
			msg = "scheduler overloaded; retry later"
		case http.StatusGatewayTimeout:
			msg = "scheduling timed out"
		}
		http.Error(w, msg, code)
		return
	}
	if job != nil {
		// the exact stage would have shed this request: it is now a
		// durable async job — 202 + the handle to poll
		writeJob(w, job, http.StatusAccepted)
		return
	}

	resp := scheduleResponse{
		System:      sp.Name,
		Fingerprint: res.Fingerprint,
		OrderDigest: res.OrderDigest,
		Decided:     res.Decided,
		Feasible:    res.Feasible,
		Source:      res.Source,
		CacheHit:    res.CacheHit,
		Shared:      res.Shared,
		// ElapsedUS stays zero here: the zero is the serialization
		// placeholder every response stamps over
	}
	if res.Feasible {
		resp.Cycle = res.Schedule.Len()
		resp.Schedule = append([]string{}, res.Schedule.Slots...)
		for _, c := range res.Report.Constraints {
			resp.Constraints = append(resp.Constraints, constraintJSON{
				Name: c.Name, Latency: c.Latency, Deadline: c.Deadline, OK: c.OK,
			})
		}
	}
	b, err := json.Marshal(resp)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	prefix := b[: len(b)-2 : len(b)-2] // strip the `0}` placeholder tail
	if front && res.CacheHit {
		// only verified LRU hits are stored: while their entry stays
		// resident the full path serves these bytes again
		d.front.put(&frontItem{key: key, fp: res.Fingerprint, gen: res.Generation, prefix: prefix})
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(appendElapsed(prefix, res.Elapsed.Microseconds()))
}
