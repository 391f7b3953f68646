// Command rtserved is the scheduling daemon: it serves the
// internal/served HTTP layer over the internal/service scheduling
// pipeline, turning the paper's offline synthesis into an online
// service with a canonical schedule cache, an optional durable
// schedule store, and optional fingerprint-sharded cluster serving.
//
// Usage:
//
//	rtserved [-addr :8437] [-cache 256] [-shards 8] [-memo 8]
//	         [-workers N] [-prune] [-analysis-tier] [-maxlen L]
//	         [-maxcand C] [-timeout 30s]
//	         [-search-concurrency N] [-queue-wait 500ms]
//	         [-store-dir DIR] [-queue-dir DIR] [-queue-workers N]
//	         [-max-body BYTES] [-resp-cache 1024] [-pprof PORT]
//	         [-node-id ID] [-peers ID=URL,ID=URL] [-sync-interval 10s]
//
// Endpoints:
//
//	POST /schedule            body: a specification (internal/spec
//	                          syntax); response: JSON verdict +
//	                          schedule — or, with the async queue
//	                          enabled, 202 + a job handle when the
//	                          request would otherwise shed (?async=1
//	                          skips the synchronous attempt entirely)
//	GET  /job/<id>            JSON job status; ?wait=10s long-polls
//	GET  /metrics             plain-text service counters
//	GET  /healthz             liveness probe
//
// Cluster replication endpoints (cluster mode with a store):
//
//	GET  /cluster/digests/<p>  Merkle digests of prefix p's children
//	                           (the empty prefix is the top level)
//	GET  /cluster/leaf/<p>     one leaf's fingerprint set
//	POST /cluster/fetch        body: JSON fingerprint array; response:
//	                           those feasible records as a sealed
//	                           segment
//
// Identical workloads — up to element renaming and constraint
// reordering — share one cache entry, so repeated POSTs of isomorphic
// specifications cost a fingerprint and a lookup instead of an
// NP-hard search. Byte-identical repeat workloads go further: the
// daemon keys a front cache (-resp-cache bodies) by SHA-256 of the
// request body and, while the cache entry the earlier answer came from
// is still resident, serves the stored JSON response bytes without
// parsing the spec (only the elapsedMicros field is freshly stamped).
// Requests with a query string, and requests a cluster node would
// forward, always take the full path.
//
// Cold workloads compete for a bounded number of exact-search
// admission slots (-search-concurrency, default GOMAXPROCS). A
// request that cannot get a slot within -queue-wait is answered 429
// Too Many Requests with a Retry-After header, so an overload burst
// sheds cold traffic instead of starving cache hits.
//
// With -queue-dir, sheds become eventual answers instead of losses:
// the request is journaled as a durable async job (202 Accepted + a
// job id keyed by canonical fingerprint, so a thundering herd of
// isomorphic specs costs one search), -queue-workers background
// workers drain jobs in submission order through the same pipeline,
// decided outcomes land in the store, and clients poll or long-poll
// GET /job/<id> until the verdict is in — then re-POST the spec to
// collect the schedule from the warmed store. The journal's compaction
// forgets finished jobs; /job/<id> then answers from the in-memory
// cache while the class is resident, and 404 after. Graceful shutdown checkpoints in-flight jobs back
// to pending (they resume on the next start with the same -queue-dir).
//
// With -store-dir, decided outcomes additionally persist across
// restarts: a warm-started daemon serves previously solved classes
// straight from disk (source "store") without re-running any search,
// and flushes the store on graceful shutdown.
//
// With -node-id and -peers, the daemon joins a fingerprint-sharded
// cluster: requests hash to an owning node by canonical fingerprint
// (consistent hashing), non-owners proxy to the owner (one hop max)
// and fall back to a local solve when the owner is down, and — when a
// store is attached — an anti-entropy loop walks each peer's Merkle
// tree every -sync-interval and pulls the records that differ, so any
// node's feasible verdict warms the whole fleet. Replication is
// trustless, so only what a receiver can check replicates: a feasible
// record, whose schedule is CRC-checked, re-validated, and re-verified
// against the requesting model before it is ever served. A NO has no
// short certificate, so it stays on the node that decided it (a
// non-owner that misses decides the class itself), and the memo tier
// stays local too. A corrupt or malicious segment costs a miss, never
// a wrong verdict.
//
// -pprof PORT exposes net/http/pprof on 127.0.0.1:PORT (never a
// public interface) with mutex and block profiling enabled, for
// inspecting lock contention in the sharded serving path.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"rtm/internal/cluster"
	"rtm/internal/exact"
	"rtm/internal/queue"
	"rtm/internal/served"
	"rtm/internal/service"
	"rtm/internal/store"
)

func main() {
	addr := flag.String("addr", ":8437", "listen address")
	cacheSize := flag.Int("cache", 256, "schedule cache capacity (isomorphism classes)")
	cacheShards := flag.Int("shards", 8, "schedule cache shard count (rounded up to a power of two)")
	memo := flag.Int("memo", 8, "verified-hit memo slots per cache entry (-1 disables)")
	workers := flag.Int("workers", -1, "exact-search workers per request (-1 = all CPUs)")
	prune := flag.Bool("prune", true, "enable the exact-search pruners (symmetry, memo, bounds); -prune=false restores the bit-for-bit seed search")
	analysisTier := flag.Bool("analysis-tier", true, "enable the analytic admission tier (O(model) YES/NO before heuristic/exact); -analysis-tier=false measures what it saves")
	maxLen := flag.Int("maxlen", 0, "exact-search schedule length bound (0 = hyperperiod, capped)")
	maxCand := flag.Int("maxcand", 0, "exact-search candidate budget per request (0 = unlimited)")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request scheduling timeout")
	searchConc := flag.Int("search-concurrency", 0, "concurrent exact searches (0 = GOMAXPROCS, -1 = unlimited)")
	queueWait := flag.Duration("queue-wait", 0, "max wait for a search slot before 429 (0 = 500ms default, -1ns = fail fast)")
	storeDir := flag.String("store-dir", "", "durable schedule store directory (empty = in-memory only)")
	queueDir := flag.String("queue-dir", "", "durable async solve queue directory (empty = sheds stay 429)")
	queueWorkers := flag.Int("queue-workers", 2, "async solve queue worker pool size")
	maxBody := flag.Int64("max-body", 1<<20, "maximum /schedule request body in bytes (413 beyond)")
	respCacheSize := flag.Int("resp-cache", 1024, "front cache capacity: response bodies kept for byte-identical repeat requests, served before parsing (0 disables)")
	pprofPort := flag.Int("pprof", 0, "serve net/http/pprof on 127.0.0.1:PORT (0 disables)")
	nodeID := flag.String("node-id", "", "this node's cluster member ID (required with -peers)")
	peersFlag := flag.String("peers", "", "cluster peers as id=http://host:port, comma separated")
	syncInterval := flag.Duration("sync-interval", 10*time.Second, "anti-entropy store sync period (0 disables; needs -store-dir and -peers)")
	flag.Parse()

	var st *store.Store
	if *storeDir != "" {
		var err error
		st, err = store.Open(*storeDir, store.Options{})
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("rtserved: schedule store %s warm with %d records (%d bytes, %d corrupt skipped)",
			*storeDir, st.Len(), st.Bytes(), st.CorruptSkipped())
	}

	var q *queue.Queue
	if *queueDir != "" {
		var err error
		q, err = queue.Open(*queueDir, queue.Options{Workers: *queueWorkers})
		if err != nil {
			log.Fatal(err)
		}
		qs := q.Stats()
		log.Printf("rtserved: solve queue %s open: %d pending (%d resumed mid-solve), %d corrupt-tail truncations",
			*queueDir, qs.Depth, qs.Resumed, qs.CorruptTail)
	}

	// exact.Options rejects negative Workers (no silent clamping), so
	// the "-1 = all CPUs" convenience is resolved here
	if *workers < 0 {
		*workers = runtime.GOMAXPROCS(0)
	}
	svc := service.New(service.Options{
		CacheSize:   *cacheSize,
		CacheShards: *cacheShards,
		ResultMemo:  *memo,
		Exact: exact.Options{
			MaxLen: *maxLen, MaxCandidates: *maxCand, Workers: *workers,
			DisableSymmetry: !*prune, DisableMemo: !*prune, DisableBounds: !*prune,
		},
		SearchConcurrency: *searchConc,
		SearchQueueWait:   *queueWait,
		DisableAnalysis:   !*analysisTier,
		Store:             st,
		Queue:             q,
	})

	cl, err := clusterConfig(*nodeID, *peersFlag, st)
	if err != nil {
		log.Fatal(err)
	}
	d := served.New(served.Config{
		Service:   svc,
		Timeout:   *timeout,
		MaxBody:   *maxBody,
		RespCache: *respCacheSize,
		Cluster:   cl,
	})
	srv := &http.Server{
		Addr:    *addr,
		Handler: d.Mux(),
		// Hardened against slow or stuck clients: a peer that trickles
		// headers, never finishes its body, or never reads its
		// response cannot pin a connection. The write timeout leaves
		// the scheduling timeout room plus slack for the response.
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      *timeout + 15*time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	if *pprofPort > 0 {
		served.StartPprof(*pprofPort)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if cl != nil && st != nil && *syncInterval > 0 && len(cl.Peers) > 0 {
		peers := make([]*cluster.Client, 0, len(cl.Peers))
		for _, p := range cl.Peers {
			peers = append(peers, p)
		}
		m := svc.Metrics()
		sy := &cluster.Syncer{
			Store: st, Peers: peers, Interval: *syncInterval,
			OnPull: func(records int64) {
				m.SyncPulls.Add(1)
				m.SyncRecords.Add(records)
			},
			OnRound: func(rs cluster.RoundStats) {
				m.SyncRounds.Add(1)
				m.SyncBytesRx.Add(rs.BytesRx)
				m.SyncPeerFailures.Add(int64(rs.Failures))
				m.SyncLastUnix.Store(time.Now().Unix())
			},
			Logf: log.Printf,
		}
		go sy.Run(ctx)
		log.Printf("rtserved: anti-entropy sync with %d peers every %s", len(peers), *syncInterval)
	}

	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(shutdownCtx)
	}()

	if cl != nil {
		log.Printf("rtserved: cluster node %q in a %d-node ring", cl.NodeID, len(cl.Ring.Nodes()))
	}
	log.Printf("rtserved listening on %s (cache=%d shards=%d workers=%d store=%q)",
		*addr, *cacheSize, svc.CacheShards(), *workers, *storeDir)
	if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	<-shutdownDone
	if q != nil {
		// graceful shutdown: stop the workers — in-flight jobs
		// checkpoint back to pending (no terminal record) and resume on
		// the next start with the same -queue-dir
		qs := q.Stats()
		if err := q.Close(); err != nil {
			log.Printf("rtserved: closing solve queue: %v", err)
		} else {
			log.Printf("rtserved: solve queue checkpointed (%d pending, %d running reverted, %d completed this life)",
				qs.Depth, qs.Running, qs.Completed)
		}
	}
	if st != nil {
		// graceful shutdown: flush the store so every decided outcome
		// survives into the next start
		if err := st.Close(); err != nil {
			log.Printf("rtserved: closing schedule store: %v", err)
		} else {
			log.Printf("rtserved: schedule store flushed (%d records)", st.Len())
		}
	}
}

// clusterConfig parses -node-id/-peers into a served.Cluster. The
// ring spans this node plus every peer; peer IDs must be distinct
// from each other and from the local ID.
func clusterConfig(nodeID, peersFlag string, st *store.Store) (*served.Cluster, error) {
	if peersFlag == "" {
		if nodeID != "" {
			// a one-node "cluster" is legal — it serves everything
			// locally and gives /cluster endpoints to future peers
			ring, err := cluster.NewRing([]string{nodeID}, 0)
			if err != nil {
				return nil, err
			}
			return &served.Cluster{NodeID: nodeID, Ring: ring, Peers: map[string]*cluster.Client{}, Store: st}, nil
		}
		return nil, nil
	}
	if nodeID == "" {
		return nil, fmt.Errorf("rtserved: -peers requires -node-id")
	}
	peers := map[string]*cluster.Client{}
	nodes := []string{nodeID}
	for _, part := range strings.Split(peersFlag, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, url, ok := strings.Cut(part, "=")
		if !ok || id == "" || url == "" {
			return nil, fmt.Errorf("rtserved: bad -peers entry %q (want id=http://host:port)", part)
		}
		if id == nodeID {
			return nil, fmt.Errorf("rtserved: peer %q shadows -node-id", id)
		}
		if _, dup := peers[id]; dup {
			return nil, fmt.Errorf("rtserved: duplicate peer ID %q", id)
		}
		peers[id] = cluster.NewClient(id, url, 10*time.Second)
		nodes = append(nodes, id)
	}
	ring, err := cluster.NewRing(nodes, 0)
	if err != nil {
		return nil, err
	}
	return &served.Cluster{NodeID: nodeID, Ring: ring, Peers: peers, Store: st}, nil
}
