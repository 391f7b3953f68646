package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"rtm/internal/cluster"
	"rtm/internal/core"
	"rtm/internal/exact"
	"rtm/internal/served"
	"rtm/internal/service"
	"rtm/internal/spec"
	"rtm/internal/store"
)

// This file implements -cluster: the fingerprint-sharded fleet suite.
// A 3-node in-process cluster (full daemons over httptest listeners,
// stores on temp disk) runs the acceptance scenario end to end:
//
//	phase 1  seed 16 hard classes on their shard owners — exactly one
//	         exact search per class fleet-wide;
//	phase 2  one anti-entropy round per node — manifests converge;
//	phase 3  isomorphic surfaces of every class served by NON-owner
//	         nodes pinned local: all from replicated stores, zero new
//	         searches (acceptance a: warm one node, warm the fleet);
//	phase 4  the busiest owner is killed mid-burst — survivors fall
//	         back to local serving with zero failed requests
//	         (acceptance b: graceful degradation).
//
// Any acceptance violation is a hard suite failure, not a statistic.

// clusterSuiteDoc is the BENCH_cluster.json document.
type clusterSuiteDoc struct {
	Suite      string `json:"suite"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`

	Nodes   int `json:"nodes"`
	Classes int `json:"classes"` // distinct fingerprint classes seeded

	SeedSearches int64 `json:"seed_searches"` // must equal classes
	SeedP50US    int64 `json:"seed_p50_us"`   // cold owner-side decide

	SyncPulls          int64 `json:"sync_pulls"`   // segments pulled fleet-wide
	SyncRecords        int64 `json:"sync_records"` // records imported fleet-wide
	SyncMS             int64 `json:"sync_ms"`      // wall time of the full round
	ManifestsConverged bool  `json:"manifests_converged"`

	WarmServes      int   `json:"warm_serves"`       // non-owner serves of replicated classes
	WarmStoreServes int   `json:"warm_store_serves"` // of those, answered from the store tier
	WarmNewSearches int64 `json:"warm_new_searches"` // must be 0
	WarmP50US       int64 `json:"warm_p50_us"`       // replicated-serve latency

	KilledNode    string `json:"killed_node"`
	KillRequests  int    `json:"kill_requests"`
	KillFailed    int    `json:"kill_failed"` // non-200 responses, must be 0
	KillFallbacks int64  `json:"kill_fallbacks"`

	DurationMS int64 `json:"duration_ms"`
}

// benchNode is one in-process cluster member with its own daemon,
// service, and on-disk store.
type benchNode struct {
	id    string
	srv   *httptest.Server
	svc   *service.Service
	st    *store.Store
	peers map[string]*cluster.Client
}

// newBenchFleet stands up n full rtserved daemons meshed into one
// ring. Analysis and heuristic are disabled so "searches" counts the
// NP-hard work exactly — the quantity replication is supposed to save.
func newBenchFleet(n int) ([]*benchNode, *cluster.Ring, func(), error) {
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("n%d", i+1)
	}
	ring, err := cluster.NewRing(ids, 0)
	if err != nil {
		return nil, nil, nil, err
	}
	var cleanups []func()
	cleanup := func() {
		for i := len(cleanups) - 1; i >= 0; i-- {
			cleanups[i]()
		}
	}
	nodes := make([]*benchNode, n)
	for i, id := range ids {
		dir, err := os.MkdirTemp("", "rtbench-cluster-")
		if err != nil {
			cleanup()
			return nil, nil, nil, err
		}
		cleanups = append(cleanups, func() { os.RemoveAll(dir) })
		st, err := store.Open(dir, store.Options{NoSync: true})
		if err != nil {
			cleanup()
			return nil, nil, nil, err
		}
		cleanups = append(cleanups, func() { st.Close() })
		svc := service.New(service.Options{
			DisableAnalysis:  true,
			DisableHeuristic: true,
			Exact:            exact.Options{MaxCandidates: 2_000_000},
			Store:            st,
		})
		peers := map[string]*cluster.Client{}
		d := served.New(served.Config{
			Service: svc, Timeout: 60 * time.Second, MaxBody: 1 << 20, RespCache: 256,
			Cluster: &served.Cluster{NodeID: id, Ring: ring, Peers: peers, Store: st},
		})
		srv := httptest.NewServer(d.Mux())
		cleanups = append(cleanups, srv.Close)
		nodes[i] = &benchNode{id: id, srv: srv, svc: svc, st: st, peers: peers}
	}
	for _, me := range nodes {
		for _, other := range nodes {
			if other.id != me.id {
				me.peers[other.id] = cluster.NewClient(other.id, other.srv.URL, 5*time.Second)
			}
		}
	}
	return nodes, ring, cleanup, nil
}

// clusterPost POSTs a spec body; forwarded pins the request to the
// receiving node (the daemon's never-forward-a-forward rule).
func clusterPost(url, body string, forwarded bool) (int, string, error) {
	req, err := http.NewRequest(http.MethodPost, url+"/schedule", strings.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	req.Header.Set("Content-Type", "text/plain")
	if forwarded {
		req.Header.Set(cluster.ForwardHeader, "1")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, string(raw), err
}

// fleetMetric sums one service-metric key across nodes.
func fleetMetric(nodes []*benchNode, key string) int64 {
	var total int64
	for _, n := range nodes {
		total += n.svc.Metrics().Snapshot()[key]
	}
	return total
}

// writeClusterJSON runs the 3-node acceptance suite and writes
// BENCH_cluster.json into dir.
func writeClusterJSON(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	nodes, ring, cleanup, err := newBenchFleet(3)
	if err != nil {
		return err
	}
	defer cleanup()
	byID := map[string]*benchNode{}
	for _, n := range nodes {
		byID[n.id] = n
	}

	// the 16 hard classes of the cold-burst corpus, deduplicated
	var classes []*core.Model
	seen := map[string]bool{}
	for _, m := range coldBurstModels() {
		if fp := core.Fingerprint(m); !seen[fp] {
			seen[fp] = true
			classes = append(classes, m)
		}
	}
	start := time.Now()

	// phase 1: seed every class on its shard owner
	var seedLats []time.Duration
	owners := map[string]int{}
	for i, m := range classes {
		fp := core.Fingerprint(m)
		own := ring.Owner(fp)
		owners[own]++
		t0 := time.Now()
		code, body, err := clusterPost(byID[own].srv.URL, spec.Print(fmt.Sprintf("sys%d", i), m), false)
		if err != nil || code != http.StatusOK {
			return fmt.Errorf("seed class %d on %s: code=%d err=%v body=%.200s", i, own, code, err, body)
		}
		seedLats = append(seedLats, time.Since(t0))
	}
	seedSearches := fleetMetric(nodes, "searches")
	if seedSearches != int64(len(classes)) {
		return fmt.Errorf("seed phase ran %d searches for %d classes", seedSearches, len(classes))
	}

	// phase 2: one full anti-entropy round
	syncStart := time.Now()
	var syncPulls, syncRecords int
	for _, n := range nodes {
		var peers []*cluster.Client
		for _, c := range n.peers {
			peers = append(peers, c)
		}
		sy := &cluster.Syncer{Store: n.st, Peers: peers}
		rs := sy.SyncOnce(context.Background())
		syncPulls += rs.Pulls
		syncRecords += rs.Records
	}
	syncWall := time.Since(syncStart)
	converged := true
	ref, _ := nodes[0].st.Digests("", 1, true, true)
	for _, n := range nodes[1:] {
		if top, _ := n.st.Digests("", 1, true, true); !slices.Equal(top, ref) {
			converged = false
		}
	}
	if !converged {
		return fmt.Errorf("manifests did not converge after one sync round")
	}

	// phase 3 (acceptance a): every class served warm by BOTH
	// non-owner nodes, pinned local — zero new searches fleet-wide
	preWarm := fleetMetric(nodes, "searches")
	var warmLats []time.Duration
	warmServes, warmStore := 0, 0
	for i, m := range classes {
		fp := core.Fingerprint(m)
		own := ring.Owner(fp)
		surf := spec.Print(fmt.Sprintf("iso%d", i), renameForLoad(rand.New(rand.NewSource(int64(i))), m))
		for _, n := range nodes {
			if n.id == own {
				continue
			}
			t0 := time.Now()
			code, body, err := clusterPost(n.srv.URL, surf, true)
			if err != nil || code != http.StatusOK {
				return fmt.Errorf("warm serve of class %d on %s: code=%d err=%v", i, n.id, code, err)
			}
			warmLats = append(warmLats, time.Since(t0))
			warmServes++
			if strings.Contains(body, `"source":"store"`) {
				warmStore++
			} else if !strings.Contains(body, `"source":"cache"`) {
				return fmt.Errorf("warm serve of class %d on %s came from neither store nor cache: %.200s", i, n.id, body)
			}
		}
	}
	warmSearches := fleetMetric(nodes, "searches") - preWarm
	if warmSearches != 0 {
		return fmt.Errorf("warm phase ran %d new searches, want 0", warmSearches)
	}

	// phase 4 (acceptance b): kill the busiest owner, then burst that
	// node's classes at the survivors with no routing hints — every
	// request must still get a 200
	victim := nodes[0].id
	for id, c := range owners {
		if c > owners[victim] {
			victim = id
		}
	}
	byID[victim].srv.Close()
	var survivors []*benchNode
	for _, n := range nodes {
		if n.id != victim {
			survivors = append(survivors, n)
		}
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	killRequests, killFailed := 0, 0
	for i, m := range classes {
		if ring.Owner(core.Fingerprint(m)) != victim {
			continue
		}
		wg.Add(1)
		killRequests++
		go func(i int, m *core.Model) {
			defer wg.Done()
			surf := spec.Print(fmt.Sprintf("kill%d", i), renameForLoad(rand.New(rand.NewSource(int64(100+i))), m))
			code, _, err := clusterPost(survivors[i%len(survivors)].srv.URL, surf, false)
			if err != nil || code != http.StatusOK {
				mu.Lock()
				killFailed++
				mu.Unlock()
			}
		}(i, m)
	}
	wg.Wait()
	killFallbacks := fleetMetric(nodes, "fallbacks")
	if killRequests == 0 {
		return fmt.Errorf("victim %s owned no classes — ring distribution broken", victim)
	}
	if killFailed > 0 {
		return fmt.Errorf("%d of %d requests failed after killing %s", killFailed, killRequests, victim)
	}
	if killFallbacks == 0 {
		return fmt.Errorf("no fallbacks recorded after killing %s — the burst never hit the dead owner", victim)
	}

	sort.Slice(seedLats, func(i, j int) bool { return seedLats[i] < seedLats[j] })
	sort.Slice(warmLats, func(i, j int) bool { return warmLats[i] < warmLats[j] })
	doc := clusterSuiteDoc{
		Suite:              "cluster",
		GoMaxProcs:         runtime.GOMAXPROCS(0),
		GoVersion:          runtime.Version(),
		Nodes:              len(nodes),
		Classes:            len(classes),
		SeedSearches:       seedSearches,
		SeedP50US:          percentile(seedLats, 50),
		SyncPulls:          int64(syncPulls),
		SyncRecords:        int64(syncRecords),
		SyncMS:             syncWall.Milliseconds(),
		ManifestsConverged: converged,
		WarmServes:         warmServes,
		WarmStoreServes:    warmStore,
		WarmNewSearches:    warmSearches,
		WarmP50US:          percentile(warmLats, 50),
		KilledNode:         victim,
		KillRequests:       killRequests,
		KillFailed:         killFailed,
		KillFallbacks:      killFallbacks,
		DurationMS:         time.Since(start).Milliseconds(),
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "BENCH_cluster.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("cluster: %d classes seeded on %d nodes (%d searches, p50=%dµs); sync pulled %d segments/%d records in %dms; %d warm serves (%d store, 0 new searches, p50=%dµs); killed %s: %d/%d requests OK, %d fallbacks\n",
		doc.Classes, doc.Nodes, doc.SeedSearches, doc.SeedP50US,
		doc.SyncPulls, doc.SyncRecords, doc.SyncMS,
		doc.WarmServes, doc.WarmStoreServes, doc.WarmP50US,
		victim, killRequests-killFailed, killRequests, doc.KillFallbacks)
	fmt.Printf("wrote %s\n", path)
	return nil
}
