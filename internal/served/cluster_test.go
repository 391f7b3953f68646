package served

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"rtm/internal/cluster"
	"rtm/internal/core"
	"rtm/internal/service"
	"rtm/internal/spec"
	"rtm/internal/store"
)

// testNode is one in-process cluster member.
type testNode struct {
	id    string
	srv   *httptest.Server
	svc   *service.Service
	st    *store.Store
	peers map[string]*cluster.Client
}

// newFleet builds n in-process cluster nodes with stores, fully
// meshed. Construction is two-phase (servers first, then peer
// clients) because every URL only exists once its server is up.
func newFleet(t *testing.T, n int, optFor func(st *store.Store) service.Options) []*testNode {
	t.Helper()
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("n%d", i+1)
	}
	ring, err := cluster.NewRing(ids, 0)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*testNode, n)
	for i, id := range ids {
		st, err := store.Open(t.TempDir(), store.Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		opt := service.Options{Store: st}
		if optFor != nil {
			opt = optFor(st)
		}
		svc := service.New(opt)
		peers := map[string]*cluster.Client{}
		d := New(Config{
			Service: svc, Timeout: 10 * time.Second, MaxBody: 1 << 20, RespCache: 64,
			Cluster: &Cluster{NodeID: id, Ring: ring, Peers: peers, Store: st},
		})
		srv := httptest.NewServer(d.Mux())
		t.Cleanup(srv.Close)
		nodes[i] = &testNode{id: id, srv: srv, svc: svc, st: st, peers: peers}
	}
	for _, me := range nodes {
		for _, other := range nodes {
			if other.id != me.id {
				me.peers[other.id] = cluster.NewClient(other.id, other.srv.URL, 2*time.Second)
			}
		}
	}
	return nodes
}

// ownerOf locates the fleet node owning a spec's fingerprint.
func ownerOf(t *testing.T, nodes []*testNode, specText string) (*testNode, string) {
	t.Helper()
	sp, err := spec.Parse(specText)
	if err != nil {
		t.Fatal(err)
	}
	fp := core.Fingerprint(sp.Model)
	ring, err := cluster.NewRing([]string{"n1", "n2", "n3"}, 0)
	if err != nil {
		t.Fatal(err)
	}
	own := ring.Owner(fp)
	for _, n := range nodes {
		if n.id == own {
			return n, fp
		}
	}
	t.Fatalf("owner %s not in fleet", own)
	return nil, ""
}

// postForwarded POSTs a spec with the forward marker set, pinning the
// request to the receiving node (the never-forward-a-forward rule).
func postForwarded(t *testing.T, url, body string) (*http.Response, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/schedule", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(cluster.ForwardHeader, "1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp, string(raw)
}

func TestClusterForwardingRules(t *testing.T) {
	nodes := newFleet(t, 3, nil)
	owner, fp := ownerOf(t, nodes, exampleSpec)
	var nonOwner *testNode
	for _, n := range nodes {
		if n.id != owner.id {
			nonOwner = n
			break
		}
	}

	// a plain POST to a non-owner is proxied to the owner
	resp, out := postSpec(t, nonOwner.srv.URL, exampleSpec)
	if resp.StatusCode != http.StatusOK || !out.Decided || out.Fingerprint != fp {
		t.Fatalf("forwarded request: status=%d %+v", resp.StatusCode, out)
	}
	if got := metricValue(t, nonOwner.srv.URL, "forwards"); got != 1 {
		t.Fatalf("non-owner forwards = %d, want 1", got)
	}
	if got := metricValue(t, nonOwner.srv.URL, "requests"); got != 0 {
		t.Fatalf("non-owner served %d requests locally, want 0", got)
	}
	if got := metricValue(t, owner.srv.URL, "requests"); got != 1 {
		t.Fatalf("owner requests = %d, want 1", got)
	}
	// the decided outcome was written through on the owner only
	if _, ok := owner.st.Get(fp); !ok {
		t.Fatal("owner store missing the decided record")
	}
	if _, ok := nonOwner.st.Get(fp); ok {
		t.Fatal("non-owner store has the record before any sync")
	}

	// a POST already marked forwarded is served locally, never re-proxied
	fresp, _ := postForwarded(t, nonOwner.srv.URL, renamedSpec)
	if fresp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded-marked request: status=%d", fresp.StatusCode)
	}
	if got := metricValue(t, nonOwner.srv.URL, "forwards"); got != 1 {
		t.Fatalf("forward marker re-proxied: forwards = %d, want still 1", got)
	}
	if got := metricValue(t, nonOwner.srv.URL, "requests"); got != 1 {
		t.Fatalf("forwarded-marked request not served locally: requests = %d", got)
	}

	// a POST to the owner itself never forwards
	oresp, oout := postSpec(t, owner.srv.URL, exampleSpec)
	if oresp.StatusCode != http.StatusOK || !oout.CacheHit {
		t.Fatalf("owner self-serve: status=%d %+v", oresp.StatusCode, oout)
	}
	if got := metricValue(t, owner.srv.URL, "forwards"); got != 0 {
		t.Fatalf("owner forwards = %d, want 0", got)
	}
}

// burstClass is one class of the cold-burst workload, with its spec
// rendering and fingerprint.
type burstClass struct {
	m        *core.Model
	text, fp string
}

// fastBurstClasses renders the twelve cold-burst classes that exact
// search decides in milliseconds: density-1 deadline sets at weights 2
// and 3. The burst's four other classes (w=3 over {2,4,6,12},
// {2,3,9,18}, {3,4,4,6} and {2,5,5,10}) take seconds each, because the
// candidate budget does not bound the nodes explored between
// candidates, so they are left out.
func fastBurstClasses() []burstClass {
	sets := [][]int{
		{2, 3, 6}, {2, 4, 4}, {3, 3, 3}, {4, 4, 4, 4},
		{2, 4, 6, 12}, {2, 3, 9, 18}, {3, 4, 4, 6}, {2, 5, 5, 10},
	}
	return append(soakClasses("burst", 2, sets), soakClasses("burst3-", 3, sets[:4])...)
}

// feasibleClasses renders twelve unit-weight classes of density at
// most 1 that exact search proves feasible in well under a
// millisecond each.
func feasibleClasses() []burstClass {
	return soakClasses("feasible", 1, [][]int{
		{2, 4, 4}, {3, 3, 3}, {4, 4, 4, 4}, {2, 4, 8}, {3, 6, 6}, {4, 4, 8, 8},
		{2, 8, 8, 8}, {2, 4, 8, 8}, {3, 3, 6, 6}, {2, 6, 6, 6}, {4, 4, 4, 8, 8}, {3, 6, 6, 6, 6},
	})
}

// soakClasses renders one soakInstance class per deadline set.
func soakClasses(name string, w int, sets [][]int) []burstClass {
	out := make([]burstClass, len(sets))
	for i, ds := range sets {
		m := soakInstance(w, ds)
		out[i] = burstClass{m, spec.Print(fmt.Sprintf("%s%d", name, i), m), core.Fingerprint(m)}
	}
	return out
}

// TestClusterOwnerDownFallback pins graceful degradation: when a shard
// owner dies, a burst of the classes it owned, posted to the survivors
// with no routing hints, gets a decided 200 on every request. Each
// survivor falls back to a local solve and writes the verdict through.
func TestClusterOwnerDownFallback(t *testing.T) {
	nodes := newFleet(t, 3, nil)
	classes := fastBurstClasses()
	owned := map[*testNode][]burstClass{}
	for _, c := range classes {
		own, _ := ownerOf(t, nodes, c.text)
		owned[own] = append(owned[own], c)
	}
	victim := nodes[0]
	for _, n := range nodes {
		if len(owned[n]) > len(owned[victim]) {
			victim = n
		}
	}
	victim.srv.Close()
	var survivors []*testNode
	for _, n := range nodes {
		if n != victim {
			survivors = append(survivors, n)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, len(owned[victim]))
	for i, c := range owned[victim] {
		wg.Add(1)
		go func(i int, c burstClass) {
			defer wg.Done()
			n := survivors[i%len(survivors)]
			resp, err := http.Post(n.srv.URL+"/schedule", "text/plain", strings.NewReader(c.text))
			if err != nil {
				errs <- err
				return
			}
			var out scheduleResponse
			err = json.NewDecoder(resp.Body).Decode(&out)
			resp.Body.Close()
			switch {
			case resp.StatusCode != http.StatusOK:
				errs <- fmt.Errorf("class %s on %s: status %d", c.fp[:8], n.id, resp.StatusCode)
			case err != nil || !out.Decided || out.Fingerprint != c.fp:
				errs <- fmt.Errorf("class %s on %s: %+v, %v", c.fp[:8], n.id, out, err)
			default:
				// write-through happened locally: availability kept the verdict
				if _, ok := n.st.Get(c.fp); !ok {
					errs <- fmt.Errorf("%s store missing the fallback verdict for %s", n.id, c.fp[:8])
				}
			}
		}(i, c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	var fallbacks int64
	for _, n := range survivors {
		fallbacks += metricValue(t, n.srv.URL, "fallbacks")
	}
	if fallbacks == 0 {
		t.Fatalf("no fallbacks after killing %s: the burst never tried the dead owner", victim.id)
	}
}

// TestClusterWarmFleet is acceptance (a) at the daemon level: every
// feasible class decided on its owner is served by both non-owners
// from their stores after one sync round, with zero new exact searches
// fleet-wide. A NO that exhaustion decided stays on its owner: no
// non-owner could check it, so none holds it after the sync.
func TestClusterWarmFleet(t *testing.T) {
	// analysis and heuristic off: every cold decide is an exact search,
	// so "searches" counts exactly the NP-hard work done
	nodes := newFleet(t, 3, func(st *store.Store) service.Options {
		return service.Options{Store: st, DisableAnalysis: true, DisableHeuristic: true}
	})
	no := fastBurstClasses()[0]
	classes := append(feasibleClasses(), no)

	// seed each class on its owner, pinned local by the forward marker
	owners := make([]*testNode, len(classes))
	owned := map[*testNode]int64{}
	for i, c := range classes {
		owners[i], _ = ownerOf(t, nodes, c.text)
		owned[owners[i]]++
		if resp, body := postForwarded(t, owners[i].srv.URL, c.text); resp.StatusCode != http.StatusOK {
			t.Fatalf("seed solve of %s on %s: status=%d %.200s", c.fp[:8], owners[i].id, resp.StatusCode, body)
		}
	}
	// each node searches exactly the classes it owns, once each
	checkSearches := func(phase string) {
		t.Helper()
		for _, n := range nodes {
			if got := metricValue(t, n.srv.URL, "searches"); got != owned[n] {
				t.Fatalf("after %s, %s has run %d searches for the %d classes it owns", phase, n.id, got, owned[n])
			}
		}
	}
	checkSearches("seeding")

	// one anti-entropy round per node against both peers
	for _, n := range nodes {
		var peers []*cluster.Client
		for _, c := range n.peers {
			peers = append(peers, c)
		}
		sy := &cluster.Syncer{Store: n.st, Peers: peers, Logf: t.Logf}
		sy.SyncOnce(context.Background())
	}

	for _, n := range nodes {
		rec, ok := n.st.Get(no.fp)
		switch owner := owners[len(classes)-1]; {
		case n == owner && (!ok || rec.Feasible):
			t.Fatalf("owner %s lost its exhaustion NO: %+v", n.id, rec)
		case n != owner && ok:
			t.Fatalf("non-owner %s holds the exhaustion NO after the sync", n.id)
		}
	}

	// both non-owners now serve every feasible class locally; the
	// renamed isomorphic surface proves it is class-level warmth
	for i, c := range classes[:len(classes)-1] {
		surf := spec.Print(fmt.Sprintf("iso%d", i), renameSurface(rand.New(rand.NewSource(int64(i))), c.m))
		for _, n := range nodes {
			if n == owners[i] {
				continue
			}
			resp, body := postForwarded(t, n.srv.URL, surf)
			if resp.StatusCode != http.StatusOK ||
				!strings.Contains(body, `"source":"store"`) && !strings.Contains(body, `"source":"cache"`) {
				t.Fatalf("%s warm serve of %s: status=%d body=%.200s", n.id, c.fp[:8], resp.StatusCode, body)
			}
		}
	}
	checkSearches("the warm serves")
}

// TestClusterCorruptSegmentSkippedAndHealed is acceptance (c) at the
// daemon level: a segment corrupted in flight is dropped on import
// (the class stays a miss), and the next clean sync round heals it —
// the corrupt bytes are never served as a verdict.
func TestClusterCorruptSegmentSkippedAndHealed(t *testing.T) {
	nodes := newFleet(t, 3, func(st *store.Store) service.Options {
		return service.Options{Store: st, DisableAnalysis: true, DisableHeuristic: true}
	})
	a, b := nodes[0], nodes[1]

	resp, _ := postForwarded(t, a.srv.URL, exampleSpec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seed solve: status=%d", resp.StatusCode)
	}
	fpList := a.st.Fingerprints()
	if len(fpList) != 1 {
		t.Fatalf("A has %d records, want 1", len(fpList))
	}
	fp := fpList[0]

	// a corrupting man-in-the-middle proxy in front of A: digests and
	// leaf sets pass through, record fetches get every byte flipped
	evil := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, err := http.NewRequest(r.Method, a.srv.URL+r.URL.String(), r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		req.Header = r.Header
		up, err := http.DefaultClient.Do(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer up.Body.Close()
		raw, _ := io.ReadAll(up.Body)
		if r.URL.Path == "/cluster/fetch" {
			for i := range raw {
				raw[i] ^= 0xa5
			}
		}
		w.WriteHeader(up.StatusCode)
		w.Write(raw)
	}))
	defer evil.Close()

	sy := &cluster.Syncer{Store: b.st, Peers: []*cluster.Client{cluster.NewClient(a.id, evil.URL, 2*time.Second)}, Logf: t.Logf}
	if rs := sy.SyncOnce(context.Background()); rs.Records != 0 {
		t.Fatalf("corrupt sync imported %d records — corruption accepted", rs.Records)
	}
	if _, ok := b.st.Get(fp); ok {
		t.Fatal("corrupt segment record is resident in B's store")
	}
	// B serving the class now must NOT claim a store hit — the class
	// is simply cold here (miss, never a wrong verdict)
	if got := metricValue(t, b.srv.URL, "store_hits"); got != 0 {
		t.Fatalf("B claims %d store hits off a dropped segment", got)
	}

	// heal: the next round against the real peer converges B
	heal := &cluster.Syncer{Store: b.st, Peers: []*cluster.Client{b.peers[a.id]}, Logf: t.Logf}
	if rs := heal.SyncOnce(context.Background()); rs.Records != 1 {
		t.Fatalf("healing sync imported %d records, want 1", rs.Records)
	}
	resp2, body := postForwarded(t, b.srv.URL, renamedSpec)
	if resp2.StatusCode != http.StatusOK || !strings.Contains(body, `"source":"store"`) {
		t.Fatalf("healed serve: status=%d body=%.200s", resp2.StatusCode, body)
	}
	if got := metricValue(t, b.srv.URL, "searches"); got != 0 {
		t.Fatalf("healed serve ran %d searches, want 0", got)
	}
}

// TestClusterManifestEndpoints exercises the top level of the
// replication tree on a real daemon — the root's children, which a
// sync round compares first: per-node counts over the whole store and
// full-width digests.
func TestClusterManifestEndpoints(t *testing.T) {
	nodes := newFleet(t, 3, nil)
	a := nodes[0]
	if resp, _ := postForwarded(t, a.srv.URL, exampleSpec); resp.StatusCode != http.StatusOK {
		t.Fatal("seed failed")
	}

	cli := cluster.NewClient(a.id, a.srv.URL, 2*time.Second)
	top, err := cli.Digests(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, d := range top {
		total += d.Count
		if len(d.Prefix) != 1 || (d.Count > 0 && len(d.Digest) != 64) {
			t.Fatalf("top-level node: %+v", d)
		}
	}
	if total != 1 {
		t.Fatalf("top-level total = %d, want 1", total)
	}
}

// TestClusterMerkleEndpoints exercises the narrowing wire surface on
// a real daemon: digest walks at every depth, leaf fingerprint sets,
// delta fetches, and the 400s for malformed prefixes and bodies.
func TestClusterMerkleEndpoints(t *testing.T) {
	nodes := newFleet(t, 1, nil)
	a := nodes[0]
	if resp, _ := postForwarded(t, a.srv.URL, exampleSpec); resp.StatusCode != http.StatusOK {
		t.Fatal("seed failed")
	}
	cli := cluster.NewClient(a.id, a.srv.URL, 2*time.Second)
	ctx := context.Background()

	// walk the single record from the root down to its leaf
	prefix := ""
	for depth := 1; depth <= store.MerkleDepth; depth++ {
		ds, err := cli.Digests(ctx, prefix)
		if err != nil {
			t.Fatalf("digests %q depth %d: %v", prefix, depth, err)
		}
		if len(ds) != 1 || ds[0].Count != 1 || ds[0].Digest == "" {
			t.Fatalf("digests %q depth %d: %+v", prefix, depth, ds)
		}
		prefix = ds[0].Prefix
	}
	fps, err := cli.LeafFingerprints(ctx, prefix)
	if err != nil {
		t.Fatal(err)
	}
	if len(fps) != 1 {
		t.Fatalf("leaf %q: %v", prefix, fps)
	}
	seg, err := cli.FetchRecords(ctx, fps)
	if err != nil {
		t.Fatal(err)
	}
	if len(seg) == 0 {
		t.Fatal("fetch returned an empty segment for a known fingerprint")
	}
	// unknown fingerprints are skipped, not errors
	if seg, err = cli.FetchRecords(ctx, []string{strings.Repeat("0", 64)}); err != nil || len(seg) != 0 {
		t.Fatalf("unknown-fp fetch: seg=%d err=%v", len(seg), err)
	}
	for _, bad := range []string{
		"/cluster/digests/xyz", // non-hex prefix
		"/cluster/digests/fff", // a leaf has no children
		"/cluster/leaf/ab",     // not a leaf-depth prefix
	} {
		resp, err := http.Get(a.srv.URL + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status=%d, want 400", bad, resp.StatusCode)
		}
	}
	resp, err := http.Post(a.srv.URL+"/cluster/fetch", "application/json", strings.NewReader("not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed fetch body: status=%d, want 400", resp.StatusCode)
	}
	if resp, err = http.Get(a.srv.URL + "/cluster/fetch"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET fetch: status=%d, want 405", resp.StatusCode)
	}
}
