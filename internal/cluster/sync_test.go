package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rtm/internal/store"
)

// testPeer exposes a store over the cluster's wire protocol — the
// test-side mirror of the served daemon's handlers — and counts
// requests per endpoint. Setting mangle flips every byte of the
// record-carrying body (/cluster/fetch), the in-flight corruption the
// trust tests need; endpoints named in down answer 500.
type testPeer struct {
	srv    *httptest.Server
	hits   map[string]*atomic.Int64
	mangle atomic.Bool
}

func newPeer(t *testing.T, st *store.Store, down ...string) *testPeer {
	t.Helper()
	p := &testPeer{hits: map[string]*atomic.Int64{}}
	mux := http.NewServeMux()
	handle := func(name string, fn func(r *http.Request) (any, error)) {
		p.hits[name] = &atomic.Int64{}
		isDown := slices.Contains(down, name)
		mux.HandleFunc("/cluster/"+name, func(w http.ResponseWriter, r *http.Request) {
			p.hits[name].Add(1)
			if isDown {
				http.Error(w, name+" down", http.StatusInternalServerError)
				return
			}
			v, err := fn(r)
			if err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			seg, ok := v.([]byte)
			if !ok {
				json.NewEncoder(w).Encode(v)
				return
			}
			if p.mangle.Load() {
				for i := range seg {
					seg[i] ^= 0x5a
				}
			}
			w.Write(seg)
		})
	}
	handle("digests/", func(r *http.Request) (any, error) {
		prefix := strings.TrimPrefix(r.URL.Path, "/cluster/digests/")
		return st.Digests(prefix, len(prefix)+1)
	})
	handle("leaf/", func(r *http.Request) (any, error) {
		fps, err := st.LeafFingerprints(strings.TrimPrefix(r.URL.Path, "/cluster/leaf/"))
		if fps == nil {
			fps = []string{}
		}
		return fps, err
	})
	handle("fetch", func(r *http.Request) (any, error) {
		var fps []string
		if err := json.NewDecoder(r.Body).Decode(&fps); err != nil {
			return nil, err
		}
		seg, _, err := st.ExportRecords(fps)
		return seg, err
	})
	p.srv = httptest.NewServer(mux)
	t.Cleanup(p.srv.Close)
	return p
}

func (p *testPeer) client(node string) *Client { return NewClient(node, p.srv.URL, time.Second) }

// requireConverged asserts two stores agree on every node of the
// tree, at every depth.
func requireConverged(t *testing.T, a, b *store.Store) {
	t.Helper()
	for depth := 1; depth <= store.MerkleDepth; depth++ {
		da, err := a.Digests("", depth)
		if err != nil {
			t.Fatal(err)
		}
		db, err := b.Digests("", depth)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(da, db) {
			t.Fatalf("depth %d diverged after sync:\n%+v\n%+v", depth, da, db)
		}
	}
}

func seedRecord(bucket, i int) *store.Record {
	return &store.Record{
		Fingerprint: fmt.Sprintf("%x%063x", bucket, i+1),
		Feasible:    true, Elements: 2, Slots: []int{0, 1}, Source: "exact",
	}
}

func openStore(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func TestSyncOnceConverges(t *testing.T) {
	a, b := openStore(t), openStore(t)
	for i := 0; i < 5; i++ {
		if err := a.Put(seedRecord(i%3, i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 10; i < 14; i++ {
		if err := b.Put(seedRecord(7, i)); err != nil {
			t.Fatal(err)
		}
	}
	var pulled atomic.Int64
	syA := &Syncer{Store: a, Peers: []*Client{newPeer(t, b).client("b")},
		OnPull: func(n int64) { pulled.Add(n) }, Logf: t.Logf}
	syB := &Syncer{Store: b, Peers: []*Client{newPeer(t, a).client("a")}, Logf: t.Logf}

	ctx := context.Background()
	rs := syA.SyncOnce(ctx)
	if rs.Pulls != 1 || rs.Records != 4 {
		t.Fatalf("A's round made %d pulls / %d records, want 1/4", rs.Pulls, rs.Records)
	}
	if pulled.Load() != 4 {
		t.Fatalf("OnPull observed %d records, want 4", pulled.Load())
	}
	syB.SyncOnce(ctx)

	requireConverged(t, a, b)
	if a.Len() != 9 || b.Len() != 9 {
		t.Fatalf("lens after sync: a=%d b=%d, want 9/9", a.Len(), b.Len())
	}

	// quiescent round: nothing left to pull
	if rs := syA.SyncOnce(ctx); rs.Pulls != 0 || rs.Records != 0 {
		t.Fatalf("quiescent round pulled %d/%d", rs.Pulls, rs.Records)
	}
}

// TestSyncCorruptPullHealsNextRound pins the trustless import at the
// protocol level: a record fetch mangled in flight imports nothing
// wrong (clean-prefix zero here, since every byte is flipped), the
// round survives, and a later clean round heals the gap.
func TestSyncCorruptPullHealsNextRound(t *testing.T) {
	src, dst := openStore(t), openStore(t)
	for i := 0; i < 4; i++ {
		if err := src.Put(seedRecord(9, i)); err != nil {
			t.Fatal(err)
		}
	}
	peer := newPeer(t, src)
	peer.mangle.Store(true)
	sy := &Syncer{Store: dst, Peers: []*Client{peer.client("src")}, Logf: t.Logf}

	ctx := context.Background()
	rs := sy.SyncOnce(ctx)
	if rs.Records != 0 || dst.Len() != 0 {
		t.Fatalf("corrupt round imported %d records (pulls=%d, len=%d) — corruption served", rs.Records, rs.Pulls, dst.Len())
	}
	if peer.hits["fetch"].Load() == 0 {
		t.Fatal("corrupt round never reached the record fetch")
	}

	peer.mangle.Store(false)
	rs = sy.SyncOnce(ctx)
	if rs.Pulls != 1 || rs.Records != 4 || dst.Len() != 4 {
		t.Fatalf("healing round: pulls=%d records=%d len=%d, want 1/4/4", rs.Pulls, rs.Records, dst.Len())
	}
	requireConverged(t, src, dst)
}

func TestSyncDeadPeerSkipped(t *testing.T) {
	dst := openStore(t)
	if err := dst.Put(seedRecord(1, 1)); err != nil {
		t.Fatal(err)
	}
	sy := &Syncer{Store: dst,
		Peers: []*Client{NewClient("gone", "http://127.0.0.1:1", 200*time.Millisecond)},
		Logf:  t.Logf}
	rs := sy.SyncOnce(context.Background())
	if rs.Pulls != 0 || rs.Records != 0 || dst.Len() != 1 {
		t.Fatalf("dead peer round: pulls=%d records=%d len=%d", rs.Pulls, rs.Records, dst.Len())
	}
	if rs.Failures != 1 || rs.Peers != 1 {
		t.Fatalf("dead peer round stats: %+v, want 1 failure of 1 peer", rs)
	}
}

// TestSyncMerkleDeltaPull pins the protocol: a nearly-converged store
// pulls exactly its missing records by walking the tree, the trees
// converge, and a second round is a no-op that stops at the top level
// — one digests request.
func TestSyncMerkleDeltaPull(t *testing.T) {
	src, dst := openStore(t), openStore(t)
	for i := 0; i < 50; i++ {
		r := seedRecord(i%16, i)
		if err := src.Put(r); err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 { // dst holds a shared prefix of the fleet's state
			if err := dst.Put(r); err != nil {
				t.Fatal(err)
			}
		}
	}
	peer := newPeer(t, src)
	hits := peer.hits
	sy := &Syncer{Store: dst, Peers: []*Client{peer.client("src")}, Logf: t.Logf}

	rs := sy.SyncOnce(context.Background())
	if rs.Records != 25 || rs.Failures != 0 {
		t.Fatalf("delta round: %+v, want 25 records", rs)
	}
	if dst.Len() != 50 {
		t.Fatalf("after delta round: len=%d", dst.Len())
	}
	if hits["fetch"].Load() == 0 || hits["leaf/"].Load() == 0 {
		t.Fatalf("delta endpoints unused: fetch=%d leaf=%d", hits["fetch"].Load(), hits["leaf/"].Load())
	}
	requireConverged(t, src, dst)

	// quiescent round: equal top levels stop the walk at the root
	before := map[string]int64{}
	for k, c := range hits {
		before[k] = c.Load()
	}
	rs = sy.SyncOnce(context.Background())
	if rs.Pulls != 0 || rs.BytesTx != 0 || rs.BytesRx == 0 {
		t.Fatalf("quiescent round: %+v", rs)
	}
	for k, c := range hits {
		want := before[k]
		if k == "digests/" {
			want++
		}
		if got := c.Load(); got != want {
			t.Fatalf("quiescent round: %d %s requests, want %d", got-before[k], k, want-before[k])
		}
	}
}

// TestSyncRunImmediateFirstRound pins the satellite fix: Run syncs
// once at start instead of sleeping a full interval, so a fresh node
// converges right away.
func TestSyncRunImmediateFirstRound(t *testing.T) {
	src, dst := openStore(t), openStore(t)
	for i := 0; i < 3; i++ {
		if err := src.Put(seedRecord(8, i)); err != nil {
			t.Fatal(err)
		}
	}
	done := make(chan RoundStats, 1)
	sy := &Syncer{
		Store: dst, Peers: []*Client{newPeer(t, src).client("src")},
		Interval: time.Hour, Logf: t.Logf,
		OnRound: func(rs RoundStats) {
			select {
			case done <- rs:
			default:
			}
		},
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go sy.Run(ctx)
	select {
	case rs := <-done:
		if rs.Records != 3 {
			t.Fatalf("first round: %+v, want 3 records", rs)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run slept its interval away instead of syncing immediately")
	}
	if dst.Len() != 3 {
		t.Fatalf("len after immediate round = %d", dst.Len())
	}
}

// TestSyncPeerFailureBackoff pins the backoff schedule: a failing
// peer is retried once, then sits out exponentially growing numbers
// of rounds, and a recovered peer resets to every round.
func TestSyncPeerFailureBackoff(t *testing.T) {
	dst := openStore(t)
	sy := &Syncer{Store: dst,
		Peers: []*Client{NewClient("gone", "http://127.0.0.1:1", 100*time.Millisecond)},
		Logf:  t.Logf}
	ctx := context.Background()
	// fails=1 → no skip; fails=2 → skip 1; fails=3 → skip 3
	wantAttempts := []bool{true, true, false, true, false, false, false, true}
	for i, want := range wantAttempts {
		rs := sy.SyncOnce(ctx)
		if got := rs.Peers == 1; got != want {
			t.Fatalf("round %d: attempted=%v (stats %+v), want %v", i, got, rs, want)
		}
		if rs.Peers == 0 && rs.Deferred != 1 {
			t.Fatalf("round %d: skipped peer not reported deferred: %+v", i, rs)
		}
	}
	// recovery resets the failure count
	sy.notePeer(sy.Peers[0], false)
	if rs := sy.SyncOnce(ctx); rs.Peers != 1 {
		t.Fatalf("recovered peer still deferred: %+v", rs)
	}
}

// TestSyncParallelPeersConverge runs one round against more Merkle
// peers than it syncs at once and checks the union lands.
func TestSyncParallelPeersConverge(t *testing.T) {
	dst := openStore(t)
	var peers []*Client
	for p := 0; p < 5; p++ {
		src := openStore(t)
		for i := 0; i < 4; i++ {
			if err := src.Put(seedRecord(p*3%16, p*100+i)); err != nil {
				t.Fatal(err)
			}
		}
		peers = append(peers, newPeer(t, src).client(fmt.Sprintf("p%d", p)))
	}
	sy := &Syncer{Store: dst, Peers: peers, Logf: t.Logf}
	rs := sy.SyncOnce(context.Background())
	if rs.Failures != 0 || rs.Peers != 5 || dst.Len() != 20 {
		t.Fatalf("parallel round: %+v len=%d, want 5 peers 20 records", rs, dst.Len())
	}
}

// TestSyncEchoingPeerTerminates pins that the walk follows only valid
// direct children of the prefix it asked about, each at most once. The
// peer answers every digests request with the queried prefix itself,
// one divergent child listed twice, a grandchild, a non-hex node and
// a sibling's child. Following the echo would recurse until the round's
// deadline; the walk instead takes the single child path down to one
// leaf.
func TestSyncEchoingPeerTerminates(t *testing.T) {
	var digests, leaves atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("/cluster/digests/", func(w http.ResponseWriter, r *http.Request) {
		digests.Add(1)
		prefix := strings.TrimPrefix(r.URL.Path, "/cluster/digests/")
		node := func(p string) store.PrefixDigest {
			return store.PrefixDigest{Prefix: p, Count: 1, Digest: "ee"}
		}
		ds := []store.PrefixDigest{node(prefix), node(prefix + "0"), node(prefix + "0"), node(prefix + "00"), node(prefix + "x")}
		if prefix != "" {
			ds = append(ds, node("1"+prefix[1:]+"0"))
		}
		json.NewEncoder(w).Encode(ds)
	})
	mux.HandleFunc("/cluster/leaf/", func(w http.ResponseWriter, r *http.Request) {
		leaves.Add(1)
		io.WriteString(w, "[]")
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	sy := &Syncer{Store: openStore(t), Peers: []*Client{NewClient("echo", srv.URL, time.Second)}}
	sy.SyncOnce(ctx)
	if ctx.Err() != nil {
		t.Fatalf("round ran into its deadline after %d digests requests", digests.Load())
	}
	// one digests request per interior level and one leaf pull
	if got, want := digests.Load(), int64(store.MerkleDepth); got != want {
		t.Fatalf("%d digests requests, want %d", got, want)
	}
	if got := leaves.Load(); got != 1 {
		t.Fatalf("%d leaf pulls, want 1", got)
	}
}

// TestSyncNearlyConvergedWireCost pins what delta replication buys.
// Nearly-converged stores (10k feasible records with 1, 8 or 32
// divergent) converge in one round to identical digests at every
// depth. The bytes on the wire stay at least 10x below a full
// ExportRecords of the divergent top-level nodes — the segments a
// whole-subtree pull would move.
func TestSyncNearlyConvergedWireCost(t *testing.T) {
	cases := []struct {
		name      string
		divergent int
	}{
		{"verdicts-1-of-10k", 1},
		{"verdicts-8-of-10k", 8},
		{"verdicts-32-of-10k", 32},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + i)))
			randFp := func() string {
				b := make([]byte, 32)
				rng.Read(b)
				return fmt.Sprintf("%x", b)
			}
			src, dst := openStore(t), openStore(t)
			for i := 0; i < 10_000; i++ {
				rec := &store.Record{Fingerprint: randFp(), Feasible: true, Elements: 3, Slots: []int{0, 1, 2}, Source: "exact"}
				if err := src.Put(rec); err != nil {
					t.Fatal(err)
				}
				if i >= tc.divergent {
					if err := dst.Put(rec); err != nil {
						t.Fatal(err)
					}
				}
			}

			whole := wholeNodeExportBytes(t, src, dst)
			cli := newPeer(t, src).client("src")
			sy := &Syncer{Store: dst, Peers: []*Client{cli}, Logf: t.Logf}
			if rs := sy.SyncOnce(context.Background()); rs.Failures != 0 || rs.Records != tc.divergent {
				t.Fatalf("round: %+v, want %d records", rs, tc.divergent)
			}
			requireConverged(t, src, dst)
			wire := cli.BytesRx() + cli.BytesTx()
			t.Logf("wire %d B, whole-node export %d B, %.1fx", wire, whole, float64(whole)/float64(wire))
			if 10*wire > whole {
				t.Fatalf("wire %d B is not 10x below the %d B whole-node export", wire, whole)
			}
		})
	}
}

// wholeNodeExportBytes sizes a full export, from src, of every
// top-level node whose digest differs between src and dst.
func wholeNodeExportBytes(t *testing.T, src, dst *store.Store) int64 {
	t.Helper()
	sd, err := src.Digests("", 1)
	if err != nil {
		t.Fatal(err)
	}
	dd, err := dst.Digests("", 1)
	if err != nil {
		t.Fatal(err)
	}
	local := map[string]store.PrefixDigest{}
	for _, d := range dd {
		local[d.Prefix] = d
	}
	var total int64
	for _, d := range sd {
		if d.Digest == local[d.Prefix].Digest {
			continue
		}
		var fps []string
		for _, fp := range src.Fingerprints() {
			if strings.HasPrefix(fp, d.Prefix) {
				fps = append(fps, fp)
			}
		}
		seg, _, err := src.ExportRecords(fps)
		if err != nil {
			t.Fatal(err)
		}
		total += int64(len(seg))
	}
	return total
}

// TestSyncKeepsNosLocal pins the trust rule at the protocol level. A
// peer's NO is not in its tree, so a round never fetches it. And a
// fingerprint this node holds as a NO is never fetched from a peer
// that holds it as feasible, though that leaf's digests never agree:
// the import would refuse nothing but skip it, round after round.
func TestSyncKeepsNosLocal(t *testing.T) {
	src, dst := openStore(t), openStore(t)
	yes, peerNo, localNo := seedRecord(4, 1), seedRecord(4, 2), seedRecord(4, 3)
	peerNo.Feasible, peerNo.Slots = false, nil
	for _, r := range []*store.Record{yes, peerNo, localNo} {
		if err := src.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	mine := *localNo
	mine.Feasible, mine.Slots = false, nil
	if err := dst.Put(&mine); err != nil {
		t.Fatal(err)
	}
	peer := newPeer(t, src)
	sy := &Syncer{Store: dst, Peers: []*Client{peer.client("src")}, Logf: t.Logf}
	for round := 0; round < 2; round++ {
		if rs := sy.SyncOnce(context.Background()); rs.Failures != 0 {
			t.Fatalf("round %d: %+v", round, rs)
		}
	}
	if _, ok := dst.Get(peerNo.Fingerprint); ok {
		t.Fatal("the peer's NO replicated")
	}
	if got, _ := dst.Get(localNo.Fingerprint); got.Feasible {
		t.Fatal("the local NO was replaced by the peer's record")
	}
	if _, ok := dst.Get(yes.Fingerprint); !ok || dst.Len() != 2 {
		t.Fatalf("feasible record not replicated: len=%d", dst.Len())
	}
	if got := peer.hits["fetch"].Load(); got != 1 {
		t.Fatalf("%d fetches over two rounds, want 1: the local NO was re-fetched", got)
	}
}
