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
// record-carrying bodies (/cluster/fetch and /cluster/memoleaf), the
// in-flight corruption the trust tests need; endpoints named in down
// answer 500.
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
		tier := r.URL.Query().Get("tier")
		return st.Digests(prefix, len(prefix)+1, tier != "m", tier != "v")
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
	handle("memoleaf/", func(r *http.Request) (any, error) {
		seg, _, err := st.ExportMemoPrefix(strings.TrimPrefix(r.URL.Path, "/cluster/memoleaf/"))
		return seg, err
	})
	p.srv = httptest.NewServer(mux)
	t.Cleanup(p.srv.Close)
	return p
}

func (p *testPeer) client(node string) *Client { return NewClient(node, p.srv.URL, time.Second) }

// requireConverged asserts two stores agree on every node of both
// tiers' trees, at every depth.
func requireConverged(t *testing.T, a, b *store.Store) {
	t.Helper()
	for depth := 1; depth <= store.MerkleDepth; depth++ {
		da, err := a.Digests("", depth, true, true)
		if err != nil {
			t.Fatal(err)
		}
		db, err := b.Digests("", depth, true, true)
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

// TestSyncMemoConverges pins memo-tier replication: after one sync
// round each way, both stores hold the merged (union) signature sets
// and their trees — memo digests included — are identical. Unlike
// verdicts there is no first-write-wins: overlapping classes merge.
func TestSyncMemoConverges(t *testing.T) {
	a, b := openStore(t), openStore(t)
	key := fmt.Sprintf("%x%063x", 5, 0x42)
	sigsA := [][]byte{[]byte("sig-a1"), []byte("sig-shared")}
	sigsB := [][]byte{[]byte("sig-b1"), []byte("sig-b2"), []byte("sig-shared")}
	if err := a.PutMemo(key, []string{fmt.Sprintf("%064x", 1)}, sigsA); err != nil {
		t.Fatal(err)
	}
	if err := b.PutMemo(key, []string{fmt.Sprintf("%064x", 2)}, sigsB); err != nil {
		t.Fatal(err)
	}
	// a second class only A holds, plus a verdict so both tiers move
	keyOnlyA := fmt.Sprintf("%x%063x", 3, 0x43)
	if err := a.PutMemo(keyOnlyA, nil, [][]byte{[]byte("lone")}); err != nil {
		t.Fatal(err)
	}
	if err := a.Put(seedRecord(2, 1)); err != nil {
		t.Fatal(err)
	}

	syA := &Syncer{Store: a, Peers: []*Client{newPeer(t, b).client("b")}, Logf: t.Logf}
	syB := &Syncer{Store: b, Peers: []*Client{newPeer(t, a).client("a")}, Logf: t.Logf}

	ctx := context.Background()
	syA.SyncOnce(ctx)
	syB.SyncOnce(ctx)

	for _, st := range []*store.Store{a, b} {
		rec, ok := st.GetMemo(key)
		if !ok || len(rec.Sigs) != 4 { // union of {a1, shared} and {b1, b2, shared}
			t.Fatalf("merged class: ok=%v sigs=%d, want 4", ok, len(rec.Sigs))
		}
		if len(rec.Fingerprints) != 2 {
			t.Fatalf("fingerprint union: %v", rec.Fingerprints)
		}
		if _, ok := st.GetMemo(keyOnlyA); !ok {
			t.Fatal("one-sided class not replicated")
		}
	}
	requireConverged(t, a, b)
	// quiescent round: converged replicas pull nothing
	if rs := syA.SyncOnce(ctx); rs.Pulls != 0 || rs.Records != 0 {
		t.Fatalf("quiescent round pulled %d/%d", rs.Pulls, rs.Records)
	}
}

// TestSyncMemoPoisonedSegmentDropped pins the trustless import: a memo
// leaf segment mangled in flight contributes nothing (every byte
// flipped → empty clean prefix), the local store stays intact, and
// the next clean round heals.
func TestSyncMemoPoisonedSegmentDropped(t *testing.T) {
	src, dst := openStore(t), openStore(t)
	key := fmt.Sprintf("%x%063x", 9, 0x51)
	if err := src.PutMemo(key, nil, [][]byte{[]byte("deep-refutation")}); err != nil {
		t.Fatal(err)
	}
	peer := newPeer(t, src)
	peer.mangle.Store(true)
	sy := &Syncer{Store: dst, Peers: []*Client{peer.client("src")}, Logf: t.Logf}

	ctx := context.Background()
	sy.SyncOnce(ctx)
	if dst.MemoLen() != 0 {
		t.Fatalf("poisoned round imported %d memo classes", dst.MemoLen())
	}
	if peer.hits["memoleaf/"].Load() == 0 {
		t.Fatal("poisoned round never reached the memo leaf pull")
	}

	peer.mangle.Store(false)
	sy.SyncOnce(ctx)
	rec, ok := dst.GetMemo(key)
	if !ok || len(rec.Sigs) != 1 {
		t.Fatalf("healing round: ok=%v rec=%+v", ok, rec)
	}
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
// pulls exactly its missing records by walking the tree, both tiers
// converge, and a second round is a no-op that stops at the top level
// — one digests request per tier.
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
	if err := src.PutMemo(fmt.Sprintf("%x%063x", 6, 0x99), nil, [][]byte{[]byte("sig")}); err != nil {
		t.Fatal(err)
	}
	peer := newPeer(t, src)
	hits := peer.hits
	sy := &Syncer{Store: dst, Peers: []*Client{peer.client("src")}, Logf: t.Logf}

	rs := sy.SyncOnce(context.Background())
	if rs.Records != 26 || rs.Failures != 0 { // 25 verdicts + 1 memo class
		t.Fatalf("delta round: %+v, want 26 records", rs)
	}
	if dst.Len() != 50 || dst.MemoLen() != 1 {
		t.Fatalf("after delta round: len=%d memo=%d", dst.Len(), dst.MemoLen())
	}
	if hits["fetch"].Load() == 0 || hits["leaf/"].Load() == 0 || hits["memoleaf/"].Load() == 0 {
		t.Fatalf("delta endpoints unused: fetch=%d leaf=%d memoleaf=%d", hits["fetch"].Load(), hits["leaf/"].Load(), hits["memoleaf/"].Load())
	}
	requireConverged(t, src, dst)

	// quiescent round: equal top levels stop both walks at the root
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
			want += 2
		}
		if got := c.Load(); got != want {
			t.Fatalf("quiescent round: %d %s requests, want %d", got-before[k], k, want-before[k])
		}
	}
}

// TestSyncTiersFailIndependently pins that a peer whose verdict
// endpoints are down still replicates its memo tier in the same
// round.
func TestSyncTiersFailIndependently(t *testing.T) {
	src, dst := openStore(t), openStore(t)
	if err := src.Put(seedRecord(3, 1)); err != nil {
		t.Fatal(err)
	}
	if err := src.PutMemo(fmt.Sprintf("%x%063x", 3, 0x88), nil, [][]byte{[]byte("sig")}); err != nil {
		t.Fatal(err)
	}
	peer := newPeer(t, src, "leaf/", "fetch")
	sy := &Syncer{Store: dst, Peers: []*Client{peer.client("src")}, Logf: t.Logf}
	rs := sy.SyncOnce(context.Background())
	if rs.Failures != 1 {
		t.Fatalf("round stats: %+v, want the verdict failure counted", rs)
	}
	if dst.MemoLen() != 1 {
		t.Fatalf("memo tier deferred by a verdict failure: memo=%d, want 1", dst.MemoLen())
	}
	if dst.Len() != 0 {
		t.Fatalf("verdict appeared through a dead endpoint: len=%d", dst.Len())
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

// TestSyncParallelPeersConverge runs one round against several Merkle
// peers with bounded concurrency and checks the union lands.
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
	sy := &Syncer{Store: dst, Peers: peers, Concurrency: 2, Logf: t.Logf}
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
// leaf per tier.
func TestSyncEchoingPeerTerminates(t *testing.T) {
	var digests, leaves atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("/cluster/digests/", func(w http.ResponseWriter, r *http.Request) {
		digests.Add(1)
		prefix := strings.TrimPrefix(r.URL.Path, "/cluster/digests/")
		node := func(p string) store.PrefixDigest {
			return store.PrefixDigest{Prefix: p, Count: 1, Digest: "ee", MemoCount: 1, MemoDigest: "ee"}
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
	mux.HandleFunc("/cluster/memoleaf/", func(w http.ResponseWriter, r *http.Request) {
		leaves.Add(1)
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
	// one digests request per interior level and one leaf pull, per tier
	if got, want := digests.Load(), int64(2*store.MerkleDepth); got != want {
		t.Fatalf("%d digests requests, want %d", got, want)
	}
	if got := leaves.Load(); got != 2 {
		t.Fatalf("%d leaf pulls, want 2", got)
	}
}

// TestSyncNearlyConvergedWireCost pins what delta replication buys.
// Nearly-converged stores (10k records with 1, 8 or 32 divergent
// verdicts, or 2k memo classes with 8 divergent) converge in one round
// to identical digests at every depth. The bytes on the wire stay at
// least 10x below a full ExportRecords (and ExportMemoPrefix) of the
// divergent top-level nodes — the segments a whole-subtree pull would
// move.
func TestSyncNearlyConvergedWireCost(t *testing.T) {
	cases := []struct {
		name                             string
		divergent, memos, memosDivergent int
	}{
		{"verdicts-1-of-10k", 1, 0, 0},
		{"verdicts-8-of-10k", 8, 0, 0},
		{"verdicts-32-of-10k", 32, 0, 0},
		{"memo-8-of-2k", 0, 2000, 8},
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
				rec := &store.Record{Fingerprint: randFp(), Elements: 3, Source: "exact"}
				if err := src.Put(rec); err != nil {
					t.Fatal(err)
				}
				if i >= tc.divergent {
					if err := dst.Put(rec); err != nil {
						t.Fatal(err)
					}
				}
			}
			for i := 0; i < tc.memos; i++ {
				key := randFp()
				sigs := [][]byte{make([]byte, 24), make([]byte, 24)}
				rng.Read(sigs[0])
				rng.Read(sigs[1])
				if err := src.PutMemo(key, nil, sigs); err != nil {
					t.Fatal(err)
				}
				if i >= tc.memosDivergent {
					if err := dst.PutMemo(key, nil, sigs); err != nil {
						t.Fatal(err)
					}
				}
			}

			whole := wholeNodeExportBytes(t, src, dst)
			cli := newPeer(t, src).client("src")
			sy := &Syncer{Store: dst, Peers: []*Client{cli}, Logf: t.Logf}
			if rs := sy.SyncOnce(context.Background()); rs.Failures != 0 || rs.Records != tc.divergent+tc.memosDivergent {
				t.Fatalf("round: %+v, want %d records", rs, tc.divergent+tc.memosDivergent)
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
// top-level node whose digest differs between src and dst, per tier.
func wholeNodeExportBytes(t *testing.T, src, dst *store.Store) int64 {
	t.Helper()
	sd, err := src.Digests("", 1, true, true)
	if err != nil {
		t.Fatal(err)
	}
	dd, err := dst.Digests("", 1, true, true)
	if err != nil {
		t.Fatal(err)
	}
	local := map[string]store.PrefixDigest{}
	for _, d := range dd {
		local[d.Prefix] = d
	}
	var total int64
	for _, d := range sd {
		l := local[d.Prefix]
		if d.Digest != l.Digest {
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
		if d.MemoDigest != l.MemoDigest {
			seg, _, err := src.ExportMemoPrefix(d.Prefix)
			if err != nil {
				t.Fatal(err)
			}
			total += int64(len(seg))
		}
	}
	return total
}
