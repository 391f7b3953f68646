package cluster

import (
	"context"
	"fmt"
	"sync"
	"time"

	"rtm/internal/store"
)

// Syncer is the anti-entropy loop: periodically walk each peer's
// Merkle tree (store/merkle.go) root-down against this node's and
// pull what differs, replaying it through the store's validate-or-drop
// import. A round runs two walks per peer, one per tier, each starting
// at the empty prefix: the top level (full-width digests) decides
// "converged", and below it the walk descends only into children
// whose (count, digest) differ from the local node's.
//
// At a divergent verdict leaf the syncer fetches the peer's
// fingerprint set, computes the missing set locally, and pulls
// exactly those records — so the wire cost of a round is proportional
// to the divergence, not the store size. Convergence argument: a
// verdict digest is a pure function of the fingerprint set and
// imports only ever add fingerprints (first write wins, no deletes in
// the protocol), so after one full round in a quiet fleet every
// node's set is the union of the fleet's and all digests agree. A
// corrupt pull imports the clean prefix and leaves the digest unequal,
// so the next round retries — damage heals instead of propagating,
// and because serves re-verify, the damaged window costs misses,
// never wrong verdicts.
//
// The memo tier pulls whole divergent leaves: memo records converge by
// content merge under the order-independent union-and-cap rule, so
// there is no per-record set difference to compute. A poisoned memo
// segment is even safer than a poisoned verdict segment: a seeded
// signature only ever matches by exact bytes, so corruption that
// survives framing costs table memory, never a verdict. The two tiers
// fail independently — a dead verdict endpoint defers verdict
// convergence one round, never memo convergence.
//
// Nothing a peer says is trusted. Its digests only decide WHAT to
// pull; the walk descends only into valid direct children of the
// queried prefix, each at most once, so a lying peer can cost at most
// one bounded tree walk per round; and every pulled byte goes through
// the validate-or-drop import.
type Syncer struct {
	// Store is the local store replicated into.
	Store *store.Store
	// Peers are the nodes to sync from.
	Peers []*Client
	// Interval is the period between rounds for Run. Zero defaults to
	// 10 seconds.
	Interval time.Duration
	// Concurrency bounds how many peers are synced in parallel within
	// one round. Zero defaults to 4.
	Concurrency int
	// OnPull, when non-nil, observes each successful pull with the
	// number of records imported (metrics hook).
	OnPull func(records int64)
	// OnRound, when non-nil, observes each completed round's
	// aggregate stats (metrics hook).
	OnRound func(RoundStats)
	// Logf, when non-nil, receives one line per failed peer exchange.
	Logf func(format string, args ...any)

	mu      sync.Mutex
	backoff map[string]*peerBackoff // peer base URL → failure state
}

// RoundStats aggregates one anti-entropy round.
type RoundStats struct {
	// Peers counts peers attempted; Deferred counts peers skipped
	// because they are in failure backoff; Failures counts attempted
	// peers with at least one failed exchange.
	Peers    int
	Deferred int
	Failures int
	// Pulls counts successful pull+import operations (record fetches
	// and memo-leaf pulls); Records counts records imported by them.
	Pulls   int
	Records int
	// BytesRx / BytesTx are the wire bytes moved this round across
	// all peers (request and response bodies of the sync protocol).
	BytesRx int64
	BytesTx int64
}

func (r *RoundStats) addPull(imported int, onPull func(int64)) {
	r.Pulls++
	r.Records += imported
	if onPull != nil {
		onPull(int64(imported))
	}
}

// peerBackoff tracks consecutive failures against one peer. Backoff
// is counted in rounds, not wall time, so manually-driven syncs (and
// tests) see the same behavior as the ticker loop: after the k-th
// consecutive failed round the peer sits out min(2^(k-1)-1, 7)
// rounds. Any successful round resets it.
type peerBackoff struct {
	fails int
	skip  int
}

// fetchBatch bounds one record-fetch request — large enough that a
// typical round needs one request per peer, small enough to keep a
// single response far below the segment cap.
const fetchBatch = 512

// SyncOnce runs one anti-entropy round: every peer not in backoff is
// synced on its own goroutine (at most Concurrency in flight), the
// two tiers walked independently.
func (sy *Syncer) SyncOnce(ctx context.Context) RoundStats {
	conc := sy.Concurrency
	if conc <= 0 {
		conc = 4
	}
	var (
		round RoundStats
		mu    sync.Mutex
		wg    sync.WaitGroup
		sem   = make(chan struct{}, conc)
	)
	for _, peer := range sy.Peers {
		if !sy.admitPeer(peer) {
			round.Deferred++
			continue
		}
		wg.Add(1)
		go func(p *Client) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if ctx.Err() != nil {
				return
			}
			rx0, tx0 := p.BytesRx(), p.BytesTx()
			st, failed := sy.syncPeer(ctx, p)
			sy.notePeer(p, failed)
			mu.Lock()
			defer mu.Unlock()
			round.Peers++
			if failed {
				round.Failures++
			}
			round.Pulls += st.Pulls
			round.Records += st.Records
			round.BytesRx += p.BytesRx() - rx0
			round.BytesTx += p.BytesTx() - tx0
		}(peer)
	}
	wg.Wait()
	if sy.OnRound != nil {
		sy.OnRound(round)
	}
	return round
}

// admitPeer consumes one backoff round for p and reports whether it
// should be attempted.
func (sy *Syncer) admitPeer(p *Client) bool {
	sy.mu.Lock()
	defer sy.mu.Unlock()
	ps := sy.backoff[p.Base()]
	if ps == nil || ps.skip == 0 {
		return true
	}
	ps.skip--
	return false
}

func (sy *Syncer) notePeer(p *Client, failed bool) {
	sy.mu.Lock()
	defer sy.mu.Unlock()
	if !failed {
		delete(sy.backoff, p.Base())
		return
	}
	if sy.backoff == nil {
		sy.backoff = make(map[string]*peerBackoff)
	}
	ps := sy.backoff[p.Base()]
	if ps == nil {
		ps = &peerBackoff{}
		sy.backoff[p.Base()] = ps
	}
	ps.fails++
	shift := ps.fails - 1
	if shift > 3 {
		shift = 3
	}
	ps.skip = 1<<shift - 1
}

// syncPeer runs both tiers of one peer exchange and reports the
// pulls/records plus whether anything failed (for backoff).
func (sy *Syncer) syncPeer(ctx context.Context, peer *Client) (st RoundStats, failed bool) {
	fail := func(err error) {
		sy.logf("cluster: sync: %v", err)
		failed = true
	}

	// Verdict tier: diff each divergent leaf's fingerprint set, then
	// fetch the missing records in batches. A partial walk still
	// heals what it reached.
	var want []string
	err := sy.walk(ctx, peer, false, "", func(leaf string) error {
		missing, err := sy.missingInLeaf(ctx, peer, leaf)
		want = append(want, missing...)
		return err
	})
	if err != nil {
		fail(err)
	}
	for len(want) > 0 && ctx.Err() == nil {
		batch := want[:min(len(want), fetchBatch)]
		want = want[len(batch):]
		seg, err := peer.FetchRecords(ctx, batch)
		if err != nil {
			fail(err)
			break
		}
		ist, err := sy.Store.ImportFrames(seg)
		if err != nil {
			fail(fmt.Errorf("importing fetch from %s: %w", peer.Node(), err))
			break
		}
		if ist.Dropped {
			sy.logf("cluster: sync: fetch from %s had a corrupt tail; kept %d-record clean prefix", peer.Node(), ist.Imported)
		}
		st.addPull(ist.Imported, sy.OnPull)
	}

	// Memo tier, independently of any verdict-tier failure: pull and
	// merge each divergent leaf whole.
	err = sy.walk(ctx, peer, true, "", func(leaf string) error {
		seg, err := peer.PullMemoLeaf(ctx, leaf)
		if err != nil {
			return err
		}
		ist, err := sy.Store.ImportMemoFrames(seg)
		if err != nil {
			return fmt.Errorf("importing memo leaf %q from %s: %w", leaf, peer.Node(), err)
		}
		if ist.Dropped {
			sy.logf("cluster: sync: memo leaf %q from %s had a corrupt tail; kept %d-record clean prefix", leaf, peer.Node(), ist.Imported)
		}
		st.addPull(ist.Imported, sy.OnPull)
		return nil
	})
	if err != nil {
		fail(err)
	}
	return st, failed
}

// walk descends the peer's tree for one tier (memo selects which)
// from prefix and calls leaf for every leaf whose (count, digest)
// differs from the local one. Children the peer has empty are skipped
// — the protocol is pull-only; a peer missing OUR records converges
// by pulling from us. Only valid direct children of prefix are
// followed, each at most once, so a peer echoing prefixes back or
// repeating them cannot make the walk loop. The walk goes on past a
// failed subtree and returns the first error.
func (sy *Syncer) walk(ctx context.Context, peer *Client, memo bool, prefix string, leaf func(string) error) error {
	if len(prefix) == store.MerkleDepth {
		return leaf(prefix)
	}
	tier := "v"
	if memo {
		tier = "m"
	}
	peerDs, err := peer.Digests(ctx, prefix, tier)
	if err != nil {
		return err
	}
	localDs, err := sy.Store.Digests(prefix, len(prefix)+1, !memo, memo)
	if err != nil {
		return err
	}
	local := make(map[string]store.PrefixDigest, len(localDs))
	for _, d := range localDs {
		local[d.Prefix] = d
	}
	var first error
	seen := make(map[string]bool, len(peerDs))
	for _, d := range peerDs {
		if ctx.Err() != nil {
			break
		}
		if len(d.Prefix) != len(prefix)+1 || d.Prefix[:len(prefix)] != prefix || !store.ValidPrefix(d.Prefix) || seen[d.Prefix] {
			continue
		}
		seen[d.Prefix] = true
		l := local[d.Prefix]
		n, dg, ln, ldg := d.Count, d.Digest, l.Count, l.Digest
		if memo {
			n, dg, ln, ldg = d.MemoCount, d.MemoDigest, l.MemoCount, l.MemoDigest
		}
		if n == 0 || (n == ln && dg == ldg) {
			continue
		}
		if err := sy.walk(ctx, peer, memo, d.Prefix, leaf); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// missingInLeaf returns the fingerprints the peer holds under one
// leaf that this node lacks.
func (sy *Syncer) missingInLeaf(ctx context.Context, peer *Client, leaf string) ([]string, error) {
	peerFps, err := peer.LeafFingerprints(ctx, leaf)
	if err != nil {
		return nil, err
	}
	local, err := sy.Store.LeafFingerprints(leaf)
	if err != nil {
		return nil, err
	}
	have := make(map[string]bool, len(local))
	for _, fp := range local {
		have[fp] = true
	}
	var missing []string
	for _, fp := range peerFps {
		if !have[fp] {
			missing = append(missing, fp)
		}
	}
	return missing, nil
}

// Run loops SyncOnce every Interval until ctx is cancelled. The first
// round runs immediately, so a fresh or restarted node converges
// right away instead of serving cold for a full interval.
func (sy *Syncer) Run(ctx context.Context) {
	iv := sy.Interval
	if iv <= 0 {
		iv = 10 * time.Second
	}
	if ctx.Err() != nil {
		return
	}
	sy.SyncOnce(ctx)
	t := time.NewTicker(iv)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			sy.SyncOnce(ctx)
		}
	}
}

func (sy *Syncer) logf(format string, args ...any) {
	if sy.Logf != nil {
		sy.Logf(format, args...)
	}
}
