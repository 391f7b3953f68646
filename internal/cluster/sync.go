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
// import. A round runs one walk per peer, starting at the empty
// prefix: the top level (full-width digests) decides "converged", and
// below it the walk descends only into children whose (count, digest)
// differ from the local node's.
//
// The tree holds feasible records only — the ones a receiver can
// check, by re-verifying the schedule — so only they replicate; a NO
// stays on the node that decided it, and the import refuses one from
// a peer. At a divergent leaf the syncer fetches the peer's
// fingerprint set and pulls exactly the fingerprints this node does
// not hold at all — so the wire cost of a round is proportional to
// the divergence, not the store size. Convergence argument: a digest
// is a pure function of the feasible fingerprint set and imports only
// ever add feasible fingerprints (first write wins, no deletes in the
// protocol), so after one full round in a quiet fleet every node's set
// is the union of the fleet's and all digests agree. A corrupt pull
// imports the clean prefix and leaves the digest unequal, so the next
// round retries — damage heals instead of propagating, and because
// serves re-verify, the damaged window costs misses, never wrong
// verdicts.
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
	// Pulls counts successful record fetches imported; Records counts
	// records imported by them.
	Pulls   int
	Records int
	// BytesRx / BytesTx are the wire bytes moved this round across
	// all peers (request and response bodies of the sync protocol).
	BytesRx int64
	BytesTx int64
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

// peerConcurrency bounds how many peers one round syncs in parallel.
const peerConcurrency = 4

// SyncOnce runs one anti-entropy round: every peer not in backoff is
// synced on its own goroutine, at most peerConcurrency in flight.
func (sy *Syncer) SyncOnce(ctx context.Context) RoundStats {
	var (
		round RoundStats
		mu    sync.Mutex
		wg    sync.WaitGroup
		sem   = make(chan struct{}, peerConcurrency)
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

// syncPeer runs one peer exchange and reports the pulls/records plus
// whether anything failed (for backoff). It diffs each divergent
// leaf's fingerprint set, then fetches the missing records in batches;
// a partial walk still heals what it reached.
func (sy *Syncer) syncPeer(ctx context.Context, peer *Client) (st RoundStats, failed bool) {
	fail := func(err error) {
		sy.logf("cluster: sync: %v", err)
		failed = true
	}
	var want []string
	err := sy.walk(ctx, peer, "", func(leaf string) error {
		peerFps, err := peer.LeafFingerprints(ctx, leaf)
		want = append(want, sy.Store.Missing(peerFps)...)
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
		if ist.Refused > 0 {
			sy.logf("cluster: sync: refused %d NO records from %s", ist.Refused, peer.Node())
		}
		st.Pulls++
		st.Records += ist.Imported
		if sy.OnPull != nil {
			sy.OnPull(int64(ist.Imported))
		}
	}
	return st, failed
}

// walk descends the peer's tree from prefix and calls leaf for every
// leaf whose (count, digest) differs from the local one. Children the
// peer has empty are skipped — the protocol is pull-only; a peer
// missing OUR records converges by pulling from us. Only valid direct
// children of prefix are followed, each at most once, so a peer
// echoing prefixes back or repeating them cannot make the walk loop.
// The walk goes on past a failed subtree and returns the first error.
func (sy *Syncer) walk(ctx context.Context, peer *Client, prefix string, leaf func(string) error) error {
	if len(prefix) == store.MerkleDepth {
		return leaf(prefix)
	}
	peerDs, err := peer.Digests(ctx, prefix)
	if err != nil {
		return err
	}
	localDs, err := sy.Store.Digests(prefix, len(prefix)+1)
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
		if d.Count == 0 || d == local[d.Prefix] {
			continue
		}
		if err := sy.walk(ctx, peer, d.Prefix, leaf); err != nil && first == nil {
			first = err
		}
	}
	return first
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
