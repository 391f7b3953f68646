package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"sort"

	"rtm/internal/trace"
)

// The store half of cluster replication: one Merkle tree over the
// fingerprints of the feasible records. Only those replicate: a
// feasible record carries its schedule, which the receiver re-checks
// against the requesting model before serving it, while a NO has no
// certificate short enough to check (Theorem 2), so it stays on the
// node that decided it. The first MerkleDepth hex nibbles of a
// fingerprint pick one of MerkleLeaves leaves, and the store keeps
// each leaf's sorted member set incrementally as records are put,
// imported, and dropped. A leaf's digest is SHA-256 over the
// concatenation of its fingerprints and is cached until a mutation
// marks the leaf stale. Every interior node's digest — the root's
// children included, which are the "manifest" two nodes compare first
// — is SHA-256 over the raw digests of its non-empty children in
// prefix order. So a query never re-streams records under the store
// lock: at most it re-hashes the stale leaves and then the cached leaf
// digests.
//
// Replication is pull-only and trustless. A peer walks another node's
// tree root-down (GET /cluster/digests/<prefix>), descends only into
// children whose digests differ, diffs divergent leaves as fingerprint
// sets and fetches exactly the missing records. Pulled bytes are
// sealed segments in the on-disk log's CRC frame format and go through
// the same longest-clean-prefix scan and record validation the store's
// own log gets on Open; ImportFrames then refuses every NO, whatever
// the peer claims, and a pulled schedule is re-verified against the
// requesting model before it is ever served, so a corrupt or malicious
// peer degrades to a miss, never a wrong verdict.

const (
	// MerkleDepth is the leaf depth of the tree, in hex nibbles of
	// the canonical fingerprint. Depth 3 yields 4096 leaves — a
	// handful of records per leaf at the store sizes the fleet
	// benches, so a divergent leaf costs a pull of a few records.
	MerkleDepth = 3
	// MerkleLeaves is the number of leaves, 16^MerkleDepth.
	MerkleLeaves = 1 << (4 * MerkleDepth)
)

// maxSegmentLen bounds a sealed segment a peer will accept, keeping a
// malicious peer from forcing an unbounded allocation.
const maxSegmentLen = 64 << 20

// maxFetchRecords bounds one record-subset fetch request — far above
// what leaf narrowing produces per round, low enough that a malicious
// request body cannot force an unbounded export.
const maxFetchRecords = 8192

func nibbleVal(c byte) int {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0')
	case c >= 'a' && c <= 'f':
		return int(c-'a') + 10
	}
	return -1
}

// LeafOf maps a canonical fingerprint to its Merkle leaf — the value
// of its first MerkleDepth hex nibbles. Invalid characters map to leaf
// 0: such keys cannot enter a store index, so the mapping only needs
// to be total, not forgiving.
func LeafOf(key string) int {
	leaf := 0
	for i := 0; i < MerkleDepth; i++ {
		if i >= len(key) {
			return 0
		}
		v := nibbleVal(key[i])
		if v < 0 {
			return 0
		}
		leaf = leaf<<4 | v
	}
	return leaf
}

// ValidPrefix reports whether p is a well-formed tree prefix: at most
// MerkleDepth lowercase hex nibbles (the empty prefix is the root).
func ValidPrefix(p string) bool {
	if len(p) > MerkleDepth {
		return false
	}
	for i := 0; i < len(p); i++ {
		if nibbleVal(p[i]) < 0 {
			return false
		}
	}
	return true
}

// leafRange returns the half-open leaf interval [lo, hi) covered by
// prefix p (caller has validated p).
func leafRange(p string) (lo, hi int) {
	v := 0
	for i := 0; i < len(p); i++ {
		v = v<<4 | nibbleVal(p[i])
	}
	span := 1 << (4 * (MerkleDepth - len(p)))
	return v * span, (v + 1) * span
}

// leafSet tracks the tree's fingerprints partitioned into Merkle
// leaves, with each leaf's digest cached. All methods assume the store
// lock is held.
type leafSet struct {
	items [MerkleLeaves][]string // sorted members per leaf
	// sum caches each leaf's raw SHA-256 digest; "" marks it stale.
	sum [MerkleLeaves]string
}

// add inserts key into its leaf, keeping the leaf sorted; a no-op if
// the key is already a member (digests are pure functions of the
// fingerprint SET, so a re-put of an indexed fingerprint moves
// nothing).
func (ls *leafSet) add(key string) {
	leaf := LeafOf(key)
	s := ls.items[leaf]
	i := sort.SearchStrings(s, key)
	if i < len(s) && s[i] == key {
		return
	}
	s = append(s, "")
	copy(s[i+1:], s[i:])
	s[i] = key
	ls.items[leaf] = s
	ls.sum[leaf] = ""
}

// remove deletes key from its leaf; a no-op if absent.
func (ls *leafSet) remove(key string) {
	leaf := LeafOf(key)
	s := ls.items[leaf]
	i := sort.SearchStrings(s, key)
	if i >= len(s) || s[i] != key {
		return
	}
	ls.items[leaf] = append(s[:i], s[i+1:]...)
	ls.sum[leaf] = ""
}

// node returns the member count and raw digest of the tree node
// covering leaves [lo, hi): a leaf's cached digest, or SHA-256 over
// the digests of the node's non-empty children. An empty node has
// count 0 and no meaningful digest.
func (ls *leafSet) node(lo, hi int) (int, string) {
	if hi-lo == 1 {
		if len(ls.items[lo]) > 0 && ls.sum[lo] == "" {
			h := sha256.New()
			for _, k := range ls.items[lo] {
				io.WriteString(h, k)
			}
			ls.sum[lo] = string(h.Sum(nil))
		}
		return len(ls.items[lo]), ls.sum[lo]
	}
	h := sha256.New()
	n := 0
	step := (hi - lo) / 16
	for c := lo; c < hi; c += step {
		if cn, cd := ls.node(c, c+step); cn > 0 {
			n += cn
			io.WriteString(h, cd)
		}
	}
	return n, string(h.Sum(nil))
}

// PrefixDigest summarizes the feasible records under one prefix node
// of the Merkle tree. The JSON keys are deliberately terse — digest
// narrowing is the hot wire path, and the whole point of the protocol
// is to keep its byte cost below a record pull. Two nodes agree on a
// prefix exactly when (count, digest) match.
type PrefixDigest struct {
	Prefix string `json:"p"`
	Count  int    `json:"n,omitempty"`
	Digest string `json:"d,omitempty"`
}

// DigestPrefixLen is the hex length Digests truncates digests below
// the top level to (64 bits). The top level decides "converged", so
// it keeps full-width SHA-256 digests; deeper digests only ROUTE
// pulls inside a top-level node already proved divergent. A collision
// there cannot corrupt anything (imports validate every byte
// regardless), it can only make one round pull too little, at ~2^-64
// odds per comparison. The truncation matters: digest bytes dominate
// the narrowing walk, and nearly-converged sync is exactly the regime
// where that walk is most of the wire cost.
const DigestPrefixLen = 16

// Digests returns the non-empty prefix nodes at the given depth under
// prefix, sorted by prefix. Depth counts nibbles from the root and
// must satisfy len(prefix) < depth <= MerkleDepth. Empty nodes are
// omitted — on the wire, absence means emptiness. Depth-1 digests are
// full width; deeper ones are truncated to DigestPrefixLen hex chars.
// Both sync sides compare through this method, so the truncation is
// symmetric.
func (s *Store) Digests(prefix string, depth int) ([]PrefixDigest, error) {
	if !ValidPrefix(prefix) {
		return nil, fmt.Errorf("store: invalid prefix %q", prefix)
	}
	if depth <= len(prefix) || depth > MerkleDepth {
		return nil, fmt.Errorf("store: depth %d outside (%d,%d]", depth, len(prefix), MerkleDepth)
	}
	width := DigestPrefixLen
	if depth == 1 {
		width = 2 * sha256.Size
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("store: closed")
	}
	span := 1 << (4 * (depth - len(prefix)))
	out := make([]PrefixDigest, 0, 16)
	for v := 0; v < span; v++ {
		node := prefix + fmt.Sprintf("%0*x", depth-len(prefix), v)
		if n, sum := s.vleaf.node(leafRange(node)); n > 0 {
			out = append(out, PrefixDigest{Prefix: node, Count: n, Digest: hex.EncodeToString([]byte(sum))[:width]})
		}
	}
	return out, nil
}

// LeafFingerprints returns the sorted fingerprints of the feasible
// records whose leaf falls under prefix — the set a peer diffs locally
// to decide which records to fetch. Prefix must be leaf depth: coarser
// set exchange is what the Merkle walk exists to avoid.
func (s *Store) LeafFingerprints(prefix string) ([]string, error) {
	if !ValidPrefix(prefix) || len(prefix) != MerkleDepth {
		return nil, fmt.Errorf("store: invalid leaf prefix %q", prefix)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("store: closed")
	}
	lo, _ := leafRange(prefix)
	return append([]string(nil), s.vleaf.items[lo]...), nil
}

// Missing returns the fingerprints in fps that the index lacks
// altogether, in order. A fingerprint held locally as a NO counts as
// present: it is not in the tree, but fetching a peer's record for it
// would only be skipped on import, round after round.
func (s *Store) Missing(fps []string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for _, fp := range fps {
		if _, ok := s.index[fp]; !ok {
			out = append(out, fp)
		}
	}
	return out
}

// ExportRecords seals the requested fingerprints' feasible records as
// a CRC-framed segment — the delta pull. Unknown fingerprints and NOs
// are skipped (the peer's view may be stale, and a NO never leaves the
// node that decided it), duplicates are collapsed, and the output is
// sorted, so the segment is byte-deterministic for a given request and
// store state. The request is bounded by maxFetchRecords and the
// segment by maxSegmentLen.
func (s *Store) ExportRecords(fps []string) ([]byte, int, error) {
	if len(fps) > maxFetchRecords {
		return nil, 0, fmt.Errorf("store: fetch of %d records exceeds %d", len(fps), maxFetchRecords)
	}
	want := append([]string(nil), fps...)
	sort.Strings(want)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, 0, fmt.Errorf("store: closed")
	}
	var buf []byte
	n := 0
	prev := ""
	for i, fp := range want {
		if i > 0 && fp == prev {
			continue
		}
		prev = fp
		rec, ok := s.index[fp]
		if !ok || !rec.Feasible {
			continue
		}
		payload, err := trace.EncodeStoreRecord(rec)
		if err == nil {
			buf, err = appendFrame(buf, payload)
		}
		if err != nil {
			return nil, 0, fmt.Errorf("store: export: %w", err)
		}
		if len(buf) > maxSegmentLen {
			return nil, 0, fmt.Errorf("store: fetch exceeds segment bound")
		}
		n++
	}
	return buf, n, nil
}

// decodeSegment decodes the clean prefix of a sealed segment from a
// peer, capped at maxSegmentLen, with the same scan and decode rule as
// store.log on Open. dropped reports a cut, torn, corrupt or
// undecodable tail.
func decodeSegment(data []byte) (recs []*Record, dropped bool) {
	if len(data) > maxSegmentLen {
		data, dropped = data[:maxSegmentLen], true
	}
	// a bytes.Reader cannot fail, so the scan returns no error
	_, torn, _ := scanClean(bytes.NewReader(data), func(payload []byte, _ int64) error {
		r, err := trace.DecodeStoreRecord(payload)
		if err == nil {
			recs = append(recs, r)
		}
		return err
	})
	return recs, dropped || torn
}

// ImportStats reports what an ImportFrames call did.
type ImportStats struct {
	// Imported counts records appended to the log and indexed.
	Imported int
	// Unchanged counts records skipped because the fingerprint was
	// already indexed locally (first write wins; the local record is
	// kept — serve-time re-verification makes the choice harmless).
	Unchanged int
	// Refused counts NOs skipped: a receiver cannot check one, so it
	// never indexes one from a peer.
	Refused int
	// Dropped reports that the segment had a torn, corrupt, or
	// undecodable tail; the clean prefix before it was still imported.
	Dropped bool
}

// ImportFrames replays a sealed segment from a peer into the store.
// The segment passes through exactly the validation the store's own
// log gets on Open — frame magic, length bound, CRC, record
// decode+validate — and the longest clean prefix wins: a corrupt frame
// ends the import with Dropped set and everything before it kept.
// Every NO is skipped (Refused), whatever its Source: only a feasible
// record carries a certificate this node can check. Records for
// fingerprints already indexed are skipped (Unchanged); new records are
// appended to the local log in one write and indexed, so they survive
// restarts and show up in this node's own digests and exports.
// ImportFrames never returns an error for bad segment content —
// malformed input is a shorter clean prefix, same as the on-disk log.
func (s *Store) ImportFrames(data []byte) (ImportStats, error) {
	var st ImportStats
	var recs []*Record
	recs, st.Dropped = decodeSegment(data)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return st, fmt.Errorf("store: closed")
	}
	var payloads [][]byte
	var fresh []*Record
	for _, rec := range recs {
		if !rec.Feasible {
			st.Refused++
			continue
		}
		if _, ok := s.index[rec.Fingerprint]; ok {
			st.Unchanged++
			continue
		}
		payload, err := trace.EncodeStoreRecord(rec)
		if err != nil {
			// the scan only yields records that decode+validate, so
			// re-encoding cannot fail; guard anyway and skip.
			st.Dropped = true
			continue
		}
		payloads = append(payloads, payload)
		fresh = append(fresh, rec)
	}
	if len(fresh) == 0 {
		return st, nil
	}
	if _, err := s.log.Append(payloads...); err != nil {
		return st, fmt.Errorf("store: import: %w", err)
	}
	for _, rec := range fresh {
		s.indexLocked(rec)
	}
	st.Imported = len(fresh)
	return st, nil
}
