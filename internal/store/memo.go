package store

import (
	"bytes"
	"fmt"
	"sort"

	"rtm/internal/trace"
)

// The memo tier: a durable refutation cache beside the verdict log.
// Where store.log answers "WHAT was decided" (one verdict per
// canonical fingerprint), memo.log answers "WHY it was refuted" — the
// exact search's exported transposition table, keyed by the memo-class
// key (exact.MemoKey) so any later search of a structurally identical
// problem starts pre-pruned. Records live in their own Log
// (segment.go), with the same framing, recovery and rewrite as the
// verdict log; a separate file (not a tagged record in store.log)
// because the two record types share no schema and a memo payload must
// never be decodable as a verdict. Merges leave superseded frames
// behind, so the memo log compacts itself under Log.Bloated.
//
// Unlike verdicts, memo records are cumulative: PutMemo merges the new
// signature set into the class's existing one. The merge is a union
// followed by keep-the-cap-largest truncation (signatures sort
// descending; the first encoded field is the remaining-subtree size),
// which is order-independent — merging A then B equals merging B then
// A.
//
// The memo tier is local: it is not replicated, because no receiver
// could check a refutation seed short of redoing the search it saves.
// memo.log is trusted behind its CRC framing like store.log. A seeded
// signature prunes a subtree only on an exact byte match against the
// search's own signature builder, so a damaged record that survives
// CRC and structural validation costs wasted table memory (the
// poisoned-seed differential test pins this).

// MemoRecord is the memo tier's record type — the trace wire form, so
// external tooling can decode memo segments with the same schema.
type MemoRecord = trace.MemoRecordJSON

// memoLogName is the memo segment log inside the store directory.
const memoLogName = "memo.log"

// DefaultMemoSigCap bounds the signatures kept per memo class when
// Options.MemoSigCap is zero. At typical signature sizes (tens of
// bytes) a full class costs ~200 KB framed — small, and large enough
// to hold every refutation the bench workloads derive.
const DefaultMemoSigCap = 4096

func (s *Store) sigCap() int {
	if s.opt.MemoSigCap <= 0 {
		return DefaultMemoSigCap
	}
	return s.opt.MemoSigCap
}

// indexMemoLocked installs rec, whose frame occupies n log bytes, as
// the live record of its key and maintains the fingerprint reverse
// index and live-byte accounting.
func (s *Store) indexMemoLocked(rec *MemoRecord, n int64) {
	if old, ok := s.memo[rec.Key]; ok {
		s.memoLive -= s.frameLen[rec.Key]
		for _, fp := range old.Fingerprints {
			delete(s.fpKey, fp)
		}
	}
	s.memo[rec.Key] = rec
	s.frameLen[rec.Key] = n
	s.memoLive += n
	for _, fp := range rec.Fingerprints {
		s.fpKey[fp] = rec.Key
	}
}

// PutMemo merges sigs (and the observed fingerprints) into the memo
// class key, appending the merged record to the memo log. Signatures
// that are empty or oversized are skipped; a merge that changes
// nothing is a no-op that writes no byte. The merged signature set is
// the union truncated to the per-class cap, largest first.
func (s *Store) PutMemo(key string, fps []string, sigs [][]byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	old := s.memo[key]
	merged := mergeMemo(key, old, fps, sigs, s.sigCap())
	if merged == nil || (old != nil && sameMemo(old, merged)) {
		return nil
	}
	payload, err := encodeMemoBounded(merged)
	if err != nil {
		return err
	}
	n, err := s.memoLog.Append(payload)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.indexMemoLocked(merged, n)
	if s.memoLog.Bloated(s.memoLive) {
		return s.compactMemoLocked()
	}
	return nil
}

// mergeMemo builds the merged record for key, or nil when there is
// nothing storable. The result is independent of merge order: the
// signature set is union-then-keep-cap-largest and the fingerprint
// set union-then-keep-cap-smallest, both pure functions of the union.
func mergeMemo(key string, old *MemoRecord, fps []string, sigs [][]byte, cap int) *MemoRecord {
	sigSet := make(map[string]struct{})
	if old != nil {
		for _, sg := range old.Sigs {
			sigSet[string(sg)] = struct{}{}
		}
	}
	for _, sg := range sigs {
		if len(sg) == 0 || len(sg) > trace.MaxMemoSigLen {
			continue
		}
		sigSet[string(sg)] = struct{}{}
	}
	if len(sigSet) == 0 {
		return nil
	}
	outSigs := make([][]byte, 0, len(sigSet))
	for sg := range sigSet {
		outSigs = append(outSigs, []byte(sg))
	}
	sort.Slice(outSigs, func(i, j int) bool { return bytes.Compare(outSigs[i], outSigs[j]) > 0 })
	if len(outSigs) > cap {
		outSigs = outSigs[:cap]
	}
	fpSet := make(map[string]struct{})
	if old != nil {
		for _, fp := range old.Fingerprints {
			fpSet[fp] = struct{}{}
		}
	}
	for _, fp := range fps {
		if len(fp) == 64 {
			fpSet[fp] = struct{}{}
		}
	}
	outFps := make([]string, 0, len(fpSet))
	for fp := range fpSet {
		outFps = append(outFps, fp)
	}
	sort.Strings(outFps)
	if len(outFps) > trace.MaxMemoFingerprints {
		outFps = outFps[:trace.MaxMemoFingerprints]
	}
	rec := &MemoRecord{Key: key, Fingerprints: outFps, Sigs: outSigs}
	if old != nil {
		rec.Unix = old.Unix
	}
	return rec
}

// sameMemo reports whether two records carry the same signature and
// fingerprint sets (Unix excluded — informational).
func sameMemo(a, b *MemoRecord) bool {
	if len(a.Sigs) != len(b.Sigs) || len(a.Fingerprints) != len(b.Fingerprints) {
		return false
	}
	for i := range a.Sigs {
		if !bytes.Equal(a.Sigs[i], b.Sigs[i]) {
			return false
		}
	}
	for i := range a.Fingerprints {
		if a.Fingerprints[i] != b.Fingerprints[i] {
			return false
		}
	}
	return true
}

// encodeMemoBounded encodes rec, halving the signature set until the
// payload fits one frame — big classes lose their shallowest entries
// first, which is exactly the cap policy.
func encodeMemoBounded(rec *MemoRecord) ([]byte, error) {
	for {
		payload, err := trace.EncodeMemoRecord(rec)
		if err != nil {
			return nil, err
		}
		if len(payload) <= maxRecordLen {
			return payload, nil
		}
		if len(rec.Sigs) <= 1 {
			return nil, fmt.Errorf("store: memo record for %s cannot fit one frame", rec.Key)
		}
		cp := *rec
		cp.Sigs = rec.Sigs[:len(rec.Sigs)/2]
		rec = &cp
	}
}

// GetMemo returns the memo record for a class key. The signature
// slices are shared with the index — callers must not mutate them.
func (s *Store) GetMemo(key string) (*MemoRecord, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.memo[key]
	if !ok {
		return nil, false
	}
	cp := *r
	cp.Fingerprints = append([]string(nil), r.Fingerprints...)
	cp.Sigs = append([][]byte(nil), r.Sigs...)
	return &cp, true
}

// MemoForFingerprint resolves a canonical model fingerprint to its
// class's memo record via the reverse index.
func (s *Store) MemoForFingerprint(fp string) (*MemoRecord, bool) {
	s.mu.Lock()
	key, ok := s.fpKey[fp]
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	return s.GetMemo(key)
}

// MemoLen returns the number of memo classes indexed.
func (s *Store) MemoLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.memo)
}

// MemoSigs returns the total signature count across all classes.
func (s *Store) MemoSigs() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, r := range s.memo {
		n += len(r.Sigs)
	}
	return n
}

// MemoBytes returns the clean length of the memo segment log.
func (s *Store) MemoBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.memoLog.Size()
}

// MemoKeys returns the indexed class keys in sorted order.
func (s *Store) MemoKeys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return sortedKeys(s.memo)
}

// compactMemoLocked rewrites the memo log to exactly the live index
// (same crash contract as Compact). Caller holds s.mu.
func (s *Store) compactMemoLocked() error {
	err := s.memoLog.Rewrite(func(put func([]byte) error) error {
		for _, k := range sortedKeys(s.memo) {
			payload, err := encodeMemoBounded(s.memo[k])
			if err != nil {
				return err
			}
			if err := put(payload); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("store: memo compact: %w", err)
	}
	return nil
}
