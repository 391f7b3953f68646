package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"

	"rtm/internal/trace"
)

// The memo tier: a durable refutation cache beside the verdict log.
// Where store.log answers "WHAT was decided" (one verdict per
// canonical fingerprint), memo.log answers "WHY it was refuted" — the
// exact search's exported transposition table, keyed by the memo-class
// key (exact.MemoKey) so any later search of a structurally identical
// problem starts pre-pruned. Records live in their own segment file
// with the same CRC framing and longest-clean-prefix recovery as the
// verdict log; a separate file (not a tagged record in store.log)
// because the two record types share no schema and a memo payload must
// never be decodable as a verdict.
//
// Unlike verdicts, memo records are cumulative: PutMemo merges the new
// signature set into the class's existing one. The merge is a union
// followed by keep-the-cap-largest truncation (signatures sort
// descending; the first encoded field is the remaining-subtree size),
// which is order-independent — merging A then B equals merging B then
// A — so anti-entropy replication converges regardless of pull order.
//
// Soundness is inherited, not enforced: a seeded signature prunes a
// subtree only on an exact byte match against the search's own
// signature builder, so a corrupt, truncated, or malicious record that
// survives CRC and structural validation can cost wasted table memory,
// never a verdict (the poisoned-seed differential test pins this).

// MemoRecord is the memo tier's record type — the trace wire form, so
// external tooling can decode memo segments with the same schema.
type MemoRecord = trace.MemoRecordJSON

// memoLogName is the memo segment log inside the store directory.
const memoLogName = "memo.log"

// DefaultMemoSigCap bounds the signatures kept per memo class when
// Options.MemoSigCap is zero. At typical signature sizes (tens of
// bytes) a full class costs ~200 KB framed — small enough to pull
// whole leaves during sync, large enough to hold every refutation the
// bench workloads derive.
const DefaultMemoSigCap = 4096

// memoCompactMin is the memo log size below which auto-compaction
// never triggers (compacting tiny logs is churn, not reclamation).
const memoCompactMin = 1 << 20

func (s *Store) sigCap() int {
	if s.opt.MemoSigCap == 0 {
		return DefaultMemoSigCap
	}
	if s.opt.MemoSigCap < 0 {
		return int(^uint(0) >> 1)
	}
	return s.opt.MemoSigCap
}

// scanMemoSegment reads framed memo records from r: ScanFrames plus
// the memo decode step, with the same prefix-property semantics as
// scanSegment.
func scanMemoSegment(r io.Reader, fn func(*MemoRecord) error) (valid int64, dropped bool, err error) {
	var fnErr error
	valid, dropped, err = ScanFrames(r, func(payload []byte) error {
		rec, derr := trace.DecodeMemoRecord(payload)
		if derr != nil {
			return errUndecodable
		}
		if ferr := fn(rec); ferr != nil {
			fnErr = ferr
			return ferr
		}
		return nil
	})
	switch {
	case err == errUndecodable:
		return valid, true, nil
	case fnErr != nil:
		return valid, false, fnErr
	default:
		return valid, dropped, err
	}
}

// openMemoLog replays (creating if necessary) the memo segment log —
// called by Open with the store lock not yet shared.
func (s *Store) openMemoLog() error {
	path := filepath.Join(s.dir, memoLogName)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.memo = make(map[string]*MemoRecord)
	s.fpKey = make(map[string]string)
	s.frameLen = make(map[string]int64)
	valid, dropped, err := scanMemoSegment(bufio.NewReader(f), func(r *MemoRecord) error {
		// last write wins: appends for a key are cumulative merges,
		// so the latest record supersedes the earlier ones
		s.indexMemoLocked(r)
		return nil
	})
	if err != nil {
		f.Close()
		return fmt.Errorf("store: replaying %s: %w", path, err)
	}
	if dropped {
		s.corrupt++
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("store: %w", err)
	}
	if fi.Size() != valid {
		if err := f.Truncate(valid); err != nil {
			f.Close()
			return fmt.Errorf("store: truncating torn memo tail: %w", err)
		}
	}
	if _, err := f.Seek(valid, io.SeekStart); err != nil {
		f.Close()
		return fmt.Errorf("store: %w", err)
	}
	s.memoF = f
	s.memoB = valid
	return nil
}

// indexMemoLocked installs rec as the live record of its key and
// maintains the fingerprint reverse index and live-byte accounting.
func (s *Store) indexMemoLocked(rec *MemoRecord) {
	if old, ok := s.memo[rec.Key]; ok {
		s.memoLive -= s.frameLen[rec.Key]
		for _, fp := range old.Fingerprints {
			delete(s.fpKey, fp)
		}
	}
	s.memo[rec.Key] = rec
	s.mleaf.touch(rec.Key)
	fl := memoFrameLen(rec)
	s.frameLen[rec.Key] = fl
	s.memoLive += fl
	for _, fp := range rec.Fingerprints {
		s.fpKey[fp] = rec.Key
	}
}

// memoFrameLen estimates rec's framed size (exact when encoding
// succeeds; records reaching the index always encode).
func memoFrameLen(rec *MemoRecord) int64 {
	payload, err := trace.EncodeMemoRecord(rec)
	if err != nil {
		return 0
	}
	return headerLen + int64(len(payload))
}

// PutMemo merges sigs (and the observed fingerprints) into the memo
// class key, appending the merged record to the memo log. Signatures
// that are empty or oversized are skipped; a merge that changes
// nothing is a no-op that writes no byte. The merged signature set is
// the union truncated to the per-class cap, largest first.
func (s *Store) PutMemo(key string, fps []string, sigs [][]byte) error {
	changed, err := s.putMemo(key, fps, sigs)
	_ = changed
	return err
}

func (s *Store) putMemo(key string, fps []string, sigs [][]byte) (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false, fmt.Errorf("store: closed")
	}
	old := s.memo[key]
	merged := mergeMemo(key, old, fps, sigs, s.sigCap())
	if merged == nil || (old != nil && sameMemo(old, merged)) {
		return false, nil
	}
	payload, err := encodeMemoBounded(merged)
	if err != nil {
		return false, err
	}
	frame, err := Frame(payload)
	if err != nil {
		return false, err
	}
	if _, err := s.memoF.Write(frame); err != nil {
		return false, fmt.Errorf("store: memo append: %w", err)
	}
	if !s.opt.NoSync {
		if err := s.memoF.Sync(); err != nil {
			return false, fmt.Errorf("store: memo sync: %w", err)
		}
	}
	s.indexMemoLocked(merged)
	s.memoB += int64(len(frame))
	// size-bounded reclamation: rewritten classes leave dead frames
	// behind; compact once the log carries 4x the live set
	if s.memoB > memoCompactMin && s.memoB > 4*s.memoLive {
		if err := s.compactMemoLocked(); err != nil {
			return true, err
		}
	}
	return true, nil
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
	return s.memoB
}

// MemoKeys returns the indexed class keys in sorted order.
func (s *Store) MemoKeys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.memo))
	for k := range s.memo {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// compactMemoLocked rewrites the memo log to exactly the live index
// via a temporary file and atomic rename (same crash contract as
// Compact). Caller holds s.mu.
func (s *Store) compactMemoLocked() error {
	path := filepath.Join(s.dir, memoLogName)
	tmp := path + ".tmp"
	tf, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("store: memo compact: %w", err)
	}
	w := bufio.NewWriter(tf)
	var size int64
	keys := make([]string, 0, len(s.memo))
	for k := range s.memo {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		payload, err := encodeMemoBounded(s.memo[k])
		if err == nil {
			var frame []byte
			frame, err = Frame(payload)
			if err == nil {
				_, err = w.Write(frame)
				size += int64(len(frame))
			}
		}
		if err != nil {
			tf.Close()
			os.Remove(tmp)
			return fmt.Errorf("store: memo compact: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		tf.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: memo compact: %w", err)
	}
	if err := tf.Sync(); err != nil {
		tf.Close()
		os.Remove(tmp)
		return fmt.Errorf("store: memo compact: %w", err)
	}
	if err := tf.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: memo compact: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: memo compact: %w", err)
	}
	syncDir(s.dir)
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("store: memo compact: reopening: %w", err)
	}
	if _, err := f.Seek(size, io.SeekStart); err != nil {
		f.Close()
		return fmt.Errorf("store: memo compact: %w", err)
	}
	s.memoF.Close()
	s.memoF = f
	s.memoB = size
	return nil
}

// writeMemoRecordDigest streams one record's digest content into a
// Merkle leaf hash: the key, the fingerprint set, and every
// signature, all length-prefixed. Unlike the verdict digest (a set of
// fingerprints), memo records mutate by merging, so the digest must
// cover record content for replicas to detect divergence; Unix is
// excluded so converged replicas agree.
func writeMemoRecordDigest(h io.Writer, r *MemoRecord) {
	if r == nil {
		return
	}
	var buf [binary.MaxVarintLen64]byte
	wInt := func(v int) {
		n := binary.PutUvarint(buf[:], uint64(v))
		h.Write(buf[:n])
	}
	h.Write([]byte(r.Key))
	wInt(len(r.Fingerprints))
	for _, fp := range r.Fingerprints {
		h.Write([]byte(fp))
	}
	wInt(len(r.Sigs))
	for _, sg := range r.Sigs {
		wInt(len(sg))
		h.Write(sg)
	}
}

// ImportMemoFrames replays a sealed memo segment, merging each record
// into the local class (union + cap, the same convergent rule as
// PutMemo — so unlike verdict import there is no first-write-wins:
// both sides' signatures survive). Validation is the same
// longest-clean-prefix scan as the on-disk log; a torn or undecodable
// tail sets Dropped and keeps the clean prefix. Imported counts
// classes whose local record changed; Unchanged counts records that
// added nothing new.
func (s *Store) ImportMemoFrames(data []byte) (ImportStats, error) {
	var st ImportStats
	if len(data) > maxSegmentLen {
		data = data[:maxSegmentLen:maxSegmentLen]
		st.Dropped = true
	}
	var recs []*MemoRecord
	_, dropped, err := scanMemoSegment(bytes.NewReader(data), func(r *MemoRecord) error {
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		return st, fmt.Errorf("store: memo import: %w", err)
	}
	st.Dropped = st.Dropped || dropped
	for _, rec := range recs {
		changed, err := s.putMemo(rec.Key, rec.Fingerprints, rec.Sigs)
		if err != nil {
			return st, err
		}
		if changed {
			st.Imported++
		} else {
			st.Unchanged++
		}
	}
	return st, nil
}
