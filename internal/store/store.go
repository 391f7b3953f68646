// Package store is the durable tier of the scheduling service: a
// disk-backed, content-addressed store of decided scheduling
// outcomes, keyed by the canonical model fingerprint
// (core.Fingerprint). Synthesis is NP-hard and the run-time model is
// static, so a decided verdict is a write-once artifact — persisting
// it turns every future restart's cold search into a log replay.
//
// On disk the store is two append-only logs of JSON records in
// segment framing: store.log holds verdicts, memo.log (memo.go) the
// refutation cache. Both are a Log (segment.go), the one type that
// owns the crash contract, which the async queue's journal shares.
// Open replays store.log into an in-memory index (fingerprint →
// record, last write wins); Put appends one framed record and fsyncs;
// Compact rewrites the live index through the Log's temporary file and
// atomic rename, so readers of the directory never observe a
// half-written log.
//
// Durability invariants:
//
//   - Prefix property: after any crash, Open recovers exactly the
//     records whose frames were fully written — a kill mid-append
//     costs at most the record being appended, never the log.
//   - No panic on any input: arbitrary log bytes produce a shorter
//     clean prefix, not a crash (FuzzStoreDecode).
//   - The store is a cache, not an oracle: records carry no proof, so
//     loaders must re-verify every schedule against the requesting
//     model before serving it. CRC catches flipped bits; the loader's
//     re-verification catches everything CRC cannot (a well-framed
//     record with wrong content can cost a miss, never a wrong
//     schedule).
//   - A NO cannot be re-verified cheaply (by Theorem 2 exhaustive
//     search has no short certificate), so only this node's own disk
//     may hold one: it is trusted behind its CRC framing, and a NO
//     never crosses the wire in either direction (merkle.go).
package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"rtm/internal/trace"
)

// Record is the store's record type — the trace wire form, so
// external tooling can decode segments with the same schema.
type Record = trace.StoreRecordJSON

// logName is the active segment log inside the store directory.
const logName = "store.log"

// Options configure a Store.
type Options struct {
	// NoSync skips the fsync after each append. Throughput-friendly
	// for tests and benchmarks; a crash may then lose recently
	// appended records (but never corrupt the recovered prefix).
	NoSync bool
	// MemoSigCap bounds the signatures kept per memo class (zero or
	// negative = DefaultMemoSigCap). Truncation keeps the
	// byte-wise largest signatures — the deepest refuted subtrees —
	// and is independent of merge order.
	MemoSigCap int
}

// Store is a durable schedule store. All methods are safe for
// concurrent use.
type Store struct {
	dir string
	opt Options

	mu      sync.Mutex
	log     *Log               // store.log
	index   map[string]*Record // fingerprint → latest record
	corrupt int64              // discard events observed while scanning
	closed  bool

	// Memo tier (memo.go): the refutation-cache log, kept as a second
	// segment file so a memo record can never masquerade as a verdict.
	memoLog  *Log
	memo     map[string]*MemoRecord // memo key → record
	fpKey    map[string]string      // fingerprint → memo key
	frameLen map[string]int64       // memo key → live frame bytes
	memoLive int64                  // framed bytes of the live memo index

	// Merkle leaf state (merkle.go): the fingerprints of the feasible
	// records — the only ones that replicate — partitioned by leaf
	// prefix with cached leaf digests, maintained incrementally by
	// every index mutation.
	vleaf leafSet
}

// Open opens (creating if necessary) the store rooted at dir,
// replaying both logs into the index and truncating any torn or
// corrupt tail to the clean prefix.
func Open(dir string, opt Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir: dir, opt: opt, index: make(map[string]*Record),
		memo: make(map[string]*MemoRecord), fpKey: make(map[string]string), frameLen: make(map[string]int64),
	}
	var dropped bool
	var err error
	s.log, dropped, err = OpenLog(filepath.Join(dir, logName), opt.NoSync, func(payload []byte, _ int64) error {
		r, err := trace.DecodeStoreRecord(payload)
		if err != nil {
			return err
		}
		s.indexLocked(r)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if dropped {
		s.corrupt++
	}
	s.memoLog, dropped, err = OpenLog(filepath.Join(dir, memoLogName), opt.NoSync, func(payload []byte, n int64) error {
		r, err := trace.DecodeMemoRecord(payload)
		if err != nil {
			return err
		}
		// last write wins: appends for a key are cumulative merges,
		// so the latest record supersedes the earlier ones
		s.indexMemoLocked(r, n)
		return nil
	})
	if err != nil {
		s.log.Close()
		return nil, fmt.Errorf("store: %w", err)
	}
	if dropped {
		s.corrupt++
	}
	return s, nil
}

// Get returns a copy of the record for fingerprint fp, if present.
func (s *Store) Get(fp string) (*Record, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.index[fp]
	if !ok {
		return nil, false
	}
	cp := *r
	cp.Slots = append([]int(nil), r.Slots...)
	return &cp, true
}

// Put appends a record to the log and indexes it. Re-putting a record
// identical to the indexed one is a no-op, so write-through on warm
// traffic does not grow the log. The record is validated before any
// byte is written.
func (s *Store) Put(rec *Record) error {
	payload, err := trace.EncodeStoreRecord(rec)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	if old, ok := s.index[rec.Fingerprint]; ok && sameRecord(old, rec) {
		return nil
	}
	if _, err := s.log.Append(payload); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	cp := *rec
	cp.Slots = append([]int(nil), rec.Slots...)
	s.indexLocked(&cp)
	return nil
}

// indexLocked makes r the live record of its fingerprint. Only a
// feasible record is a member of the Merkle tree: its schedule is a
// certificate any receiver re-checks, while a NO has none short enough
// to check, so a NO never replicates.
func (s *Store) indexLocked(r *Record) {
	s.index[r.Fingerprint] = r
	if r.Feasible {
		s.vleaf.add(r.Fingerprint)
	} else {
		s.vleaf.remove(r.Fingerprint)
	}
}

// sameRecord reports whether two records carry the same outcome
// (timestamps excluded — they are informational).
func sameRecord(a, b *Record) bool {
	if a.Feasible != b.Feasible || a.Elements != b.Elements || a.Source != b.Source || len(a.Slots) != len(b.Slots) {
		return false
	}
	for i := range a.Slots {
		if a.Slots[i] != b.Slots[i] {
			return false
		}
	}
	return true
}

// Drop removes fp from the in-memory index, so it can no longer be
// served. The log is not rewritten — a dropped record disappears from
// disk at the next Compact. Loaders call this when a record fails
// re-verification; because every load is re-verified, a record that
// resurfaces on restart still can never be served, only re-dropped.
func (s *Store) Drop(fp string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.index, fp)
	s.vleaf.remove(fp)
}

// Compact rewrites both logs to exactly the live index (one record per
// fingerprint or memo class, sorted) through Log.Rewrite, so a crash
// during compaction leaves either the old or the new log, never a
// mixture.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: closed")
	}
	err := s.log.Rewrite(func(put func([]byte) error) error {
		for _, fp := range sortedKeys(s.index) {
			payload, err := trace.EncodeStoreRecord(s.index[fp])
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
		return fmt.Errorf("store: compact: %w", err)
	}
	return s.compactMemoLocked()
}

// Close flushes and closes the log. The store is unusable afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.log.Close()
	if merr := s.memoLog.Close(); err == nil {
		err = merr
	}
	return err
}

// Len returns the number of indexed records.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Bytes returns the clean length of the segment log.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.Size()
}

// CorruptSkipped returns how many torn-or-corrupt-tail discard events
// this store has observed while scanning its log.
func (s *Store) CorruptSkipped() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.corrupt
}

// Fingerprints returns the indexed fingerprints in sorted order.
func (s *Store) Fingerprints() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return sortedKeys(s.index)
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
