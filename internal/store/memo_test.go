package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// memoKeyN builds a valid (64-hex) memo class key.
func memoKeyN(i int) string { return fmt.Sprintf("%064x", i+0x1000) }

// memoSigs builds n distinct signatures whose leading byte encodes a
// "size" so keep-cap-largest ordering is observable.
func memoSigs(start, n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("%03d-sig-%d", start+i, start+i))
	}
	return out
}

func TestMemoPutGetReopen(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	key := memoKeyN(1)
	fp := fmt.Sprintf("%064x", 7)
	if err := s.PutMemo(key, []string{fp}, memoSigs(0, 3)); err != nil {
		t.Fatal(err)
	}
	rec, ok := s.GetMemo(key)
	if !ok || len(rec.Sigs) != 3 || rec.Key != key {
		t.Fatalf("GetMemo: ok=%v rec=%+v", ok, rec)
	}
	if rec2, ok := s.MemoForFingerprint(fp); !ok || rec2.Key != key {
		t.Fatalf("MemoForFingerprint: ok=%v", ok)
	}
	if s.MemoLen() != 1 || s.MemoSigs() != 3 {
		t.Fatalf("MemoLen=%d MemoSigs=%d", s.MemoLen(), s.MemoSigs())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// restart: the memo tier replays from memo.log
	s2 := openT(t, dir)
	rec, ok = s2.GetMemo(key)
	if !ok || len(rec.Sigs) != 3 {
		t.Fatalf("after reopen: ok=%v rec=%+v", ok, rec)
	}
	if _, ok := s2.MemoForFingerprint(fp); !ok {
		t.Fatal("fingerprint index lost across reopen")
	}
}

func TestMemoMergeAccumulates(t *testing.T) {
	s := openT(t, t.TempDir())
	key := memoKeyN(2)
	if err := s.PutMemo(key, nil, memoSigs(0, 4)); err != nil {
		t.Fatal(err)
	}
	// overlapping second put: union, not replace
	if err := s.PutMemo(key, nil, memoSigs(2, 4)); err != nil {
		t.Fatal(err)
	}
	rec, _ := s.GetMemo(key)
	if len(rec.Sigs) != 6 {
		t.Fatalf("union has %d sigs, want 6", len(rec.Sigs))
	}
	// identical put is a no-op: no bytes appended
	before := s.MemoBytes()
	if err := s.PutMemo(key, nil, memoSigs(0, 6)); err != nil {
		t.Fatal(err)
	}
	if s.MemoBytes() != before {
		t.Fatalf("no-op merge appended bytes: %d -> %d", before, s.MemoBytes())
	}
	// empty and oversized signatures are skipped, never stored
	big := bytes.Repeat([]byte("x"), 5000)
	if err := s.PutMemo(key, nil, [][]byte{{}, big}); err != nil {
		t.Fatal(err)
	}
	rec, _ = s.GetMemo(key)
	for _, sg := range rec.Sigs {
		if len(sg) == 0 || len(sg) > 4096 {
			t.Fatalf("invalid signature stored: %d bytes", len(sg))
		}
	}
}

// TestMemoMergeOrderIndependent pins the convergence property the
// anti-entropy sync relies on: merging batches in any order, even under
// a cap that forces truncation, yields byte-identical records — so
// replicas pulling from each other in different orders end equal.
func TestMemoMergeOrderIndependent(t *testing.T) {
	key := memoKeyN(3)
	batches := [][][]byte{memoSigs(0, 10), memoSigs(5, 10), memoSigs(12, 10)}
	for _, cap := range []int{8, 1000} {
		merge := func(order []int) *MemoRecord {
			var rec *MemoRecord
			for _, i := range order {
				rec = mergeMemo(key, rec, nil, batches[i], cap)
			}
			return rec
		}
		a := merge([]int{0, 1, 2})
		b := merge([]int{2, 0, 1})
		c := merge([]int{1, 2, 0})
		if !sameMemo(a, b) || !sameMemo(b, c) {
			t.Fatalf("cap=%d: merge order changed the record", cap)
		}
		if cap == 8 && len(a.Sigs) != 8 {
			t.Fatalf("cap=8 kept %d sigs", len(a.Sigs))
		}
	}
}

// TestMemoSigCapKeepsLargest pins the truncation policy: under a cap
// the surviving signatures are the largest by bytes.Compare (the first
// encoded field is the remaining-subtree size, so deep refutations
// survive first).
func TestMemoSigCapKeepsLargest(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{MemoSigCap: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	key := memoKeyN(4)
	if err := s.PutMemo(key, nil, memoSigs(0, 10)); err != nil {
		t.Fatal(err)
	}
	rec, _ := s.GetMemo(key)
	if len(rec.Sigs) != 3 {
		t.Fatalf("cap=3 kept %d sigs", len(rec.Sigs))
	}
	want := memoSigs(7, 3) // 009, 008, 007 are the largest, descending
	for i, sg := range rec.Sigs {
		if !bytes.Equal(sg, want[2-i]) {
			t.Fatalf("sig %d = %q, want %q", i, sg, want[2-i])
		}
	}
}

func TestMemoCompact(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	key := memoKeyN(5)
	// every put rewrites the whole class: dead frames accumulate
	for i := 0; i < 20; i++ {
		if err := s.PutMemo(key, nil, memoSigs(i, 1)); err != nil {
			t.Fatal(err)
		}
	}
	before := s.MemoBytes()
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	after := s.MemoBytes()
	if after >= before {
		t.Fatalf("compaction did not shrink the memo log: %d -> %d", before, after)
	}
	rec, ok := s.GetMemo(key)
	if !ok || len(rec.Sigs) != 20 {
		t.Fatalf("content lost by compaction: ok=%v sigs=%d", ok, len(rec.Sigs))
	}
	// compaction leaves an appendable log that survives reopen
	if err := s.PutMemo(key, nil, memoSigs(100, 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openT(t, dir)
	if rec, ok := s2.GetMemo(key); !ok || len(rec.Sigs) != 21 {
		t.Fatalf("after compact+append+reopen: ok=%v sigs=%d", ok, len(rec.Sigs))
	}
}

// TestMemoCrashInjection cuts the memo log at every byte offset and
// asserts the store recovers exactly the complete-record prefix, stays
// appendable, and counts the torn tail — the same contract the verdict
// log pins in TestStoreCrashInjection.
func TestMemoCrashInjection(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	const n = 4
	boundaries := []int64{0}
	for i := 0; i < n; i++ {
		// distinct keys so each append is one record and recovery
		// counts are unambiguous
		if err := s.PutMemo(memoKeyN(10+i), nil, memoSigs(i*3, 2)); err != nil {
			t.Fatal(err)
		}
		boundaries = append(boundaries, s.MemoBytes())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, memoLogName))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(data)) != boundaries[n] {
		t.Fatalf("memo log is %d bytes, boundaries say %d", len(data), boundaries[n])
	}

	for cut := 0; cut <= len(data); cut++ {
		complete := 0
		for _, b := range boundaries[1:] {
			if b <= int64(cut) {
				complete++
			}
		}
		cutDir := t.TempDir()
		if err := os.WriteFile(filepath.Join(cutDir, memoLogName), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		cs, err := Open(cutDir, Options{})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if cs.MemoLen() != complete {
			t.Fatalf("cut %d: recovered %d classes, want %d", cut, cs.MemoLen(), complete)
		}
		torn := int64(cut) != boundaries[complete]
		if torn && cs.CorruptSkipped() != 1 {
			t.Fatalf("cut %d: torn tail not counted", cut)
		}
		if !torn && cs.CorruptSkipped() != 0 {
			t.Fatalf("cut %d: clean log counted as corrupt", cut)
		}
		if cs.MemoBytes() != boundaries[complete] {
			t.Fatalf("cut %d: clean prefix %d, want %d", cut, cs.MemoBytes(), boundaries[complete])
		}
		// recovery must leave an appendable log
		if err := cs.PutMemo(memoKeyN(99), nil, memoSigs(50, 1)); err != nil {
			t.Fatalf("cut %d: append after recovery: %v", cut, err)
		}
		if err := cs.Close(); err != nil {
			t.Fatal(err)
		}
		cs2, err := Open(cutDir, Options{})
		if err != nil {
			t.Fatalf("cut %d: reopen after append: %v", cut, err)
		}
		if cs2.MemoLen() != complete+1 {
			t.Fatalf("cut %d: %d classes after append, want %d", cut, cs2.MemoLen(), complete+1)
		}
		cs2.Close()
	}
}
