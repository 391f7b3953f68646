package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rtm/internal/trace"
)

// testRecord builds a valid record whose fingerprint is derived from
// i (content-addressing is the caller's concern; the store treats the
// fingerprint as an opaque 64-hex key).
func testRecord(i int) *Record {
	fp := fmt.Sprintf("%064x", i+1)
	if i%3 == 2 {
		return &Record{Fingerprint: fp, Feasible: false, Elements: 2, Source: "exact"}
	}
	return &Record{
		Fingerprint: fp, Feasible: true, Elements: 3,
		Slots: []int{0, -1, i % 3, 1}, Source: "heuristic", Unix: 1754_000_000,
	}
}

func openT(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestStoreRoundTripAndReopen(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	const n = 7
	for i := 0; i < n; i++ {
		if err := s.Put(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != n {
		t.Fatalf("Len = %d, want %d", s.Len(), n)
	}
	// identical re-put is a no-op on the log
	before := s.Bytes()
	if err := s.Put(testRecord(0)); err != nil {
		t.Fatal(err)
	}
	if s.Bytes() != before {
		t.Fatal("identical re-put grew the log")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openT(t, dir)
	if s2.Len() != n || s2.Bytes() != before || s2.CorruptSkipped() != 0 {
		t.Fatalf("reopen: len=%d bytes=%d corrupt=%d", s2.Len(), s2.Bytes(), s2.CorruptSkipped())
	}
	for i := 0; i < n; i++ {
		want := testRecord(i)
		got, ok := s2.Get(want.Fingerprint)
		if !ok {
			t.Fatalf("record %d missing after reopen", i)
		}
		if !sameRecord(got, want) {
			t.Fatalf("record %d: got %+v want %+v", i, got, want)
		}
		// Get hands out copies: mutating one must not poison the index
		if len(got.Slots) > 0 {
			got.Slots[0] = 999
			again, _ := s2.Get(want.Fingerprint)
			if again.Slots[0] == 999 {
				t.Fatal("Get aliases index memory")
			}
		}
	}
	if _, ok := s2.Get(strings.Repeat("f", 64)); ok {
		t.Fatal("Get invented a record")
	}
}

// TestStoreCrashInjection is the satellite durability test: simulate
// a kill at every possible byte offset of the log (the crash leaves
// an arbitrary prefix), reopen, and assert the recovered index is
// exactly the set of fully framed records — no more, no fewer, and
// never a panic.
func TestStoreCrashInjection(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	const n = 5
	boundaries := []int64{0}
	for i := 0; i < n; i++ {
		if err := s.Put(testRecord(i)); err != nil {
			t.Fatal(err)
		}
		boundaries = append(boundaries, s.Bytes())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(data)) != boundaries[n] {
		t.Fatalf("log is %d bytes, boundaries say %d", len(data), boundaries[n])
	}

	for cut := 0; cut <= len(data); cut++ {
		complete := 0
		for _, b := range boundaries[1:] {
			if b <= int64(cut) {
				complete++
			}
		}
		cutDir := t.TempDir()
		if err := os.WriteFile(filepath.Join(cutDir, logName), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		cs, err := Open(cutDir, Options{})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if cs.Len() != complete {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, cs.Len(), complete)
		}
		torn := int64(cut) != boundaries[complete]
		if torn && cs.CorruptSkipped() != 1 {
			t.Fatalf("cut %d: torn tail not counted", cut)
		}
		if !torn && cs.CorruptSkipped() != 0 {
			t.Fatalf("cut %d: clean log counted as corrupt", cut)
		}
		if cs.Bytes() != boundaries[complete] {
			t.Fatalf("cut %d: clean prefix %d, want %d", cut, cs.Bytes(), boundaries[complete])
		}
		// recovery must leave an appendable log: add a record and
		// reopen once more
		if err := cs.Put(testRecord(n)); err != nil {
			t.Fatalf("cut %d: append after recovery: %v", cut, err)
		}
		if err := cs.Close(); err != nil {
			t.Fatal(err)
		}
		cs2, err := Open(cutDir, Options{})
		if err != nil {
			t.Fatalf("cut %d: reopen after append: %v", cut, err)
		}
		if cs2.Len() != complete+1 || cs2.CorruptSkipped() != 0 {
			t.Fatalf("cut %d: after append len=%d corrupt=%d, want %d/0",
				cut, cs2.Len(), cs2.CorruptSkipped(), complete+1)
		}
		if _, ok := cs2.Get(testRecord(n).Fingerprint); !ok {
			t.Fatalf("cut %d: appended record lost", cut)
		}
		cs2.Close()
	}
}

func TestStoreCorruptByteSkipsTail(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	boundaries := []int64{0}
	for i := 0; i < 3; i++ {
		if err := s.Put(testRecord(i)); err != nil {
			t.Fatal(err)
		}
		boundaries = append(boundaries, s.Bytes())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, logName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// flip one payload byte inside the second record
	data[boundaries[1]+headerLen+2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	s2 := openT(t, dir)
	if s2.Len() != 1 {
		t.Fatalf("recovered %d records past a corrupt frame, want 1", s2.Len())
	}
	if s2.CorruptSkipped() != 1 {
		t.Fatalf("corrupt skipped = %d, want 1", s2.CorruptSkipped())
	}
	if _, ok := s2.Get(testRecord(1).Fingerprint); ok {
		t.Fatal("corrupt record served")
	}
	if s2.Bytes() != boundaries[1] {
		t.Fatalf("clean prefix %d, want %d", s2.Bytes(), boundaries[1])
	}
}

func TestStoreDropAndCompact(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	const n = 6
	for i := 0; i < n; i++ {
		if err := s.Put(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	// overwrite one fingerprint with a new outcome: log grows, index
	// keeps the latest
	upd := testRecord(0)
	upd.Source = "exact"
	if err := s.Put(upd); err != nil {
		t.Fatal(err)
	}
	s.Drop(testRecord(1).Fingerprint)
	if s.Len() != n-1 {
		t.Fatalf("Len after drop = %d", s.Len())
	}
	grown := s.Bytes()
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if s.Bytes() >= grown {
		t.Fatalf("compaction did not shrink the log: %d -> %d", grown, s.Bytes())
	}
	if got, _ := s.Get(upd.Fingerprint); got == nil || got.Source != "exact" {
		t.Fatalf("compaction lost the latest version: %+v", got)
	}
	// the store stays appendable after the rename swap
	if err := s.Put(testRecord(n)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openT(t, dir)
	if s2.Len() != n || s2.CorruptSkipped() != 0 {
		t.Fatalf("after compact+append: len=%d corrupt=%d, want %d/0", s2.Len(), s2.CorruptSkipped(), n)
	}
	if _, ok := s2.Get(testRecord(1).Fingerprint); ok {
		t.Fatal("dropped record survived compaction")
	}
	fps := s2.Fingerprints()
	if len(fps) != n || !sort_IsSorted(fps) {
		t.Fatalf("Fingerprints() = %v", fps)
	}
}

func sort_IsSorted(xs []string) bool {
	for i := 1; i < len(xs); i++ {
		if xs[i-1] > xs[i] {
			return false
		}
	}
	return true
}

func TestStorePutRejectsInvalid(t *testing.T) {
	s := openT(t, t.TempDir())
	bad := &Record{Fingerprint: "nope", Feasible: true, Elements: 1, Slots: []int{0}}
	if err := s.Put(bad); err == nil {
		t.Fatal("invalid record accepted")
	}
	if s.Len() != 0 || s.Bytes() != 0 {
		t.Fatal("rejected record left bytes behind")
	}
}

func TestStoreClosedOps(t *testing.T) {
	s := openT(t, t.TempDir())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	if err := s.Put(testRecord(0)); err == nil {
		t.Fatal("Put on closed store succeeded")
	}
	if err := s.Compact(); err == nil {
		t.Fatal("Compact on closed store succeeded")
	}
}

func TestScanSegmentCallbackError(t *testing.T) {
	payload, err := trace.EncodeStoreRecord(testRecord(0))
	if err != nil {
		t.Fatal(err)
	}
	buf, err := Frame(payload)
	if err != nil {
		t.Fatal(err)
	}
	wantErr := fmt.Errorf("sentinel")
	_, _, err = ScanFrames(bytes.NewReader(buf), func([]byte) error { return wantErr })
	if err != wantErr {
		t.Fatalf("err = %v, want sentinel", err)
	}
}
