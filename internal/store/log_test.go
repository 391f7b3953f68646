package store

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tornWriter writes the first half of one buffer and fails, as a full
// disk or an I/O error mid-write does; later writes pass through.
type tornWriter struct {
	w    io.Writer
	tore bool
}

func (tw *tornWriter) Write(p []byte) (int, error) {
	if tw.tore {
		return tw.w.Write(p)
	}
	tw.tore = true
	n, _ := tw.w.Write(p[:len(p)/2])
	return n, errors.New("injected write fault")
}

// TestLogAppendRollsBackTornWrite pins that a failed append cannot
// poison the log: the torn bytes it left are cut away before the next
// append, so every record acknowledged after the failure survives a
// reopen.
func TestLogAppendRollsBackTornWrite(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	for i := 0; i < 2; i++ {
		if err := s.Put(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	clean := s.Bytes()
	s.log.out = &tornWriter{w: s.log.f}
	if err := s.Put(testRecord(2)); err == nil {
		t.Fatal("torn append acknowledged")
	}
	if s.Bytes() != clean {
		t.Fatalf("failed append moved the clean end: %d -> %d", clean, s.Bytes())
	}
	for i := 3; i < 5; i++ {
		if err := s.Put(testRecord(i)); err != nil {
			t.Fatalf("append after a failed one: %v", err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2 := openT(t, dir)
	if s2.CorruptSkipped() != 0 || s2.Len() != 4 {
		t.Fatalf("reopen: len=%d corrupt=%d, want 4/0", s2.Len(), s2.CorruptSkipped())
	}
	for _, i := range []int{0, 1, 3, 4} {
		if got, ok := s2.Get(testRecord(i).Fingerprint); !ok || !sameRecord(got, testRecord(i)) {
			t.Fatalf("acknowledged record %d lost: %+v", i, got)
		}
	}
	if _, ok := s2.Get(testRecord(2).Fingerprint); ok {
		t.Fatal("the failed record was recovered")
	}
}

// goldenRecords and goldenMemoPuts are the write sequences behind the
// golden logs below: an overwritten verdict and a merged memo class,
// so replay order and compaction both show in the bytes.
func goldenRecords() []*Record {
	fp := func(i int) string { return fmt.Sprintf("%064x", 0xa0+i) }
	return []*Record{
		{Fingerprint: fp(1), Feasible: true, Elements: 3, Slots: []int{0, -1, 2, 1}, Source: "heuristic", Unix: 1754000000},
		{Fingerprint: fp(2), Feasible: false, Elements: 2, Source: "exact", Unix: 1754000001},
		{Fingerprint: fp(1), Feasible: true, Elements: 3, Slots: []int{1, 0, -1, 2}, Source: "exact", Unix: 1754000002},
		{Fingerprint: fp(0), Feasible: true, Elements: 1, Slots: []int{0}, Source: "analysis", Unix: 1754000003},
	}
}

type goldenMemoPut struct {
	key  string
	fps  []string
	sigs [][]byte
}

func goldenMemoPuts() []goldenMemoPut {
	k := func(i int) string { return fmt.Sprintf("%064x", 0xb0+i) }
	fp := func(i int) string { return fmt.Sprintf("%064x", 0xc0+i) }
	return []goldenMemoPut{
		{k(1), []string{fp(1)}, [][]byte{[]byte("5-a"), []byte("3-b")}},
		{k(0), []string{fp(2)}, [][]byte{[]byte("2-c")}},
		{k(1), []string{fp(0)}, [][]byte{[]byte("4-d")}},
	}
}

// Golden logs, written before the three logs shared one Log type: the
// raw logs the sequences above append, and the same logs compacted.
const (
	goldenStoreRaw = `
	52544d53000000a9f07351b47b2266696e6765727072696e74223a223030303030303030303030303030303030303030
	3030303030303030303030303030303030303030303030303030303030303030303030303030303030306131222c2266
	65617369626c65223a747275652c22656c656d656e7473223a332c22736c6f7473223a5b302c2d312c322c315d2c2273
	6f75726365223a22686575726973746963222c22756e6978223a313735343030303030307d52544d530000009362c382
	7f7b2266696e6765727072696e74223a2230303030303030303030303030303030303030303030303030303030303030
	303030303030303030303030303030303030303030303030303030303030306132222c226665617369626c65223a6661
	6c73652c22656c656d656e7473223a322c22736f75726365223a226578616374222c22756e6978223a31373534303030
	3030317d52544d53000000a57c870bad7b2266696e6765727072696e74223a2230303030303030303030303030303030
	303030303030303030303030303030303030303030303030303030303030303030303030303030303030303030306131
	222c226665617369626c65223a747275652c22656c656d656e7473223a332c22736c6f7473223a5b312c302c2d312c32
	5d2c22736f75726365223a226578616374222c22756e6978223a313735343030303030327d52544d53000000a1d22f79
	e57b2266696e6765727072696e74223a2230303030303030303030303030303030303030303030303030303030303030
	303030303030303030303030303030303030303030303030303030303030306130222c226665617369626c65223a7472
	75652c22656c656d656e7473223a312c22736c6f7473223a5b305d2c22736f75726365223a22616e616c79736973222c
	22756e6978223a313735343030303030337d`
	goldenMemoRaw = `
	52544d53000000b5701549947b226b6579223a2230303030303030303030303030303030303030303030303030303030
	303030303030303030303030303030303030303030303030303030303030303030306231222c2266696e676572707269
	6e7473223a5b223030303030303030303030303030303030303030303030303030303030303030303030303030303030
	3030303030303030303030303030303030303030306331225d2c2273696773223a5b224e533168222c224d793169225d
	7d52544d53000000ae21b2aff47b226b6579223a22303030303030303030303030303030303030303030303030303030
	30303030303030303030303030303030303030303030303030303030303030303030306230222c2266696e6765727072
	696e7473223a5b2230303030303030303030303030303030303030303030303030303030303030303030303030303030
	303030303030303030303030303030303030303030306332225d2c2273696773223a5b224d69316a225d7d52544d5300
	0000fffcf448747b226b6579223a22303030303030303030303030303030303030303030303030303030303030303030
	30303030303030303030303030303030303030303030303030303030306231222c2266696e6765727072696e7473223a
	5b2230303030303030303030303030303030303030303030303030303030303030303030303030303030303030303030
	303030303030303030303030303030306330222c22303030303030303030303030303030303030303030303030303030
	30303030303030303030303030303030303030303030303030303030303030303030306331225d2c2273696773223a5b
	224e533168222c224e43316b222c224d793169225d7d`
	goldenStoreCompact = `
	52544d53000000a1d22f79e57b2266696e6765727072696e74223a223030303030303030303030303030303030303030
	3030303030303030303030303030303030303030303030303030303030303030303030303030303030306130222c2266
	65617369626c65223a747275652c22656c656d656e7473223a312c22736c6f7473223a5b305d2c22736f75726365223a
	22616e616c79736973222c22756e6978223a313735343030303030337d52544d53000000a57c870bad7b2266696e6765
	727072696e74223a22303030303030303030303030303030303030303030303030303030303030303030303030303030
	30303030303030303030303030303030303030303030306131222c226665617369626c65223a747275652c22656c656d
	656e7473223a332c22736c6f7473223a5b312c302c2d312c325d2c22736f75726365223a226578616374222c22756e69
	78223a313735343030303030327d52544d530000009362c3827f7b2266696e6765727072696e74223a22303030303030
	303030303030303030303030303030303030303030303030303030303030303030303030303030303030303030303030
	30303030303030306132222c226665617369626c65223a66616c73652c22656c656d656e7473223a322c22736f757263
	65223a226578616374222c22756e6978223a313735343030303030317d`
	goldenMemoCompact = `
	52544d53000000ae21b2aff47b226b6579223a2230303030303030303030303030303030303030303030303030303030
	303030303030303030303030303030303030303030303030303030303030303030306230222c2266696e676572707269
	6e7473223a5b223030303030303030303030303030303030303030303030303030303030303030303030303030303030
	3030303030303030303030303030303030303030306332225d2c2273696773223a5b224d69316a225d7d52544d530000
	00fffcf448747b226b6579223a2230303030303030303030303030303030303030303030303030303030303030303030
	303030303030303030303030303030303030303030303030303030306231222c2266696e6765727072696e7473223a5b
	223030303030303030303030303030303030303030303030303030303030303030303030303030303030303030303030
	3030303030303030303030303030306330222c2230303030303030303030303030303030303030303030303030303030
	303030303030303030303030303030303030303030303030303030303030303030306331225d2c2273696773223a5b22
	4e533168222c224e43316b222c224d793169225d7d`
)

func unhex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(strings.Join(strings.Fields(s), ""))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func readLog(t *testing.T, dir, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// sameIndex fails unless a and b hold the same verdicts and memo
// classes.
func sameIndex(t *testing.T, a, b *Store) {
	t.Helper()
	if fa, fb := a.Fingerprints(), b.Fingerprints(); strings.Join(fa, ",") != strings.Join(fb, ",") {
		t.Fatalf("fingerprints differ: %v vs %v", fa, fb)
	}
	for _, fp := range a.Fingerprints() {
		ra, _ := a.Get(fp)
		rb, _ := b.Get(fp)
		if !sameRecord(ra, rb) || ra.Unix != rb.Unix {
			t.Fatalf("record %s: %+v vs %+v", fp, ra, rb)
		}
	}
	if ka, kb := a.MemoKeys(), b.MemoKeys(); strings.Join(ka, ",") != strings.Join(kb, ",") {
		t.Fatalf("memo keys differ: %v vs %v", ka, kb)
	}
	for _, k := range a.MemoKeys() {
		ma, _ := a.GetMemo(k)
		mb, _ := b.GetMemo(k)
		if !sameMemo(ma, mb) {
			t.Fatalf("memo class %s: %+v vs %+v", k, ma, mb)
		}
	}
}

// TestLogGoldenBytes pins the on-disk format byte for byte: the same
// writes produce the golden raw logs, the golden logs open to the same
// index (with stale .tmp files from a killed compaction beside them),
// and compacting them reproduces the golden compacted bytes.
func TestLogGoldenBytes(t *testing.T) {
	ref := openT(t, t.TempDir())
	for _, r := range goldenRecords() {
		if err := ref.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range goldenMemoPuts() {
		if err := ref.PutMemo(p.key, p.fps, p.sigs); err != nil {
			t.Fatal(err)
		}
	}
	storeRaw, memoRaw := unhex(t, goldenStoreRaw), unhex(t, goldenMemoRaw)
	if !bytes.Equal(readLog(t, ref.Dir(), logName), storeRaw) {
		t.Fatal("appends no longer write the golden store.log")
	}
	if !bytes.Equal(readLog(t, ref.Dir(), memoLogName), memoRaw) {
		t.Fatal("appends no longer write the golden memo.log")
	}

	dir := t.TempDir()
	storeCompact, memoCompact := unhex(t, goldenStoreCompact), unhex(t, goldenMemoCompact)
	for name, data := range map[string][]byte{
		logName: storeRaw, memoLogName: memoRaw,
		logName + ".tmp":     storeCompact[:len(storeCompact)/2],
		memoLogName + ".tmp": []byte("left by a killed compaction"),
	} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s := openT(t, dir)
	if s.CorruptSkipped() != 0 || s.Bytes() != int64(len(storeRaw)) || s.MemoBytes() != int64(len(memoRaw)) {
		t.Fatalf("golden open: corrupt=%d bytes=%d memo=%d", s.CorruptSkipped(), s.Bytes(), s.MemoBytes())
	}
	sameIndex(t, s, ref)

	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readLog(t, dir, logName), storeCompact) {
		t.Fatal("compaction no longer writes the golden store.log")
	}
	if !bytes.Equal(readLog(t, dir, memoLogName), memoCompact) {
		t.Fatal("compaction no longer writes the golden memo.log")
	}
	for _, name := range []string{logName, memoLogName} {
		if _, err := os.Stat(filepath.Join(dir, name+".tmp")); !os.IsNotExist(err) {
			t.Fatalf("%s.tmp survived compaction: %v", name, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	sameIndex(t, openT(t, dir), ref)
}
