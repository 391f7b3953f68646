package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"rtm/internal/trace"
)

// FuzzStoreDecode pins the reader's no-panic contract: arbitrary
// bytes fed to the segment reader must come back as an error or as
// valid records — never a panic, never an invalid record — and, as a
// log file, must open, reopen and take an append without disturbing
// their clean prefix. As a segment from a peer, they must leave no
// infeasible record indexed: a NO has no certificate the receiver
// could check, so ImportFrames keeps only feasible records. The seed corpus is built from real segments
// (whole, truncated, bit-flipped, and with garbage appended), which is
// exactly the damage spectrum a crashed or bit-rotted log presents.
func FuzzStoreDecode(f *testing.F) {
	var seg bytes.Buffer
	for i := 0; i < 4; i++ {
		payload, err := trace.EncodeStoreRecord(testRecord(i))
		if err != nil {
			f.Fatal(err)
		}
		buf, err := Frame(payload)
		if err != nil {
			f.Fatal(err)
		}
		seg.Write(buf)
	}
	whole := seg.Bytes()
	f.Add([]byte(nil))
	f.Add(whole)
	f.Add(whole[:len(whole)/2])
	f.Add(whole[:headerLen-3])
	flipped := append([]byte(nil), whole...)
	flipped[headerLen+5] ^= 0x40
	f.Add(flipped)
	f.Add(append(append([]byte(nil), whole...), "trailing junk"...))

	path := filepath.Join(f.TempDir(), logName)
	file, err := os.Create(path)
	if err != nil {
		f.Fatal(err)
	}
	defer file.Close()
	appended, err := trace.EncodeStoreRecord(testRecord(100))
	if err != nil {
		f.Fatal(err)
	}
	replay := func(payload []byte, _ int64) error {
		_, err := trace.DecodeStoreRecord(payload)
		return err
	}
	storeDir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		valid, _, err := scanClean(bytes.NewReader(data), func(payload []byte, _ int64) error {
			r, err := trace.DecodeStoreRecord(payload)
			if err != nil {
				return err
			}
			if err := r.Validate(); err != nil {
				t.Fatalf("reader produced an invalid record: %v", err)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("in-memory scan errored: %v", err)
		}
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("clean prefix %d outside [0,%d]", valid, len(data))
		}

		// The same bytes as a log file, through the Log that owns
		// truncation: Open keeps exactly the clean prefix, a reopen finds
		// nothing left to drop, and an append extends that prefix. One
		// file serves every exec of a worker (they run one at a time),
		// rewritten in place: a fresh file or directory per exec costs
		// ext4 a flush each and slows fuzzing severalfold.
		if _, err := file.WriteAt(data, 0); err != nil {
			t.Fatal(err)
		}
		if err := file.Truncate(int64(len(data))); err != nil {
			t.Fatal(err)
		}
		open := func(stage string, want int64, wantDropped bool) *Log {
			l, dropped, err := OpenLog(path, true, replay)
			if err != nil {
				t.Fatalf("%s: %v", stage, err)
			}
			if l.Size() != want || dropped != wantDropped {
				t.Fatalf("%s: kept %d bytes (dropped %v), want %d (%v)", stage, l.Size(), dropped, want, wantDropped)
			}
			return l
		}
		open("open", valid, valid < int64(len(data))).Close()
		l := open("reopen", valid, false)
		n, err := l.Append(appended)
		if err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		l.Close()
		open("reopen after append", valid+n, false).Close()
		onDisk, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(onDisk[:valid], data[:valid]) || !bytes.Equal(onDisk[valid:], mustFrame(t, appended)) {
			t.Fatal("recovery and append changed the clean prefix or the appended frame")
		}

		// The same bytes as a peer's segment, imported into a store
		// whose logs are emptied in place for every exec.
		for _, name := range []string{logName, memoLogName} {
			if err := os.Truncate(filepath.Join(storeDir, name), 0); err != nil && !os.IsNotExist(err) {
				t.Fatal(err)
			}
		}
		s, err := Open(storeDir, Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if _, err := s.ImportFrames(data); err != nil {
			t.Fatalf("import errored: %v", err)
		}
		for _, fp := range s.Fingerprints() {
			if rec, _ := s.Get(fp); !rec.Feasible {
				t.Fatalf("import indexed an infeasible record: %+v", rec)
			}
		}
	})
}

// FuzzMemoSegmentDecode pins the same no-panic contract for the memo
// tier, one level deeper: hostile bytes must scan to valid memo records
// or a clean prefix, and a store opened on them as its memo.log must
// keep exactly that prefix and index only records that re-validate —
// the replay path a damaged memo.log takes before its signatures ever
// reach a search.
func FuzzMemoSegmentDecode(f *testing.F) {
	var seg bytes.Buffer
	for i := 0; i < 3; i++ {
		payload, err := trace.EncodeMemoRecord(&trace.MemoRecordJSON{
			Key:          fmt.Sprintf("%064x", i+0x2000),
			Fingerprints: []string{fmt.Sprintf("%064x", i+1)},
			Sigs:         [][]byte{[]byte("sig-a"), {0x01, 0x02, byte(i)}},
		})
		if err != nil {
			f.Fatal(err)
		}
		buf, err := Frame(payload)
		if err != nil {
			f.Fatal(err)
		}
		seg.Write(buf)
	}
	whole := seg.Bytes()
	f.Add([]byte(nil))
	f.Add(whole)
	f.Add(whole[:len(whole)/2])
	f.Add(whole[:headerLen-3])
	flipped := append([]byte(nil), whole...)
	flipped[headerLen+5] ^= 0x40
	f.Add(flipped)
	f.Add(append(append([]byte(nil), whole...), "trailing junk"...))

	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		valid, _, err := scanClean(bytes.NewReader(data), func(payload []byte, _ int64) error {
			r, err := trace.DecodeMemoRecord(payload)
			if err != nil {
				return err
			}
			if err := r.Validate(); err != nil {
				t.Fatalf("reader produced an invalid record: %v", err)
			}
			return nil
		})
		if err != nil {
			t.Fatalf("in-memory scan errored: %v", err)
		}
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("clean prefix %d outside [0,%d]", valid, len(data))
		}

		// One store directory serves every exec of a worker (they run
		// one at a time), its logs rewritten in place: a fresh directory
		// per exec costs ext4 a flush each and slows the fuzzer about
		// threefold.
		if err := os.Truncate(filepath.Join(dir, logName), 0); err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, memoLogName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if s.MemoBytes() != valid {
			t.Fatalf("open kept %d memo.log bytes, want the %d-byte clean prefix", s.MemoBytes(), valid)
		}
		for _, k := range s.MemoKeys() {
			rec, _ := s.GetMemo(k)
			if err := rec.Validate(); err != nil {
				t.Fatalf("replayed record invalid: %v", err)
			}
		}
	})
}

func mustFrame(t *testing.T, payload []byte) []byte {
	t.Helper()
	frame, err := Frame(payload)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}
