package queue

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"rtm/internal/store"
	"rtm/internal/trace"
)

// hostileJournals are adversarial journal images shared by the fuzz
// seed corpus and the deterministic Open test: valid, truncated at and
// off record boundaries, bit-flipped mid-payload, and garbage-tailed.
func hostileJournals(t testing.TB) [][]byte {
	data, boundaries, _ := buildTestJournal(t)
	flipped := append([]byte(nil), data...)
	flipped[boundaries[1]+20] ^= 0x40 // corrupt one payload byte mid-journal
	return [][]byte{
		data,                 // whole valid journal
		data[:boundaries[4]], // clean prefix at a record boundary
		data[:len(data)-5],   // torn tail
		append(data[:boundaries[2]:boundaries[2]], "garbage"...), // clean prefix + junk
		flipped,
		{},
		[]byte(`{"type":"done","fingerprint":"xyz"}`), // bare JSON, no framing
	}
}

// FuzzQueueDecode throws arbitrary bytes at the job-record reader: the
// frame scanner, the record decoder, and the replay state machine.
// Properties pinned, whatever the input: no layer panics; every record
// the decoder accepts passes Validate (malformed fingerprint or
// verdict fields never reach the queue); replay never produces a
// runnable job without a model or a terminal job whose waiters hang;
// and the live size is exactly the unfinished jobs' submitted records,
// with terminal jobs holding none.
func FuzzQueueDecode(f *testing.F) {
	for _, j := range hostileJournals(f) {
		f.Add(j)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		q := &Queue{jobs: make(map[string]*job)}
		valid, _, err := store.ScanFrames(bytes.NewReader(data), func(payload []byte) error {
			rec, derr := trace.DecodeQueueRecord(payload)
			if derr != nil {
				return nil // rejected, fine — keep scanning
			}
			if verr := rec.Validate(); verr != nil {
				t.Fatalf("decoder accepted an invalid record: %v\npayload: %s", verr, payload)
			}
			q.replay(rec, int64(len(payload)))
			return nil
		})
		if err != nil {
			t.Fatalf("ScanFrames errored on arbitrary bytes: %v", err)
		}
		if valid > int64(len(data)) {
			t.Fatalf("clean prefix %d exceeds input %d", valid, len(data))
		}
		var live int64
		for fp, j := range q.jobs {
			if j.state.Terminal() && j.liveLen != 0 {
				t.Fatalf("terminal job %s holds %d live bytes", fp, j.liveLen)
			}
			live += j.liveLen
			if j.id != fp {
				t.Fatalf("job table key %s holds job %s", fp, j.id)
			}
			if !j.state.Terminal() && j.model == nil {
				t.Fatalf("replay produced runnable job %s without a model", fp)
			}
			select {
			case <-j.done:
				if !j.state.Terminal() {
					t.Fatalf("job %s released waiters while %v", fp, j.state)
				}
			default:
				if j.state.Terminal() {
					t.Fatalf("terminal job %s would hang its waiters", fp)
				}
			}
		}
		if live != q.live {
			t.Fatalf("live size %d, want %d (the unfinished jobs' records)", q.live, live)
		}
	})
}

// TestQueueOpenHostileJournals runs the fuzz seed images through the
// real file-backed Open: recovery must succeed, recover no more bytes
// than the input, and leave a journal whose reopen is clean.
func TestQueueOpenHostileJournals(t *testing.T) {
	for i, img := range hostileJournals(t) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, journalName), img, 0o644); err != nil {
			t.Fatal(err)
		}
		q, err := Open(dir, Options{NoSync: true})
		if err != nil {
			t.Fatalf("journal %d: Open: %v", i, err)
		}
		if q.Bytes() > int64(len(img)) {
			t.Fatalf("journal %d: recovered %d bytes from %d", i, q.Bytes(), len(img))
		}
		clean := q.Bytes()
		if err := q.Close(); err != nil {
			t.Fatalf("journal %d: close: %v", i, err)
		}
		q2, err := Open(dir, Options{NoSync: true})
		if err != nil {
			t.Fatalf("journal %d: reopen: %v", i, err)
		}
		if s := q2.Stats(); s.CorruptTail != 0 || q2.Bytes() != clean {
			t.Fatalf("journal %d: healed journal not clean: corrupt=%d bytes=%d want %d",
				i, s.CorruptTail, q2.Bytes(), clean)
		}
		q2.Close()
	}
}
