package queue

import (
	"os"
	"path/filepath"
	"testing"

	"rtm/internal/core"
	"rtm/internal/store"
	"rtm/internal/trace"
)

// buildTestJournal constructs a journal exercising all four record
// types across three jobs:
//
//	rec 1: submitted A        rec 5: started B
//	rec 2: submitted B        rec 6: failed B ("boom")
//	rec 3: started A          rec 7: submitted C
//	rec 4: done A (exact)     rec 8: started C
//
// It returns the raw bytes, the cumulative byte boundary after each
// record (boundaries[0] = 0), and the three job fingerprints.
func buildTestJournal(t testing.TB) (data []byte, boundaries []int64, fps [3]string) {
	t.Helper()
	var models [3]*core.Model
	for i := range models {
		models[i] = testModel(i)
		fps[i] = core.Fingerprint(models[i])
	}
	recs := []*trace.QueueRecordJSON{
		{Type: trace.QueueSubmitted, Fingerprint: fps[0], Unix: 1754_000_000, Model: trace.NewModelJSON(models[0])},
		{Type: trace.QueueSubmitted, Fingerprint: fps[1], Unix: 1754_000_001, Model: trace.NewModelJSON(models[1])},
		{Type: trace.QueueStarted, Fingerprint: fps[0], Unix: 1754_000_002},
		{Type: trace.QueueDone, Fingerprint: fps[0], Unix: 1754_000_003, Feasible: true, Source: "exact"},
		{Type: trace.QueueStarted, Fingerprint: fps[1], Unix: 1754_000_004},
		{Type: trace.QueueFailed, Fingerprint: fps[1], Unix: 1754_000_005, Error: "boom"},
		{Type: trace.QueueSubmitted, Fingerprint: fps[2], Unix: 1754_000_006, Model: trace.NewModelJSON(models[2])},
		{Type: trace.QueueStarted, Fingerprint: fps[2], Unix: 1754_000_007},
	}
	boundaries = []int64{0}
	for _, r := range recs {
		data = append(data, frameRecord(t, r)...)
		boundaries = append(boundaries, int64(len(data)))
	}
	return data, boundaries, fps
}

// frameRecord encodes and frames one journal record.
func frameRecord(t testing.TB, rec *trace.QueueRecordJSON) []byte {
	t.Helper()
	payload, err := trace.EncodeQueueRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := store.Frame(payload)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// buildRetryJournal is buildTestJournal's journal after a compaction
// and a resubmission of the failed class B, written through the queue
// itself, and then B's second run by hand:
//
//	rec 1: submitted C (all the compaction keeps)
//	rec 2: submitted B (a new job: the failed one was forgotten)
//	rec 3: started B
//	rec 4: done B (exact)
func buildRetryJournal(t *testing.T) (data []byte, boundaries []int64) {
	t.Helper()
	raw, _, fps := buildTestJournal(t)
	dir := t.TempDir()
	path := filepath.Join(dir, journalName)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	q, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	boundaries = []int64{0}
	if err := q.Compact(); err != nil {
		t.Fatal(err)
	}
	boundaries = append(boundaries, q.Bytes())
	if st, err := q.Submit(testModel(1)); err != nil || st.Resubmitted {
		t.Fatalf("resubmit of the forgotten failed class: %+v, %v", st, err)
	}
	boundaries = append(boundaries, q.Bytes())
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	data, err = os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*trace.QueueRecordJSON{
		{Type: trace.QueueStarted, Fingerprint: fps[1], Unix: 1754_000_009},
		{Type: trace.QueueDone, Fingerprint: fps[1], Unix: 1754_000_010, Feasible: true, Source: "exact"},
	} {
		data = append(data, frameRecord(t, r)...)
		boundaries = append(boundaries, int64(len(data)))
	}
	return data, boundaries
}

// crashExpect is the predicted replay of a journal prefix: each job's
// state keyed A, B, C ("" = unknown, "pending*" = pending and resumed,
// i.e. a started record with no terminal record survived), the drain
// depth and the resumed count.
type crashExpect struct {
	a, b, c string
	depth   int64
	resumed int64
}

// TestQueueCrashInjection is the durability test: cut a journal at
// every possible byte offset (the crash leaves an arbitrary prefix),
// reopen, and assert replay recovers exactly the longest clean prefix
// of records — never panicking, and never resurrecting a job whose
// terminal record survived the cut. It cuts two journals: the eight
// records of buildTestJournal, and the same journal compacted, with
// the failed class resubmitted and run again (buildRetryJournal),
// where the forgotten jobs must stay forgotten.
func TestQueueCrashInjection(t *testing.T) {
	data, boundaries, fps := buildTestJournal(t)
	cutEverywhere(t, fps, data, boundaries, []crashExpect{
		{"", "", "", 0, 0},
		{"pending", "", "", 1, 0},
		{"pending", "pending", "", 2, 0},
		{"pending*", "pending", "", 2, 1},
		{"done", "pending", "", 1, 0},
		{"done", "pending*", "", 1, 1},
		{"done", "failed", "", 0, 0},
		{"done", "failed", "pending", 1, 0},
		{"done", "failed", "pending*", 1, 1},
	})
	retry, retryBounds := buildRetryJournal(t)
	cutEverywhere(t, fps, retry, retryBounds, []crashExpect{
		{"", "", "", 0, 0},
		{"", "", "pending", 1, 0},
		{"", "pending", "pending", 2, 0},
		{"", "pending*", "pending", 2, 1},
		{"", "done", "pending", 1, 0},
	})
}

// cutEverywhere opens every byte prefix of a journal whose records end
// at boundaries[1:], and checks it against table, indexed by the
// number of complete records in the prefix.
func cutEverywhere(t *testing.T, fps [3]string, data []byte, boundaries []int64, table []crashExpect) {
	t.Helper()
	checkJob := func(q *Queue, fp, want string) {
		t.Helper()
		st, ok := q.Get(fp)
		if want == "" {
			if ok {
				t.Fatalf("job %s exists as %v, want unknown", fp[:8], st.State)
			}
			return
		}
		if !ok {
			t.Fatalf("job %s missing, want %s", fp[:8], want)
		}
		state := want
		if state == "pending*" {
			state = "pending"
		}
		if st.State.String() != state {
			t.Fatalf("job %s = %v, want %s", fp[:8], st.State, state)
		}
		if want == "done" && (!st.Verdict.Decided || !st.Verdict.Feasible || st.Verdict.Source != "exact") {
			t.Fatalf("done job %s lost its verdict: %+v", fp[:8], st)
		}
		if want == "failed" && st.Err != "boom" {
			t.Fatalf("failed job %s lost its error: %+v", fp[:8], st)
		}
	}

	for cut := 0; cut <= len(data); cut++ {
		complete := 0
		for _, b := range boundaries[1:] {
			if b <= int64(cut) {
				complete++
			}
		}
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, journalName), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		q, err := Open(dir, Options{NoSync: true})
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		want := table[complete]
		s := q.Stats()
		if s.Replayed != int64(complete) {
			t.Fatalf("cut %d: replayed %d records, want %d", cut, s.Replayed, complete)
		}
		if s.Depth != want.depth || s.Resumed != want.resumed {
			t.Fatalf("cut %d (%d complete): depth=%d resumed=%d, want depth=%d resumed=%d",
				cut, complete, s.Depth, s.Resumed, want.depth, want.resumed)
		}
		torn := int64(cut) != boundaries[complete]
		if torn != (s.CorruptTail > 0) {
			t.Fatalf("cut %d: corruptTail=%d, torn=%v", cut, s.CorruptTail, torn)
		}
		if q.Bytes() != boundaries[complete] {
			t.Fatalf("cut %d: clean length %d, want %d", cut, q.Bytes(), boundaries[complete])
		}
		wants := [3]string{want.a, want.b, want.c}
		for i, fp := range fps {
			checkJob(q, fp, wants[i])
		}

		// no resurrection: re-submitting a done class must dedup onto
		// the done job, not create a fresh pending one
		for i, w := range wants {
			if w != "done" {
				continue
			}
			st, err := q.Submit(testModel(i))
			if err != nil {
				t.Fatalf("cut %d: resubmit: %v", cut, err)
			}
			if !st.Resubmitted || st.State != Done {
				t.Fatalf("cut %d: done job resurrected: %+v", cut, st)
			}
			if q.Bytes() != boundaries[complete] {
				t.Fatalf("cut %d: resubmit of terminal job grew the journal", cut)
			}
		}
		if err := q.Close(); err != nil {
			t.Fatalf("cut %d: close: %v", cut, err)
		}
	}
}

// TestQueueCrashRecoveryAppendable pins that a healed journal is a
// working journal: after truncating a torn tail, new submissions
// append cleanly and a further reopen sees both the recovered prefix
// and the new work with no corruption events.
func TestQueueCrashRecoveryAppendable(t *testing.T) {
	data, boundaries, fps := buildTestJournal(t)
	// cut mid-way through the final record: 7 complete, torn tail
	cut := int(boundaries[7]) + int(boundaries[8]-boundaries[7])/2
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, journalName), data[:cut], 0o644); err != nil {
		t.Fatal(err)
	}
	q, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if s := q.Stats(); s.CorruptTail != 1 || s.Replayed != 7 {
		t.Fatalf("recovery stats: %+v", s)
	}
	st, err := q.Submit(testModel(9))
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}

	q2, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	s := q2.Stats()
	if s.CorruptTail != 0 {
		t.Fatalf("healed journal still corrupt: %+v", s)
	}
	if s.Replayed != 8 { // 7 recovered + 1 new submitted
		t.Fatalf("replayed %d records, want 8", s.Replayed)
	}
	got, ok := q2.Get(st.ID)
	if !ok || got.State != Pending {
		t.Fatalf("appended job after recovery: %+v", got)
	}
	if done, ok := q2.Get(fps[0]); !ok || done.State != Done {
		t.Fatalf("recovered terminal job: %+v", done)
	}
}
