package queue

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"rtm/internal/core"
)

// stateKey is the replay-visible identity of one job for the
// compaction equivalence check.
type stateKey struct {
	State      State
	Verdict    Verdict
	Err        string
	SubmitUnix int64
}

func stateMap(q *Queue) map[string]stateKey {
	out := map[string]stateKey{}
	for _, st := range q.Jobs() {
		out[st.ID] = stateKey{
			State: st.State, Verdict: st.Verdict, Err: st.Err,
			SubmitUnix: st.SubmitUnix,
		}
	}
	return out
}

// TestQueueCompactReplaysIdentically builds a journal holding done,
// failed, running and pending jobs and compacts it: the finished jobs
// are forgotten at once, and the compacted journal replays to the
// identical map of live jobs — while shedding bytes.
func TestQueueCompactReplaysIdentically(t *testing.T) {
	dir := t.TempDir()
	q := openQ(t, dir, 1)

	gate := make(chan struct{})
	release := make(chan struct{})
	q.Start(func(ctx context.Context, m *core.Model) (Verdict, error) {
		switch fp := core.Fingerprint(m); {
		case fp == core.Fingerprint(testModel(1)):
			return Verdict{}, errors.New("boom")
		case fp == core.Fingerprint(testModel(2)):
			close(gate)
			select {
			case <-release:
			case <-ctx.Done():
			}
			return Verdict{}, ctx.Err()
		}
		return Verdict{Decided: true, Feasible: true, Source: "exact"}, nil
	})

	// job 0 done, job 1 failed, then job 2 blocks the single worker
	// (running), leaving jobs 3 and 4 pending
	st0, err := q.Submit(testModel(0))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, q, st0.ID)
	st1, err := q.Submit(testModel(1))
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, q, st1.ID)
	if _, err := q.Submit(testModel(2)); err != nil {
		t.Fatal(err)
	}
	<-gate // worker is now parked inside job 2
	for i := 3; i <= 4; i++ {
		if _, err := q.Submit(testModel(i)); err != nil {
			t.Fatal(err)
		}
	}

	before := q.Bytes()
	if err := q.Compact(); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{st0.ID, st1.ID} {
		if st, ok := q.Get(id); ok {
			t.Fatalf("finished job %s survived compaction: %+v", id[:8], st)
		}
	}
	after := q.Bytes()
	if after >= before {
		t.Fatalf("compaction grew the journal: %d -> %d bytes", before, after)
	}
	// compacting a compacted journal is stable
	if err := q.Compact(); err != nil {
		t.Fatal(err)
	}
	if q.Bytes() != after {
		t.Fatalf("second compact moved bytes: %d -> %d", after, q.Bytes())
	}

	want := stateMap(q)
	if len(want) != 3 {
		t.Fatalf("%d jobs survived compaction, want 3 (one running + two pending)", len(want))
	}
	// the running job replays as pending — the crash-checkpoint rule
	for id, k := range want {
		if k.State == Running {
			k.State = Pending
			want[id] = k
		}
	}
	// close first: released before Close, the worker could finish
	// job 2 and start a pending job before Close stops it
	q.Close()
	close(release)

	re := openQ(t, dir, 0) // no workers: observe the replayed state
	got := stateMap(re)
	if len(got) != len(want) {
		t.Fatalf("replayed %d jobs, want %d", len(got), len(want))
	}
	for id, w := range want {
		g, ok := got[id]
		if !ok {
			t.Fatalf("job %s missing after compacted replay", id)
		}
		if g != w {
			t.Fatalf("job %s: replayed %+v, want %+v", id, g, w)
		}
	}
	if s := re.Stats(); s.Depth != 3 {
		t.Fatalf("replayed depth = %d, want 3 (one checkpointed + two pending)", s.Depth)
	}
}

func TestQueueCompactClosedErrors(t *testing.T) {
	q := openQ(t, t.TempDir(), 0)
	q.Close()
	if err := q.Compact(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Compact on closed queue: %v", err)
	}
}

// wideModel is testModel with six elements, each under its own
// constraint: a submitted record several times the size of the
// started and done records that follow it, as real specs are. Distinct weights keep
// the elements from being interchangeable, which keeps
// canonicalization cheap.
func wideModel(i int) *core.Model {
	m := core.NewModel()
	for e := 0; e < 6; e++ {
		name := fmt.Sprintf("e%d", e)
		m.Comm.AddElement(name, 1+e)
		m.AddConstraint(&core.Constraint{
			Name: "c" + name, Task: core.ChainTask(name),
			Period: 64 + i, Deadline: 64 + i, Kind: core.Asynchronous,
		})
	}
	return m
}

// TestQueueJournalStaysBounded runs submit→done cycles until the
// journal has crossed the compaction floor several times: without the
// size-bounded trigger it grows by three records per job forever. The
// journal must never outgrow four times its live set (the submitted
// records of unfinished jobs, measured by a final explicit Compact)
// past the floor. Finished jobs hold no live bytes, so once every job
// is done that live set is empty: the final Compact forgets them all,
// and a reopen replays an empty queue.
func TestQueueJournalStaysBounded(t *testing.T) {
	dir := t.TempDir()
	q := openQ(t, dir, 1)
	q.Start((&instantSolver{}).solve)

	const cycles = 2500
	var peak, prev int64
	compactions := 0
	for i := 0; i < cycles; i++ {
		st, err := q.Submit(wideModel(i))
		if err != nil {
			t.Fatal(err)
		}
		// Wait returns at once if a self-compaction already forgot the
		// finished job; either way it has completed
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		q.Wait(ctx, st.ID)
		cancel()
		if c := q.Stats().Completed; c != int64(i+1) {
			t.Fatalf("cycle %d: %d jobs completed, want %d", i, c, i+1)
		}
		size := q.Bytes()
		if size < prev {
			compactions++
		}
		peak = max(peak, size)
		prev = size
	}
	if compactions < 3 {
		t.Fatalf("journal compacted itself %d times in %d cycles, want at least 3", compactions, cycles)
	}

	if err := q.Compact(); err != nil {
		t.Fatal(err)
	}
	const floor = 1 << 20 // store.Log's compaction floor
	live := q.Bytes()
	t.Logf("%d cycles: %d self-compactions, peak %d bytes, %d live", cycles, compactions, peak, live)
	if peak > max(floor, 4*live) {
		t.Fatalf("journal peaked at %d bytes, bound max(%d, 4×%d live)", peak, floor, live)
	}
	if live != 0 || len(q.Jobs()) != 0 {
		t.Fatalf("after the final compaction: %d live bytes, %d jobs; want 0 and 0", live, len(q.Jobs()))
	}
	q.Close()

	re := openQ(t, dir, 0)
	if s := re.Stats(); s.Replayed != 0 || s.Depth != 0 || len(re.Jobs()) != 0 {
		t.Fatalf("reopen of the compacted journal: %+v, %d jobs", s, len(re.Jobs()))
	}
}

// TestQueueFailedClassRetriesAfterCompaction pins that a budget
// failure is not forever: until compaction a resubmission dedups onto
// the failed job, and after it the class opens a new job that runs.
func TestQueueFailedClassRetriesAfterCompaction(t *testing.T) {
	dir := t.TempDir()
	q := openQ(t, dir, 1)
	var mu sync.Mutex
	calls := 0
	q.Start(func(ctx context.Context, m *core.Model) (Verdict, error) {
		mu.Lock()
		defer mu.Unlock()
		calls++
		if calls == 1 {
			return Verdict{Decided: false}, nil // the budget ran out
		}
		return Verdict{Decided: true, Feasible: true, Source: "exact"}, nil
	})

	st, err := q.Submit(testModel(0))
	if err != nil {
		t.Fatal(err)
	}
	if got := waitTerminal(t, q, st.ID); got.State != Failed {
		t.Fatalf("first job: %+v", got)
	}
	dup, err := q.Submit(testModel(0))
	if err != nil {
		t.Fatal(err)
	}
	if !dup.Resubmitted || dup.State != Failed {
		t.Fatalf("resubmit before compaction: %+v", dup)
	}

	if err := q.Compact(); err != nil {
		t.Fatal(err)
	}
	if q.Bytes() != 0 {
		t.Fatalf("compacted journal of a failed job holds %d bytes", q.Bytes())
	}
	retry, err := q.Submit(testModel(0))
	if err != nil {
		t.Fatal(err)
	}
	if retry.Resubmitted || retry.ID != st.ID {
		t.Fatalf("resubmit after compaction: %+v", retry)
	}
	if got := waitTerminal(t, q, retry.ID); got.State != Done || !got.Verdict.Feasible {
		t.Fatalf("retried job: %+v", got)
	}
	if s := q.Stats(); s.Submitted != 2 || s.Deduped != 1 || s.Failed != 1 || s.Completed != 1 {
		t.Fatalf("stats: %+v", s)
	}
	q.Close()

	// the retried job's done record ends only the job the resubmission
	// opened: nothing replays as pending
	re := openQ(t, dir, 0)
	if got, ok := re.Get(st.ID); !ok || got.State != Done || re.Stats().Depth != 0 {
		t.Fatalf("replayed retry: %+v (depth %d)", got, re.Stats().Depth)
	}
}
