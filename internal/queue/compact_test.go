package queue

import (
	"context"
	"errors"
	"fmt"
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
	Priority   int
	SubmitUnix int64
}

func stateMap(q *Queue) map[string]stateKey {
	out := map[string]stateKey{}
	for _, st := range q.Jobs() {
		out[st.ID] = stateKey{
			State: st.State, Verdict: st.Verdict, Err: st.Err,
			Priority: st.Priority, SubmitUnix: st.SubmitUnix,
		}
	}
	return out
}

// TestQueueCompactReplaysIdentically is the satellite's pin: build a
// journal holding done, failed, running and pending jobs, compact it,
// and assert the compacted journal replays to the identical job-state
// map a replay of the uncompacted journal produces — while shedding
// bytes.
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
	st0, err := q.Submit(testModel(0), SubmitOptions{Priority: 7})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, q, st0.ID)
	st1, err := q.Submit(testModel(1), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, q, st1.ID)
	if _, err := q.Submit(testModel(2), SubmitOptions{}); err != nil {
		t.Fatal(err)
	}
	<-gate // worker is now parked inside job 2
	for i := 3; i <= 4; i++ {
		if _, err := q.Submit(testModel(i), SubmitOptions{Priority: i}); err != nil {
			t.Fatal(err)
		}
	}

	before := q.Bytes()
	if err := q.Compact(); err != nil {
		t.Fatal(err)
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
	// terminal jobs must not re-enter the drain schedule
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

// TestQueueDeadlineExpired pins drain-time deadline enforcement: an
// already-expired job fails fast with ErrDeadlineExpired, the solver
// is never invoked for it, and a job with a future deadline solves
// normally.
func TestQueueDeadlineExpired(t *testing.T) {
	q := openQ(t, t.TempDir(), 1)

	// submit before Start so the expired job cannot race the check
	expired, err := q.Submit(testModel(0), SubmitOptions{Deadline: time.Now().Add(-2 * time.Second)})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := q.Submit(testModel(1), SubmitOptions{Deadline: time.Now().Add(time.Hour)})
	if err != nil {
		t.Fatal(err)
	}

	solver := &instantSolver{}
	q.Start(solver.solve)

	est := waitTerminal(t, q, expired.ID)
	if est.State != Failed || est.Err != ErrDeadlineExpired.Error() || !est.DeadlineExpired() {
		t.Fatalf("expired job: %+v", est)
	}
	fst := waitTerminal(t, q, fresh.ID)
	if fst.State != Done || fst.DeadlineExpired() {
		t.Fatalf("fresh job: %+v", fst)
	}

	solver.mu.Lock()
	for _, fp := range solver.order {
		if fp == expired.ID {
			t.Fatal("solver was invoked for an expired job")
		}
	}
	solver.mu.Unlock()

	s := q.Stats()
	if s.Expired != 1 || s.Failed != 1 || s.Completed != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

// wideModel is testModel with six elements, each under its own
// constraint: a submitted record several times the size of the done
// record that outlives it, as real specs are. Distinct weights keep
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
// journal must never outgrow four times its live set (one record per
// job, measured by a final explicit Compact) past the floor, and a
// reopen of the self-compacted journal must replay the live queue.
func TestQueueJournalStaysBounded(t *testing.T) {
	dir := t.TempDir()
	q := openQ(t, dir, 1)
	q.Start((&instantSolver{}).solve)

	const cycles = 2500
	var peak, prev int64
	compactions := 0
	for i := 0; i < cycles; i++ {
		st, err := q.Submit(wideModel(i), SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, q, st.ID)
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

	want := stateMap(q)
	if err := q.Compact(); err != nil {
		t.Fatal(err)
	}
	const floor = 1 << 20 // store.Log's compaction floor
	live := q.Bytes()
	t.Logf("%d cycles: %d self-compactions, peak %d bytes, %d live", cycles, compactions, peak, live)
	if peak > max(floor, 4*live) {
		t.Fatalf("journal peaked at %d bytes, bound max(%d, 4×%d live)", peak, floor, live)
	}
	q.Close()

	got := stateMap(openQ(t, dir, 0))
	if len(got) != len(want) {
		t.Fatalf("replayed %d jobs, want %d", len(got), len(want))
	}
	for id, w := range want {
		if got[id] != w {
			t.Fatalf("job %s: replayed %+v, want %+v", id, got[id], w)
		}
	}
}
