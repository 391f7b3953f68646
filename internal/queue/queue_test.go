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

// testModel builds a tiny valid model; distinct i give distinct
// isomorphism classes (the deadline is a canonical invariant).
func testModel(i int) *core.Model {
	m := core.NewModel()
	m.Comm.AddElement("a", 1)
	m.AddConstraint(&core.Constraint{
		Name: "c", Task: core.ChainTask("a"),
		Period: 4 + i, Deadline: 4 + i, Kind: core.Asynchronous,
	})
	return m
}

func openQ(t *testing.T, dir string, workers int) *Queue {
	t.Helper()
	q, err := Open(dir, Options{Workers: workers, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { q.Close() })
	return q
}

// instantSolver decides everything immediately and records the order
// in which models were handed to workers.
type instantSolver struct {
	mu    sync.Mutex
	order []string
}

func (s *instantSolver) solve(ctx context.Context, m *core.Model) (Verdict, error) {
	s.mu.Lock()
	s.order = append(s.order, core.Fingerprint(m))
	s.mu.Unlock()
	return Verdict{Decided: true, Feasible: true, Source: "exact"}, nil
}

func waitTerminal(t *testing.T, q *Queue, id string) *Status {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	st, err := q.Wait(ctx, id)
	if err != nil {
		t.Fatalf("job %s did not reach a terminal state: %v", id, err)
	}
	return st
}

func TestQueueSubmitDrainDedup(t *testing.T) {
	q := openQ(t, t.TempDir(), 2)
	solver := &instantSolver{}
	q.Start(solver.solve)

	const n = 5
	ids := make([]string, n)
	for i := 0; i < n; i++ {
		st, err := q.Submit(testModel(i))
		if err != nil {
			t.Fatal(err)
		}
		if st.Resubmitted {
			t.Fatalf("fresh class %d reported as resubmitted", i)
		}
		ids[i] = st.ID
	}
	// duplicate submissions dedup onto the existing jobs
	for i := 0; i < n; i++ {
		st, err := q.Submit(testModel(i))
		if err != nil {
			t.Fatal(err)
		}
		if !st.Resubmitted || st.ID != ids[i] {
			t.Fatalf("duplicate submit %d: %+v", i, st)
		}
	}
	for _, id := range ids {
		st := waitTerminal(t, q, id)
		if st.State != Done || !st.Verdict.Decided || !st.Verdict.Feasible || st.Verdict.Source != "exact" {
			t.Fatalf("job %s: %+v", id, st)
		}
	}
	s := q.Stats()
	if s.Submitted != n || s.Deduped != n || s.Completed != n || s.Failed != 0 {
		t.Fatalf("stats: %+v", s)
	}
	solver.mu.Lock()
	calls := len(solver.order)
	solver.mu.Unlock()
	if calls != n {
		t.Fatalf("solver ran %d times, want %d (one per class)", calls, n)
	}
}

// TestQueueDrainOrder pins FIFO draining: one worker takes jobs in
// submission order, across a restart too — replayed jobs keep their
// journal order and drain before anything submitted after the reopen.
func TestQueueDrainOrder(t *testing.T) {
	dir := t.TempDir()
	var want []string
	submit := func(q *Queue, classes ...int) {
		for _, i := range classes {
			st, err := q.Submit(testModel(i))
			if err != nil {
				t.Fatal(err)
			}
			want = append(want, st.ID)
		}
	}
	q1 := openQ(t, dir, 0)
	submit(q1, 4, 0, 5)
	if err := q1.Close(); err != nil {
		t.Fatal(err)
	}

	// submitted before Start so the single worker sees every job
	q := openQ(t, dir, 1)
	submit(q, 2, 7, 1)
	solver := &instantSolver{}
	q.Start(solver.solve)
	for _, id := range want {
		waitTerminal(t, q, id)
	}
	solver.mu.Lock()
	got := append([]string(nil), solver.order...)
	solver.mu.Unlock()
	if len(got) != len(want) {
		t.Fatalf("drained %d jobs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("drain order[%d] = %s, want %s\ngot  %v\nwant %v", i, got[i], want[i], got, want)
		}
	}
}

func TestQueueReopenResumesPending(t *testing.T) {
	dir := t.TempDir()
	q1 := openQ(t, dir, 0) // no workers: everything stays pending
	var ids []string
	for i := 0; i < 3; i++ {
		st, err := q1.Submit(testModel(i))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	if s := q1.Stats(); s.Depth != 3 {
		t.Fatalf("depth = %d, want 3", s.Depth)
	}
	if err := q1.Close(); err != nil {
		t.Fatal(err)
	}

	q2 := openQ(t, dir, 2)
	if s := q2.Stats(); s.Depth != 3 || s.CorruptTail != 0 {
		t.Fatalf("reopen stats: %+v", s)
	}
	solver := &instantSolver{}
	q2.Start(solver.solve)
	for _, id := range ids {
		if st := waitTerminal(t, q2, id); st.State != Done {
			t.Fatalf("resumed job %s: %+v", id, st)
		}
	}
	if err := q2.Close(); err != nil {
		t.Fatal(err)
	}

	// third life: terminal states survive, nothing resurrects, and a
	// duplicate submit of a completed class answers with the verdict
	q3 := openQ(t, dir, 0)
	if s := q3.Stats(); s.Depth != 0 {
		t.Fatalf("terminal jobs resurrected: %+v", s)
	}
	st, err := q3.Submit(testModel(0))
	if err != nil {
		t.Fatal(err)
	}
	if !st.Resubmitted || st.State != Done || !st.Verdict.Feasible {
		t.Fatalf("resubmit of completed class: %+v", st)
	}
}

func TestQueueCloseCheckpointsRunning(t *testing.T) {
	dir := t.TempDir()
	q, err := Open(dir, Options{Workers: 1, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	running := make(chan struct{})
	q.Start(func(ctx context.Context, m *core.Model) (Verdict, error) {
		close(running)
		<-ctx.Done() // solve "forever" until shutdown
		return Verdict{}, ctx.Err()
	})
	st, err := q.Submit(testModel(0))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-running:
	case <-time.After(5 * time.Second):
		t.Fatal("worker never started the job")
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	// the in-flight job checkpointed back to pending: its started
	// record has no terminal record, so replay resumes it
	q2 := openQ(t, dir, 0)
	s := q2.Stats()
	if s.Depth != 1 || s.Resumed != 1 {
		t.Fatalf("after checkpoint: %+v", s)
	}
	got, ok := q2.Get(st.ID)
	if !ok || got.State != Pending {
		t.Fatalf("checkpointed job: %+v", got)
	}
}

func TestQueueSolverOutcomes(t *testing.T) {
	q := openQ(t, t.TempDir(), 1)
	q.Start(func(ctx context.Context, m *core.Model) (Verdict, error) {
		switch core.Fingerprint(m) {
		case core.Fingerprint(testModel(1)):
			return Verdict{}, errors.New("boom")
		case core.Fingerprint(testModel(2)):
			return Verdict{Decided: false}, nil // budget ran out
		}
		return Verdict{Decided: true, Feasible: false, Source: "analysis"}, nil
	})
	cases := []struct {
		i         int
		wantState State
		wantErr   string
	}{
		{0, Done, ""},
		{1, Failed, "boom"},
		{2, Failed, "undecided: solve budget exhausted"},
	}
	for _, c := range cases {
		st, err := q.Submit(testModel(c.i))
		if err != nil {
			t.Fatal(err)
		}
		got := waitTerminal(t, q, st.ID)
		if got.State != c.wantState || got.Err != c.wantErr {
			t.Fatalf("model %d: %+v", c.i, got)
		}
	}
	if s := q.Stats(); s.Completed != 1 || s.Failed != 2 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestQueueWaitAndGetContract(t *testing.T) {
	q := openQ(t, t.TempDir(), 0) // nothing drains: Wait must time out
	st, err := q.Submit(testModel(0))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	got, err := q.Wait(ctx, st.ID)
	if !errors.Is(err, context.DeadlineExceeded) || got == nil || got.State != Pending {
		t.Fatalf("Wait on pending job: %+v, %v", got, err)
	}
	if _, err := q.Wait(context.Background(), "no-such-job"); err == nil {
		t.Fatal("Wait invented a job")
	}
	if _, ok := q.Get("no-such-job"); ok {
		t.Fatal("Get invented a job")
	}
	if jobs := q.Jobs(); len(jobs) != 1 || jobs[0].ID != st.ID {
		t.Fatalf("Jobs() = %+v", jobs)
	}
	if q.Stats().OldestAgeNS <= 0 {
		t.Fatal("pending job has no age")
	}
}

func TestQueueClosedOps(t *testing.T) {
	q := openQ(t, t.TempDir(), 0)
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	if err := q.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	if _, err := q.Submit(testModel(0)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Submit on closed queue: %v", err)
	}
}

func TestQueueSubmitRejectsInvalid(t *testing.T) {
	q := openQ(t, t.TempDir(), 0)
	m := core.NewModel()
	m.Comm.AddElement("a", 1)
	m.AddConstraint(&core.Constraint{
		Name: "c", Task: core.ChainTask("a"),
		Period: 3, Deadline: 0, Kind: core.Asynchronous, // non-positive deadline: invalid
	})
	if _, err := q.Submit(m); err == nil {
		t.Fatal("invalid model accepted")
	}
	if q.Bytes() != 0 {
		t.Fatal("rejected submit left journal bytes behind")
	}
}

func TestStateString(t *testing.T) {
	for st, want := range map[State]string{
		Pending: "pending", Running: "running", Done: "done", Failed: "failed", State(9): "state(9)",
	} {
		if st.String() != want {
			t.Fatalf("State(%d).String() = %q", int(st), st.String())
		}
	}
	if Pending.Terminal() || Running.Terminal() || !Done.Terminal() || !Failed.Terminal() {
		t.Fatal("Terminal misclassifies")
	}
}

var _ = fmt.Sprintf // keep fmt for debug edits
