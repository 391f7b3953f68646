package service

import (
	"context"
	"testing"
	"time"

	"rtm/internal/core"
	"rtm/internal/exact"
	"rtm/internal/queue"
)

// fastBurstClasses are the twelve classes of the cold-burst workload
// that exact search decides in milliseconds: density-1 deadline sets
// at weights 2 and 3, all infeasible, so only exhaustion decides them.
// The burst's four other classes, w=3 over {2,4,6,12}, {2,3,9,18},
// {3,4,4,6} and {2,5,5,10}, are left out: each searches 4.5M–89M
// nodes (seconds to tens of seconds), because the candidate budget
// does not bound the nodes explored between candidates. That is a
// property of the search budget, not of the queue.
func fastBurstClasses() []*core.Model {
	sets := [][]int{
		{2, 3, 6}, {2, 4, 4}, {3, 3, 3}, {4, 4, 4, 4},
		{2, 4, 6, 12}, {2, 3, 9, 18}, {3, 4, 4, 6}, {2, 5, 5, 10},
	}
	var out []*core.Model
	for _, ds := range sets {
		out = append(out, density1Instance(2, ds))
	}
	for _, ds := range sets[:4] {
		out = append(out, density1Instance(3, ds))
	}
	return out
}

// TestQueueBurstConversion pins what the async queue makes of a cold
// burst that the exact stage cannot admit. With the only admission
// slot occupied and fail-fast shedding, every ScheduleOrEnqueue sheds
// into a journaled job; the burst posts each class twice and the
// duplicate coalesces onto the first job. Then every job must reach a
// terminal state (conversion 1.00) with the verdict of an unthrottled
// synchronous service.
//
// The burst is journaled by a queue without workers and drained after
// a restart. Queue workers bypass the admission slot, so a live worker
// could decide a class before its duplicate arrives and turn that
// duplicate into a cache hit; draining after the restart keeps every
// request on the shed path and also covers journal replay.
func TestQueueBurstConversion(t *testing.T) {
	ctx := context.Background()
	classes := fastBurstClasses()
	dir := t.TempDir()
	opt := Options{
		SearchConcurrency: 1,
		SearchQueueWait:   -1,
		DisableAnalysis:   true,
		DisableHeuristic:  true,
		Exact:             exact.Options{MaxCandidates: 2_000_000},
	}

	q, err := queue.Open(dir, queue.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	opt.Queue = q
	svc := New(opt)
	svc.sem <- struct{}{} // occupy the only admission slot
	for round := 0; round < 2; round++ {
		for _, m := range classes {
			res, job, err := svc.ScheduleOrEnqueue(ctx, m)
			if err != nil || res != nil || job == nil {
				t.Fatalf("round %d: ScheduleOrEnqueue = %+v, %+v, %v; want a job", round, res, job, err)
			}
			if job.ID != core.Fingerprint(m) || job.Resubmitted != (round == 1) {
				t.Fatalf("round %d: job %s resubmitted=%v", round, job.ID[:8], job.Resubmitted)
			}
		}
	}
	<-svc.sem
	n := int64(len(classes))
	if st := q.Stats(); st.Submitted != n || st.Deduped != n {
		t.Fatalf("queue journaled %d jobs and coalesced %d, want %d and %d", st.Submitted, st.Deduped, n, n)
	}
	if got := svc.Metrics().Searches.Load(); got != 0 {
		t.Fatalf("the saturated service ran %d searches", got)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}

	q, err = queue.Open(dir, queue.Options{Workers: 2, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	opt.Queue = q
	New(opt) // starts the workers on the replayed jobs

	oracle := New(Options{
		SearchConcurrency: -1,
		DisableAnalysis:   true,
		DisableHeuristic:  true,
		Exact:             opt.Exact,
	})
	for _, m := range classes {
		fp := core.Fingerprint(m)
		wctx, cancel := context.WithTimeout(ctx, 60*time.Second)
		st, err := q.Wait(wctx, fp)
		cancel()
		if err != nil {
			t.Fatalf("job %s never terminated: %v", fp[:8], err)
		}
		ref, err := oracle.Schedule(ctx, m)
		if err != nil {
			t.Fatal(err)
		}
		if st.State != queue.Done || !st.Verdict.Decided || !ref.Decided || st.Verdict.Feasible != ref.Feasible {
			t.Fatalf("job %s: %s %+v; synchronous verdict decided=%v feasible=%v",
				fp[:8], st.State, st.Verdict, ref.Decided, ref.Feasible)
		}
	}
	if st := q.Stats(); st.Completed != n || st.Failed != 0 {
		t.Fatalf("conversion: %d done, %d failed of %d jobs", st.Completed, st.Failed, n)
	}
}
