package service

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rtm/internal/core"
	"rtm/internal/queue"
)

// TestQueueSoakUnderRace is the satellite race/soak test for the async
// solve queue: 200 concurrent submitters post 8 isomorphic surfaces of
// a handful of fingerprint classes at a service whose synchronous
// exact stage is throttled to one slot with fail-fast shedding, while
// 4 queue workers drain the resulting jobs. Pinned properties:
//
//   - exactly one exact search runs per fingerprint class, no matter
//     how the work split between the sync path and the queue;
//   - every submitter's request terminates: a synchronous verdict or a
//     job handle whose job reaches Done — zero permanently-lost
//     requests;
//   - every observer sees the same verdict per class, and it matches a
//     fresh unthrottled service's answer;
//   - the metrics tier-sum invariant holds with queue completions
//     folded in.
//
// Run under `go test -race` (the default `make test` does).
func TestQueueSoakUnderRace(t *testing.T) {
	classes := []*core.Model{
		density1Instance(1, []int{2, 6, 6, 6}),
		density1Instance(1, []int{2, 3, 6}),
		density1Instance(1, []int{2, 4, 4}),
		density1Instance(1, []int{3, 3, 3}),
	}
	fps := make([]string, len(classes))
	for i, m := range classes {
		fps[i] = core.Fingerprint(m)
	}

	// reference verdicts from an unthrottled, queue-less service with
	// the same pipeline shape (exact-only)
	ref := New(Options{SearchConcurrency: -1, DisableAnalysis: true, DisableHeuristic: true})
	want := make([]bool, len(classes))
	for i, m := range classes {
		res, err := ref.Schedule(context.Background(), m)
		if err != nil || !res.Decided {
			t.Fatalf("reference solve of class %d: %+v, %v", i, res, err)
		}
		want[i] = res.Feasible
	}

	q, err := queue.Open(t.TempDir(), queue.Options{Workers: 4, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	svc := New(Options{
		CacheSize:         64,
		SearchConcurrency: 1,
		SearchQueueWait:   -1, // fail fast: saturate the shed path
		DisableAnalysis:   true,
		DisableHeuristic:  true,
		Queue:             q,
	})
	ctx := context.Background()

	// 8 pre-built isomorphic surfaces per class: dedup must happen on
	// the fingerprint, not on pointer or surface equality
	const surfacesPerClass = 8
	surfaces := make([][]*core.Model, len(classes))
	for ci, m := range classes {
		surfaces[ci] = make([]*core.Model, surfacesPerClass)
		surfaces[ci][0] = m
		for s := 1; s < surfacesPerClass; s++ {
			surfaces[ci][s] = renameModel(rand.New(rand.NewSource(int64(ci*100+s))), m)
		}
	}

	const submittersPerClass = 50 // 4 classes x 50 = 200 submitters
	var syncServed, enqueued atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, len(classes)*submittersPerClass)
	for ci := range classes {
		for g := 0; g < submittersPerClass; g++ {
			wg.Add(1)
			go func(ci, g int) {
				defer wg.Done()
				m := surfaces[ci][g%surfacesPerClass]
				// odd submitters are explicitly-async clients (rtserved's
				// ?async=1); even ones try sync first and shed into the
				// queue under pressure
				var res *Result
				var job *queue.Status
				var err error
				if g%2 == 1 {
					job, err = svc.Enqueue(m)
				} else {
					res, job, err = svc.ScheduleOrEnqueue(ctx, m)
				}
				if err != nil {
					errs <- err
					return
				}
				switch {
				case res != nil:
					syncServed.Add(1)
					if !res.Decided || res.Feasible != want[ci] {
						errs <- errorString("sync verdict diverged from reference")
						return
					}
					if res.Feasible && !res.Report.Feasible {
						errs <- errUnverified
						return
					}
				case job != nil:
					enqueued.Add(1)
					if job.ID != fps[ci] {
						errs <- errorString("job handle is not the class fingerprint")
						return
					}
					wctx, cancel := context.WithTimeout(ctx, 60*time.Second)
					st, werr := q.Wait(wctx, job.ID)
					cancel()
					if werr != nil {
						errs <- werr
						return
					}
					if st.State != queue.Done || !st.Verdict.Decided || st.Verdict.Feasible != want[ci] {
						errs <- errorString("queued verdict diverged from reference")
						return
					}
				default:
					errs <- errorString("neither result nor job returned")
					return
				}
				// eventual consistency: once the class is decided, a
				// synchronous re-request must serve it without shedding
				res2, err := svc.Schedule(ctx, m)
				if err != nil {
					errs <- err
					return
				}
				if !res2.Decided || res2.Feasible != want[ci] {
					errs <- errorString("post-drain verdict diverged from reference")
					return
				}
			}(ci, g)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	total := int64(len(classes) * submittersPerClass)
	if got := syncServed.Load() + enqueued.Load(); got != total {
		t.Fatalf("sync(%d) + enqueued(%d) = %d submitters accounted, want %d",
			syncServed.Load(), enqueued.Load(), got, total)
	}

	mt := svc.Metrics().Snapshot()
	qs := q.Stats()
	// the headline property: one exact search per fingerprint class,
	// across the sync path and the queue combined
	if mt["searches"] != int64(len(classes)) {
		t.Fatalf("searches = %d, want exactly %d (one per class)", mt["searches"], len(classes))
	}
	// tier-sum invariant, extended: every pipeline decision came from
	// exactly one tier, and queue completions are decisions too — each
	// completed job consumed a pipeline decision or a cache/store hit
	decided := mt["analysis_solved"] + mt["analysis_refuted"] + mt["heuristic_solved"] +
		mt["exact_solved"] + mt["exact_refuted"]
	if decided != int64(len(classes)) {
		t.Fatalf("deciding-tier sum = %d, want %d", decided, len(classes))
	}
	if mt["undecided"] != 0 {
		t.Fatalf("undecided = %d, want 0", mt["undecided"])
	}
	if mt["enqueued"] != enqueued.Load() {
		t.Fatalf("enqueued metric = %d, submitters counted %d", mt["enqueued"], enqueued.Load())
	}
	// zero permanently-lost requests: every journaled job terminated,
	// terminated Done, and nothing is left pending or running
	if qs.Failed != 0 || qs.Depth != 0 || qs.Running != 0 {
		t.Fatalf("queue left work behind: %+v", qs)
	}
	if qs.Completed != qs.Submitted {
		t.Fatalf("completed %d of %d journaled jobs", qs.Completed, qs.Submitted)
	}
	if qs.Submitted > int64(len(classes)) {
		t.Fatalf("journaled %d jobs for %d classes — fingerprint dedup failed", qs.Submitted, len(classes))
	}
	if qs.Submitted == 0 {
		t.Fatal("no job was ever journaled — the queue path went unexercised")
	}
	// dedup accounting: every enqueue beyond the first per class was a
	// dedup hit
	if qs.Submitted+qs.Deduped != enqueued.Load() {
		t.Fatalf("submitted(%d) + deduped(%d) != enqueue calls(%d)", qs.Submitted, qs.Deduped, enqueued.Load())
	}
}
