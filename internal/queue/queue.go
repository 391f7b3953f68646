// Package queue is the durable async solve queue: the place where
// slow work lands instead of being lost. The synchronous service
// sheds cold NP-hard bursts with ErrOverloaded once its exact-search
// admission is saturated — correct backpressure, but the shed
// request's answer is gone and the client is left with a retry loop
// against a worst-case-exponential solver. The queue converts that
// shed into an eventual answer: jobs are journaled durably,
// deduplicated by canonical fingerprint (a thundering herd of
// isomorphic specs costs one search), drained by a background worker
// pool through the same analysis → heuristic → budgeted-exact
// pipeline, and their decided outcomes land in the schedule store so
// the whole fleet's cache warms.
//
// Durability is a store.Log, the schedule store's crash-safe log: the
// journal (<dir>/queue.log) is an append-only log of
// trace.QueueRecordJSON state transitions — submitted, started, done,
// failed — replayed on Open with the same longest-clean-prefix
// recovery and torn-tail truncation as the schedule store, and
// compacted to one record per job once it outgrows its live set. The
// replay rules make crash safety a non-event:
//
//   - A submitted record with no terminal record is a pending job,
//     whether or not a started record follows it — a crash (or
//     graceful shutdown) mid-solve costs the work in flight, never
//     the job. Shutdown therefore "checkpoints" running jobs back to
//     pending simply by writing nothing.
//   - A done or failed record is terminal and wins forever: replay
//     ignores any later record for that fingerprint, so a job whose
//     done record survived can never be resurrected or duplicated.
//   - Submitted records embed the model (validated at decode time),
//     so a recovered job is always executable.
//
// The queue stores verdicts, not schedules: a completed job's
// schedule is served by re-requesting the class synchronously, which
// hits the store the worker warmed. That keeps the journal small and
// keeps the store the single source of schedule truth.
package queue

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"time"

	"rtm/internal/core"
	"rtm/internal/trace"
)

// State is a job's lifecycle position.
type State int

const (
	// Pending jobs are journaled and waiting for a worker.
	Pending State = iota
	// Running jobs are being solved by a worker right now.
	Running
	// Done jobs have a decided verdict (terminal).
	Done
	// Failed jobs ended without a decided verdict (terminal); Err
	// says why (solver error, or budget exhaustion = "undecided").
	Failed
)

// String renders the state for logs and HTTP bodies.
func (s State) String() string {
	switch s {
	case Pending:
		return "pending"
	case Running:
		return "running"
	case Done:
		return "done"
	case Failed:
		return "failed"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s == Done || s == Failed }

// Verdict is a decided outcome as the queue records it. The schedule
// itself lives in the store; the queue keeps only the answer.
type Verdict struct {
	Decided  bool
	Feasible bool
	Source   string // pipeline tier that produced it
}

// Solver decides one model. The queue calls it from worker
// goroutines; implementations must be safe for concurrent use. A
// Verdict with Decided false (the solver's budget ran out) marks the
// job failed; an error of the context's cancellation reverts the job
// to pending (shutdown checkpointing), and any other error marks it
// failed.
type Solver func(ctx context.Context, m *core.Model) (Verdict, error)

// Options configure a Queue.
type Options struct {
	// Workers is the background worker pool size Start spawns. 0
	// means no background draining (jobs stay pending until a later
	// process drains them) — useful for enqueue-only processes and
	// crash tests.
	Workers int
	// NoSync skips the fsync after each journal append (tests and
	// benchmarks; a crash may lose recent transitions but never the
	// recovered prefix).
	NoSync bool
}

// SubmitOptions order a job within the drain schedule.
type SubmitOptions struct {
	// Priority drains higher values first.
	Priority int
	// Deadline, when nonzero, drains earlier deadlines first within a
	// priority band (EDF). Zero means "no deadline" and sorts last.
	Deadline time.Time
}

// Status is a point-in-time snapshot of one job.
type Status struct {
	// ID is the job handle: the canonical model fingerprint.
	ID string
	// State is the lifecycle position at snapshot time.
	State State
	// Verdict is meaningful when State == Done.
	Verdict Verdict
	// Err is the failure reason when State == Failed.
	Err string
	// SubmitUnix is the submission time (seconds).
	SubmitUnix int64
	// Priority echoes the submit option.
	Priority int
	// Resubmitted reports whether this Submit deduplicated onto an
	// already-known job instead of creating one.
	Resubmitted bool
}

// DeadlineExpired reports whether the job failed because its deadline
// passed before a worker reached it.
func (s *Status) DeadlineExpired() bool {
	return s.State == Failed && s.Err == ErrDeadlineExpired.Error()
}

// Stats is the queue's counter/gauge snapshot.
type Stats struct {
	Submitted     int64 // jobs journaled by Submit (excludes dedup hits)
	Deduped       int64 // Submits answered by an existing job
	Completed     int64 // jobs that reached Done
	Failed        int64 // jobs that reached Failed
	Expired       int64 // of Failed: jobs whose deadline passed before draining
	Resumed       int64 // pending jobs recovered by Open's replay
	Replayed      int64 // journal records accepted by Open's replay
	CorruptTail   int64 // torn/corrupt tail truncation events at Open
	JournalErrors int64 // failed appends (durability lost, not state) and self-compactions
	Depth         int64 // pending jobs right now
	Running       int64 // jobs being solved right now
	OldestAgeNS   int64 // age of the oldest non-terminal job, 0 if none
}

// job is the queue's mutable per-fingerprint state.
type job struct {
	id         string
	model      *core.Model
	priority   int
	deadline   int64 // unix seconds; 0 = none
	seq        uint64
	submitUnix int64
	submitted  time.Time // monotonic-capable local clock for age/latency

	state   State
	verdict Verdict
	errMsg  string
	started bool          // a started record was seen (replay: crash mid-solve)
	done    chan struct{} // closed at terminal state
	liveLen int64         // framed bytes of the record Compact keeps for the job
}

// snapshot renders the job under the queue lock.
func (j *job) snapshot() *Status {
	return &Status{
		ID: j.id, State: j.state, Verdict: j.verdict, Err: j.errMsg,
		SubmitUnix: j.submitUnix, Priority: j.priority,
	}
}

// pendingHeap orders pending jobs: priority desc, then deadline asc
// (zero = +inf), then submission order.
type pendingHeap []*job

func (h pendingHeap) Len() int { return len(h) }
func (h pendingHeap) Less(a, b int) bool {
	x, y := h[a], h[b]
	if x.priority != y.priority {
		return x.priority > y.priority
	}
	xd, yd := x.deadline, y.deadline
	if xd == 0 {
		xd = 1<<63 - 1
	}
	if yd == 0 {
		yd = 1<<63 - 1
	}
	if xd != yd {
		return xd < yd
	}
	return x.seq < y.seq
}
func (h pendingHeap) Swap(a, b int) { h[a], h[b] = h[b], h[a] }
func (h *pendingHeap) Push(x any)   { *h = append(*h, x.(*job)) }
func (h *pendingHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return x
}

// ErrClosed reports an operation on a closed queue.
var ErrClosed = errors.New("queue: closed")

// ErrDeadlineExpired is the failure reason of a job whose submit-time
// deadline passed before a worker reached it. The deadline already
// ordered the drain (EDF within a priority band); enforcement makes
// it a contract: a late answer to a real-time question is not an
// answer, so an expired job fails fast at drain time — the solver is
// never invoked — instead of silently burning exponential search
// budget on a verdict nobody can use. Expired jobs are terminal
// failures with this error as their Err, distinguishable by
// Status.DeadlineExpired.
var ErrDeadlineExpired = errors.New("queue: deadline expired before the job was solved")

// Submit journals a job for m and returns its status. Submission is
// deduplicated by canonical fingerprint: if a job for m's isomorphism
// class already exists — pending, running, or terminal — that job's
// status is returned with Resubmitted set and nothing is written. A
// job only exists once its submitted record is durably journaled, so
// an accepted handle survives any crash.
func (q *Queue) Submit(m *core.Model, opt SubmitOptions) (*Status, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	fp := core.Fingerprint(m)
	rec := &trace.QueueRecordJSON{
		Type:        trace.QueueSubmitted,
		Fingerprint: fp,
		Unix:        time.Now().Unix(),
		Priority:    opt.Priority,
		Model:       trace.NewModelJSON(m),
	}
	if !opt.Deadline.IsZero() {
		rec.DeadlineUnix = opt.Deadline.Unix()
	}

	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil, ErrClosed
	}
	if j, ok := q.jobs[fp]; ok {
		q.deduped++
		st := j.snapshot()
		st.Resubmitted = true
		return st, nil
	}
	// the job exists only once it is durable: a failed append is a
	// failed submit, not a memory-only job
	n, err := q.appendLocked(rec)
	if err != nil {
		return nil, err
	}
	q.seq++
	j := &job{
		id: fp, model: m, priority: opt.Priority, deadline: rec.DeadlineUnix,
		seq: q.seq, submitUnix: rec.Unix, submitted: time.Now(),
		state: Pending, done: make(chan struct{}),
	}
	q.jobs[fp] = j
	q.setLive(j, n)
	heap.Push(&q.pending, j)
	q.submitted++
	q.compactIfBloatedLocked()
	q.cond.Signal()
	return j.snapshot(), nil
}

// Get returns the job's status, if it exists.
func (q *Queue) Get(id string) (*Status, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return nil, false
	}
	return j.snapshot(), true
}

// Wait blocks until the job reaches a terminal state (returning its
// final status) or ctx expires (returning the current status plus
// ctx's error) — the long-poll primitive behind GET /job/<id>.
func (q *Queue) Wait(ctx context.Context, id string) (*Status, error) {
	q.mu.Lock()
	j, ok := q.jobs[id]
	q.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("queue: no job %s", id)
	}
	select {
	case <-j.done:
	case <-ctx.Done():
		q.mu.Lock()
		st := j.snapshot()
		q.mu.Unlock()
		return st, ctx.Err()
	}
	q.mu.Lock()
	st := j.snapshot()
	q.mu.Unlock()
	return st, nil
}

// Jobs returns a snapshot of every known job (unordered).
func (q *Queue) Jobs() []*Status {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]*Status, 0, len(q.jobs))
	for _, j := range q.jobs {
		out = append(out, j.snapshot())
	}
	return out
}

// Stats snapshots the queue's counters and gauges.
func (q *Queue) Stats() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	s := Stats{
		Submitted: q.submitted, Deduped: q.deduped,
		Completed: q.completed, Failed: q.failed, Expired: q.expired,
		Resumed: q.resumed, Replayed: q.replayed,
		CorruptTail: q.corruptTail, JournalErrors: q.journalErrors,
		Depth: int64(len(q.pending)), Running: q.running,
	}
	var oldest time.Time
	for _, j := range q.jobs {
		if !j.state.Terminal() && (oldest.IsZero() || j.submitted.Before(oldest)) {
			oldest = j.submitted
		}
	}
	if !oldest.IsZero() {
		s.OldestAgeNS = int64(time.Since(oldest))
	}
	return s
}

// Dir returns the queue's journal directory.
func (q *Queue) Dir() string { return q.dir }

// Bytes returns the clean length of the journal.
func (q *Queue) Bytes() int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.log.Size()
}
