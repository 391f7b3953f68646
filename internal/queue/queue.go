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
// compacted to the submitted records of its live jobs once it
// outgrows them. The replay rules make crash safety a non-event:
//
//   - A submitted record with no terminal record is a pending job,
//     whether or not a started record follows it — a crash (or
//     graceful shutdown) mid-solve costs the work in flight, never
//     the job. Shutdown therefore "checkpoints" running jobs back to
//     pending simply by writing nothing.
//   - A done or failed record ends only the job that the submitted
//     record before it opened, so a job whose terminal record
//     survived can never be resurrected; a later submitted record
//     for the same fingerprint opens a new job.
//   - Submitted records embed the model (validated at decode time),
//     so a recovered job is always executable.
//
// A finished job is remembered until the next compaction, which
// forgets it: a decided verdict's home is the LRU and the store, so
// the queue holds only live work, drained in submission order.
//
// The queue stores verdicts, not schedules: a completed job's
// schedule is served by re-requesting the class synchronously, which
// hits the store the worker warmed. That keeps the journal small and
// keeps the store the single source of schedule truth.
package queue

import (
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
	// Resubmitted reports whether this Submit deduplicated onto an
	// already-known job instead of creating one.
	Resubmitted bool
}

// Stats is the queue's counter/gauge snapshot.
type Stats struct {
	Submitted     int64 // jobs journaled by Submit (excludes dedup hits)
	Deduped       int64 // Submits answered by an existing job
	Completed     int64 // jobs that reached Done
	Failed        int64 // jobs that reached Failed
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
	seq        uint64
	submitUnix int64
	submitted  time.Time // monotonic-capable local clock for age/latency

	state   State
	verdict Verdict
	errMsg  string
	started bool          // a started record was seen (replay: crash mid-solve)
	done    chan struct{} // closed at terminal state
	liveLen int64         // framed bytes of the submitted record Compact keeps; 0 once terminal
}

// snapshot renders the job under the queue lock.
func (j *job) snapshot() *Status {
	return &Status{
		ID: j.id, State: j.state, Verdict: j.verdict, Err: j.errMsg,
		SubmitUnix: j.submitUnix,
	}
}

// ErrClosed reports an operation on a closed queue.
var ErrClosed = errors.New("queue: closed")

// Submit journals a job for m and returns its status. Submission is
// deduplicated by canonical fingerprint: if a job for m's isomorphism
// class is known — pending, running, or terminal and not yet
// compacted away — that job's status is returned with Resubmitted set
// and nothing is written. A job only exists once its submitted record
// is durably journaled, so an accepted handle survives any crash.
func (q *Queue) Submit(m *core.Model) (*Status, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	fp := core.Fingerprint(m)
	rec := &trace.QueueRecordJSON{
		Type:        trace.QueueSubmitted,
		Fingerprint: fp,
		Unix:        time.Now().Unix(),
		Model:       trace.NewModelJSON(m),
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
		id: fp, model: m, seq: q.seq, submitUnix: rec.Unix, submitted: time.Now(),
		state: Pending, done: make(chan struct{}),
	}
	q.jobs[fp] = j
	q.setLive(j, n)
	q.pending = append(q.pending, j)
	q.submitted++
	q.compactIfBloatedLocked()
	q.cond.Signal()
	return j.snapshot(), nil
}

// Get returns the job's status, if it is known. A finished job is
// known until the next compaction.
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
		Completed: q.completed, Failed: q.failed,
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
