package queue

import (
	"context"
	"slices"
	"sync"
	"time"

	"rtm/internal/trace"
)

// workerPool is the background drain state.
type workerPool struct {
	ctx     context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	started bool
}

// Start spawns the worker pool (Options.Workers goroutines) draining
// pending jobs through solve in submission order. With zero
// workers Start is a no-op: the queue accepts and persists jobs but
// drains nothing — a later process (or test) with workers picks them
// up. Start may be called once per Queue.
func (q *Queue) Start(solve Solver) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.workers.started || q.closed || q.opt.Workers <= 0 {
		return
	}
	q.workers.started = true
	q.workers.ctx, q.workers.cancel = context.WithCancel(context.Background())
	for i := 0; i < q.opt.Workers; i++ {
		q.workers.wg.Add(1)
		go q.drain(solve)
	}
}

// drain is one worker: pop the oldest pending job, journal started,
// solve, journal the terminal record, notify waiters; repeat until the
// queue closes.
func (q *Queue) drain(solve Solver) {
	defer q.workers.wg.Done()
	for {
		q.mu.Lock()
		for len(q.pending) == 0 && !q.closed {
			q.cond.Wait()
		}
		if q.closed {
			q.mu.Unlock()
			return
		}
		j := q.pending[0]
		q.pending[0] = nil
		q.pending = q.pending[1:]
		j.state = Running
		q.running++
		q.transitionLocked(&trace.QueueRecordJSON{
			Type: trace.QueueStarted, Fingerprint: j.id, Unix: time.Now().Unix(),
		})
		ctx := q.workers.ctx
		q.mu.Unlock()

		v, err := solve(ctx, j.model)

		q.mu.Lock()
		q.running--
		switch {
		case err != nil && ctx.Err() != nil:
			// shutdown checkpoint: the job reverts to pending — in
			// memory for observers, and on disk by virtue of having no
			// terminal record. The next Open resumes it.
			j.state = Pending
			q.pending = slices.Insert(q.pending, 0, j)
			q.mu.Unlock()
			return
		case err != nil:
			q.terminalLocked(j, Failed, Verdict{}, err.Error())
		case !v.Decided:
			// the solver's budget ran out without a verdict: terminal,
			// honestly reported — a resubmission dedups onto this job
			// until compaction forgets it, then opens a fresh one
			q.terminalLocked(j, Failed, Verdict{}, "undecided: solve budget exhausted")
		default:
			q.terminalLocked(j, Done, v, "")
		}
		q.mu.Unlock()
	}
}

// terminalLocked moves a job to a terminal state: journal the record,
// update counters, release waiters. Caller holds q.mu.
func (q *Queue) terminalLocked(j *job, st State, v Verdict, errMsg string) {
	rec := &trace.QueueRecordJSON{Fingerprint: j.id, Unix: time.Now().Unix()}
	if st == Done {
		rec.Type = trace.QueueDone
		rec.Feasible = v.Feasible
		rec.Source = v.Source
		q.completed++
	} else {
		rec.Type = trace.QueueFailed
		rec.Error = errMsg
		q.failed++
	}
	q.transitionLocked(rec)
	q.endLocked(j, st, v, errMsg)
	q.compactIfBloatedLocked()
}

// endLocked ends a job in memory: it records the outcome, releases
// waiters and stops counting toward the live set, so the next
// compaction forgets it. Caller holds q.mu (or is Open's replay).
func (q *Queue) endLocked(j *job, st State, v Verdict, errMsg string) {
	j.state = st
	j.verdict = v
	j.errMsg = errMsg
	close(j.done)
	q.setLive(j, 0)
}

// Close stops the worker pool (canceling in-flight solves, which
// checkpoint back to pending), then syncs and closes the journal.
// Pending and checkpointed jobs survive on disk for the next Open.
func (q *Queue) Close() error {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return nil
	}
	q.closed = true
	if q.workers.cancel != nil {
		q.workers.cancel()
	}
	q.cond.Broadcast()
	q.mu.Unlock()

	q.workers.wg.Wait()

	q.mu.Lock()
	defer q.mu.Unlock()
	return q.log.Close()
}
