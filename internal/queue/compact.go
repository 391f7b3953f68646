package queue

import (
	"fmt"
	"sort"

	"rtm/internal/trace"
)

// Compact rewrites the journal to the minimal record set that replays
// to the same job-state map: one record per job — the terminal record
// for done/failed jobs (replay reconstructs them as stubs, dropping
// the model a terminal job no longer needs), the submitted record for
// pending/running jobs (running reverts to pending on replay, exactly
// the crash-checkpoint rule). Started records and terminal jobs'
// model-carrying submitted records are what the rewrite sheds — on a
// long-lived queue that is almost the whole journal. The journal also
// compacts itself once it outgrows its live set (compactIfBloatedLocked).
//
// The rewrite is store.Log.Rewrite, the crash contract every framed log
// shares: a crash at any point leaves either the old or the new
// journal, never a mixture.
func (q *Queue) Compact() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return ErrClosed
	}
	return q.compactLocked()
}

// compactLocked is Compact with q.mu held.
func (q *Queue) compactLocked() error {
	jobs := make([]*job, 0, len(q.jobs))
	for _, j := range q.jobs {
		jobs = append(jobs, j)
	}
	sort.Slice(jobs, func(i, k int) bool { return jobs[i].seq < jobs[k].seq })

	err := q.log.Rewrite(func(put func([]byte) error) error {
		for _, j := range jobs {
			// Priority rides along on terminal records too — informational
			// there, but it keeps the replayed status identical to the live
			// one (the equivalence the compaction test pins).
			rec := &trace.QueueRecordJSON{Fingerprint: j.id, Unix: j.submitUnix, Priority: j.priority}
			switch j.state {
			case Done:
				rec.Type = trace.QueueDone
				rec.Feasible = j.verdict.Feasible
				rec.Source = j.verdict.Source
			case Failed:
				rec.Type = trace.QueueFailed
				rec.Error = j.errMsg
				if rec.Error == "" {
					rec.Error = "failed"
				}
			default:
				if j.model == nil {
					continue // defensive: a model-less job cannot be re-journaled or run
				}
				rec.Type = trace.QueueSubmitted
				rec.DeadlineUnix = j.deadline
				rec.Model = trace.NewModelJSON(j.model)
			}
			payload, err := trace.EncodeQueueRecord(rec)
			if err != nil {
				return err
			}
			if err := put(payload); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("queue: compact: %w", err)
	}
	return nil
}
