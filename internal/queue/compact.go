package queue

import (
	"fmt"
	"sort"

	"rtm/internal/trace"
)

// Compact rewrites the journal to the submitted records of its live
// jobs, in submission order, and forgets every finished job: a
// running job replays as pending (the crash-checkpoint rule), and a
// done or failed job is dropped from the job table, so its class can
// be submitted again as a new job. Started records, terminal records
// and finished jobs' model-carrying submitted records are what the
// rewrite sheds — on a long-lived queue that is almost the whole
// journal. The journal also compacts itself once it outgrows its live
// set (compactIfBloatedLocked).
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
	live := make([]*job, 0, len(q.jobs))
	for _, j := range q.jobs {
		if !j.state.Terminal() {
			live = append(live, j)
		}
	}
	sort.Slice(live, func(i, k int) bool { return live[i].seq < live[k].seq })

	err := q.log.Rewrite(func(put func([]byte) error) error {
		for _, j := range live {
			payload, err := trace.EncodeQueueRecord(&trace.QueueRecordJSON{
				Type: trace.QueueSubmitted, Fingerprint: j.id, Unix: j.submitUnix,
				Model: trace.NewModelJSON(j.model),
			})
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
	// the old journal is gone, and with it every finished job's records
	for id, j := range q.jobs {
		if j.state.Terminal() {
			delete(q.jobs, id)
		}
	}
	return nil
}
