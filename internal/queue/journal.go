package queue

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"rtm/internal/store"
	"rtm/internal/trace"
)

// journalName is the queue's journal inside its directory. The file
// is a store.Log — the schedule store's framing, recovery and rewrite
// — but never in the store's directory: queue state and decided
// outcomes are different lifetimes (a job is forgotten at the first
// compaction after it ends; store records are forever).
const journalName = "queue.log"

// Queue is a durable, fingerprint-deduplicated solve queue. Create
// with Open, then Start a worker pool; all methods are safe for
// concurrent use.
type Queue struct {
	dir string
	opt Options

	mu   sync.Mutex
	cond *sync.Cond // signals workers that pending gained a job (or closing)

	log     *store.Log
	live    int64 // sum of jobs' liveLen: the journal's size once compacted
	jobs    map[string]*job
	pending []*job // submission (seq) order; the front drains first
	seq     uint64
	closed  bool

	submitted     int64
	deduped       int64
	completed     int64
	failed        int64
	resumed       int64
	replayed      int64
	corruptTail   int64
	journalErrors int64
	running       int64

	workers workerPool
}

// Open opens (creating if necessary) the queue rooted at dir,
// replaying the journal into the job table and truncating any torn or
// corrupt tail to the clean prefix. Recovery rules: a terminal record
// ends the job its fingerprint's last submitted record opened (a done
// job is never resurrected); submitted records without a surviving
// terminal record become pending again, in submission order, whether
// or not the crash interrupted a worker mid-solve.
func Open(dir string, opt Options) (*Queue, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("queue: %w", err)
	}
	q := &Queue{dir: dir, opt: opt, jobs: make(map[string]*job)}
	q.cond = sync.NewCond(&q.mu)
	var dropped bool
	var err error
	q.log, dropped, err = store.OpenLog(filepath.Join(dir, journalName), opt.NoSync, func(payload []byte, n int64) error {
		rec, err := trace.DecodeQueueRecord(payload)
		if err != nil {
			return err
		}
		q.replay(rec, n)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("queue: %w", err)
	}
	if dropped {
		q.corruptTail++
	}

	// every surviving non-terminal job is pending again; jobs a crash
	// interrupted mid-solve (started, no terminal) count as resumed
	for _, j := range q.jobs {
		if j.state.Terminal() {
			continue
		}
		q.pending = append(q.pending, j)
		if j.started {
			q.resumed++
		}
	}
	sort.Slice(q.pending, func(a, b int) bool { return q.pending[a].seq < q.pending[b].seq })
	return q, nil
}

// replay applies one journal record, framed in n bytes, to the job
// table (Open only; no locking, no appending). A fingerprint's job is
// open from its submitted record to its terminal record: records that
// find no open job end nothing and start nothing, and a submitted
// record after a terminal one opens a new job.
func (q *Queue) replay(rec *trace.QueueRecordJSON, n int64) {
	q.replayed++
	j := q.jobs[rec.Fingerprint]
	open := j != nil && !j.state.Terminal()
	switch rec.Type {
	case trace.QueueSubmitted:
		if open {
			return // duplicate submit: first wins
		}
		m, err := rec.Model.ToModel()
		if err != nil {
			// unreachable: DecodeQueueRecord validated the model; be
			// defensive anyway and drop the job rather than panic later
			return
		}
		q.seq++
		j = &job{
			id: rec.Fingerprint, model: m, seq: q.seq,
			submitUnix: rec.Unix, submitted: timeNowAt(rec.Unix),
			state: Pending, done: make(chan struct{}),
		}
		q.jobs[rec.Fingerprint] = j
		q.setLive(j, n)
	case trace.QueueStarted:
		if open {
			j.started = true
		}
	case trace.QueueDone:
		if open {
			q.endLocked(j, Done, Verdict{Decided: true, Feasible: rec.Feasible, Source: rec.Source}, "")
		}
	case trace.QueueFailed:
		if open {
			q.endLocked(j, Failed, Verdict{}, rec.Error)
		}
	}
}

// setLive records that j's surviving record — the submitted record
// Compact keeps for it — is framed in n bytes (0: Compact keeps none).
func (q *Queue) setLive(j *job, n int64) {
	q.live += n - j.liveLen
	j.liveLen = n
}

// appendLocked encodes, frames, writes and (policy permitting) fsyncs
// one record, returning its framed length. Caller holds q.mu.
func (q *Queue) appendLocked(rec *trace.QueueRecordJSON) (int64, error) {
	payload, err := trace.EncodeQueueRecord(rec)
	if err != nil {
		return 0, err
	}
	n, err := q.log.Append(payload)
	if err != nil {
		return 0, fmt.Errorf("queue: %w", err)
	}
	return n, nil
}

// transitionLocked journals a non-submitted state transition. Unlike
// Submit, a failed append here degrades durability, not state: the
// in-memory transition proceeds and the failure is counted — the
// replayed journal will simply re-run the job, which is idempotent
// because outcomes land in the content-addressed store.
func (q *Queue) transitionLocked(rec *trace.QueueRecordJSON) {
	if _, err := q.appendLocked(rec); err != nil {
		q.journalErrors++
	}
}

// compactIfBloatedLocked rewrites the journal once it carries more
// than four times its live size past the floor (store.Log.Bloated).
// Every job costs at least three records (submitted, started,
// terminal) and keeps one only while it is live, so without this a
// long-lived journal grows without bound. Callers run it after the
// job table reflects the record just appended. A failed rewrite leaves
// the old journal in place and is counted like a failed append.
// Caller holds q.mu.
func (q *Queue) compactIfBloatedLocked() {
	if q.log.Bloated(q.live) {
		if err := q.compactLocked(); err != nil {
			q.journalErrors++
		}
	}
}

// timeNowAt approximates a monotonic submit time for replayed jobs
// from their wall-clock record stamp (ages of recovered jobs are
// measured from their original submission, not from the restart).
func timeNowAt(unix int64) time.Time {
	if unix <= 0 {
		return time.Now()
	}
	return time.Unix(unix, 0)
}
