package served

import (
	"context"
	"encoding/json"
	"maps"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rtm/internal/core"
	"rtm/internal/queue"
	"rtm/internal/service"
	"rtm/internal/spec"
	"rtm/internal/store"
	"rtm/internal/trace"
)

// thirdSpec is a third, non-isomorphic workload for the queue tests.
const thirdSpec = `system third
element h1 weight 1

periodic beat period 6 deadline 6 { h1 }
`

func postAsync(t *testing.T, url, body string) (*http.Response, jobResponse) {
	t.Helper()
	resp, err := http.Post(url+"/schedule?async=1", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out jobResponse
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp, out
}

func getJob(t *testing.T, url, id, wait string) (*http.Response, jobResponse) {
	t.Helper()
	u := url + "/job/" + id
	if wait != "" {
		u += "?wait=" + wait
	}
	resp, err := http.Get(u)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out jobResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
	}
	return resp, out
}

// TestServedAsyncContract pins the HTTP surface of the async queue:
// POST /schedule?async=1 answers 202 with a job handle, GET /job/<id>
// polls and long-polls it, duplicates dedup onto the same handle, and
// the error paths (no queue, unknown job, bad id, bad method, bad
// wait) answer with the right statuses.
func TestServedAsyncContract(t *testing.T) {
	// without a queue, /job/ is absent and ?async=1 degrades to sync
	srvNone, _ := newTestServer(t)
	if resp, _ := getJob(t, srvNone.URL, "deadbeef", ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/job/ without queue: status = %d, want 404", resp.StatusCode)
	}
	if resp, body := postSpec(t, srvNone.URL, exampleSpec); resp.StatusCode != http.StatusOK || !body.Feasible {
		t.Fatalf("sync fallback without queue: %d %+v", resp.StatusCode, body)
	}

	q, err := queue.Open(t.TempDir(), queue.Options{Workers: 2, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	srv, _ := newTestServerOpts(t, service.Options{Queue: q}, 1<<20)

	resp, job := postAsync(t, srv.URL, exampleSpec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit: status = %d, want 202", resp.StatusCode)
	}
	if job.Job == "" || job.Resubmitted {
		t.Fatalf("async submit: %+v", job)
	}
	if job.State != "done" && job.Poll != "/job/"+job.Job {
		t.Fatalf("non-terminal 202 carries no poll target: %+v", job)
	}

	// long-poll until the workers decide it
	resp, final := getJob(t, srv.URL, job.Job, "15s")
	if resp.StatusCode != http.StatusOK || final.State != "done" || !final.Decided || !final.Feasible {
		t.Fatalf("long-poll: %d %+v", resp.StatusCode, final)
	}
	if final.Poll != "" {
		t.Fatalf("terminal job still advertises a poll target: %+v", final)
	}

	// a duplicate — even under different names — dedups onto the same
	// terminal job and reports its verdict immediately
	resp, dup := postAsync(t, srv.URL, renamedSpec)
	if resp.StatusCode != http.StatusAccepted || !dup.Resubmitted || dup.Job != job.Job || dup.State != "done" {
		t.Fatalf("isomorphic resubmit: %d %+v", resp.StatusCode, dup)
	}

	// the schedule itself is collected synchronously from the warmed
	// cache — no new pipeline
	if _, body := postSpec(t, srv.URL, exampleSpec); !body.Feasible || body.Source == "exact" {
		t.Fatalf("post-drain collection: %+v", body)
	}

	// error surface
	if resp, _ := getJob(t, srv.URL, strings.Repeat("0", 64), ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: status = %d, want 404", resp.StatusCode)
	}
	if resp, _ := getJob(t, srv.URL, "a/b", ""); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("slashed job id: status = %d, want 400", resp.StatusCode)
	}
	if resp, _ := getJob(t, srv.URL, job.Job, "not-a-duration"); resp.StatusCode != http.StatusBadRequest && final.State != "done" {
		t.Fatalf("bad wait: status = %d", resp.StatusCode)
	}
	postResp, err := http.Post(srv.URL+"/job/"+job.Job, "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	postResp.Body.Close()
	if postResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /job: status = %d, want 405", postResp.StatusCode)
	}
}

// appendJournalFrame appends one framed queue record (optionally
// corrupted) to a journal file — the test's stand-in for a crash that
// interleaved writes with the daemon's own.
func appendJournalFrame(t *testing.T, path string, rec *trace.QueueRecordJSON, corrupt bool) {
	t.Helper()
	payload, err := trace.EncodeQueueRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := store.Frame(payload)
	if err != nil {
		t.Fatal(err)
	}
	if corrupt {
		buf[len(buf)-3] ^= 0xff // flip a payload byte: CRC mismatch
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(buf); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestServedQueueWarmRestart is the acceptance test for the durable
// queue: a daemon life accepts async jobs without draining them (the
// moral equivalent of SIGTERM mid-burst), a crash interleaves a
// started record and a torn submitted frame into the journal, and the
// next life — same -queue-dir and -store-dir — resumes the pending
// jobs, serves the already-solved class from the store with zero new
// searches, skips the flipped frame, and heals the journal so the
// class it carried can be resubmitted as a fresh job.
func TestServedQueueWarmRestart(t *testing.T) {
	qdir, sdir := t.TempDir(), t.TempDir()

	// life 1: accept async jobs A and B (no workers: they stay
	// pending, as if SIGTERM landed before the pool reached them), and
	// solve A synchronously so the store is warm for it
	st1, err := store.Open(sdir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	q1, err := queue.Open(qdir, queue.Options{Workers: 0, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	srv1, _ := newTestServerOpts(t, service.Options{
		Store: st1, Queue: q1, DisableAnalysis: true, DisableHeuristic: true,
	}, 1<<20)
	_, jobA := postAsync(t, srv1.URL, exampleSpec)
	_, jobB := postAsync(t, srv1.URL, auxSpec)
	if jobA.State != "pending" || jobB.State != "pending" {
		t.Fatalf("life 1 jobs: %+v, %+v", jobA, jobB)
	}
	if _, sync := postSpec(t, srv1.URL, exampleSpec); !sync.Feasible || sync.Source != "exact" {
		t.Fatalf("life 1 sync solve: %+v", sync)
	}
	srv1.Close()
	if err := q1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	// the crash: a started record for B survives (a worker had picked
	// it up), and the frame after it — a submitted record for a third
	// class — is torn mid-write (one flipped byte)
	journal := filepath.Join(qdir, "queue.log")
	appendJournalFrame(t, journal, &trace.QueueRecordJSON{
		Type: trace.QueueStarted, Fingerprint: jobB.Job, Unix: time.Now().Unix(),
	}, false)
	spC, err := spec.Parse(thirdSpec)
	if err != nil {
		t.Fatal(err)
	}
	fpC := core.Fingerprint(spC.Model)
	appendJournalFrame(t, journal, &trace.QueueRecordJSON{
		Type: trace.QueueSubmitted, Fingerprint: fpC, Unix: time.Now().Unix(),
		Model: trace.NewModelJSON(spC.Model),
	}, true)

	// life 2: same directories. Replay must resume A and B (B counted
	// as interrupted mid-solve) and truncate the torn frame.
	st2, err := store.Open(sdir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	q2, err := queue.Open(qdir, queue.Options{Workers: 2, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	if s := q2.Stats(); s.Depth != 2 || s.Resumed != 1 || s.CorruptTail != 1 {
		t.Fatalf("life 2 replay: %+v", s)
	}
	srv2, _ := newTestServerOpts(t, service.Options{
		Store: st2, Queue: q2, DisableAnalysis: true, DisableHeuristic: true,
	}, 1<<20)

	// A was solved last life: its job completes from the store, no search
	if _, a := getJob(t, srv2.URL, jobA.Job, "15s"); a.State != "done" || !a.Feasible || a.Source != "store" {
		t.Fatalf("resumed job A: %+v", a)
	}
	// B was never solved: exactly one fresh search decides it
	if _, b := getJob(t, srv2.URL, jobB.Job, "15s"); b.State != "done" || !b.Feasible || b.Source != "exact" {
		t.Fatalf("resumed job B: %+v", b)
	}
	if got := metricValue(t, srv2.URL, "searches"); got != 1 {
		t.Fatalf("warm restart ran %d searches, want 1 (B only)", got)
	}
	if got := metricValue(t, srv2.URL, "store_hits"); got != 1 {
		t.Fatalf("store_hits = %d, want 1 (A)", got)
	}
	for name, want := range map[string]int64{
		"queue_completed": 2, "queue_failed": 0, "queue_depth": 0,
		"queue_resumed": 1, "queue_corrupt_skipped": 1,
	} {
		if got := metricValue(t, srv2.URL, name); got != want {
			t.Fatalf("%s = %d, want %d", name, got, want)
		}
	}
	// collecting A's schedule is now a pure hit path
	if _, warm := postSpec(t, srv2.URL, exampleSpec); !warm.Feasible || warm.Source == "exact" {
		t.Fatalf("collecting A after restart: %+v", warm)
	}

	// the torn frame never became a job — and the healed journal
	// accepts the same class as a fresh submission
	if _, ok := q2.Get(fpC); ok {
		t.Fatal("torn submitted record resurrected as a job")
	}
	if resp, c := postAsync(t, srv2.URL, thirdSpec); resp.StatusCode != http.StatusAccepted || c.Resubmitted || c.Job != fpC {
		t.Fatalf("resubmit of torn class: %d %+v", resp.StatusCode, c)
	}
	if _, c := getJob(t, srv2.URL, fpC, "15s"); c.State != "done" || !c.Feasible {
		t.Fatalf("torn class after resubmit: %+v", c)
	}
	srv2.Close()
	if err := q2.Close(); err != nil {
		t.Fatal(err)
	}

	// life 3: everything terminal, journal fully clean
	q3, err := queue.Open(qdir, queue.Options{Workers: 0, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer q3.Close()
	if s := q3.Stats(); s.Depth != 0 || s.CorruptTail != 0 {
		t.Fatalf("life 3: %+v", s)
	}
	for _, id := range []string{jobA.Job, jobB.Job, fpC} {
		if st, ok := q3.Get(id); !ok || st.State != queue.Done {
			t.Fatalf("life 3 job %s: %+v", id[:8], st)
		}
	}
}

// TestServedJobAfterCompaction pins GET /job/<id> for a job the queue
// has forgotten: while the class is resident in this node's LRU the
// answer is "done" with its verdict (with or without ?wait=, and
// counting nothing), after eviction it is 404 even though the store
// still holds the record, and a class this node holds only as a
// feasible record imported from a peer is 404 too.
func TestServedJobAfterCompaction(t *testing.T) {
	q, err := queue.Open(t.TempDir(), queue.Options{Workers: 1, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	srv, svc := newTestServerOpts(t, service.Options{
		Queue: q, Store: st, CacheSize: 1, CacheShards: 1,
	}, 1<<20)

	_, job := postAsync(t, srv.URL, exampleSpec)
	_, final := getJob(t, srv.URL, job.Job, "15s")
	if final.State != "done" || !final.Feasible || final.Source == "" {
		t.Fatalf("job before compaction: %+v", final)
	}
	if err := q.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, ok := q.Get(job.Job); ok {
		t.Fatal("compaction kept the finished job")
	}

	before := svc.Metrics().Snapshot()
	for _, wait := range []string{"", "5s"} {
		resp, got := getJob(t, srv.URL, job.Job, wait)
		if resp.StatusCode != http.StatusOK || got != (jobResponse{
			Job: job.Job, State: "done", Decided: true, Feasible: true, Source: final.Source,
		}) {
			t.Fatalf("forgotten job, wait=%q: %d %+v", wait, resp.StatusCode, got)
		}
	}
	if after := svc.Metrics().Snapshot(); !maps.Equal(before, after) {
		t.Fatalf("the LRU fallback counted metrics:\nbefore %v\nafter  %v", before, after)
	}

	// a second class fills the one-entry LRU; the store still holds
	// the first, but /job never answers from the store
	if resp, _ := postSpec(t, srv.URL, auxSpec); resp.StatusCode != http.StatusOK {
		t.Fatalf("aux solve: %d", resp.StatusCode)
	}
	if _, ok := st.Get(job.Job); !ok {
		t.Fatal("the store lost the first class")
	}
	if resp, _ := getJob(t, srv.URL, job.Job, ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("forgotten job after eviction: status = %d, want 404", resp.StatusCode)
	}

	// a feasible record imported from a peer, never verified here
	sp, err := spec.Parse(thirdSpec)
	if err != nil {
		t.Fatal(err)
	}
	peerStore, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer peerStore.Close()
	if _, err := service.New(service.Options{Store: peerStore}).Schedule(context.Background(), sp.Model); err != nil {
		t.Fatal(err)
	}
	fp := core.Fingerprint(sp.Model)
	seg, n, err := peerStore.ExportRecords([]string{fp})
	if err != nil || n != 1 {
		t.Fatalf("peer export: %d records, %v", n, err)
	}
	if stats, err := st.ImportFrames(seg); err != nil || stats.Imported != 1 {
		t.Fatalf("import: %+v, %v", stats, err)
	}
	if resp, _ := getJob(t, srv.URL, fp, ""); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("imported-only class: status = %d, want 404", resp.StatusCode)
	}
}
