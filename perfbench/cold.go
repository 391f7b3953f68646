package main

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"rtm/internal/analysis"
	"rtm/internal/core"
	"rtm/internal/exact"
	"rtm/internal/heuristic"
	"rtm/internal/service"
	"rtm/internal/spec"
)

// cold_corpus: every request is a distinct class of the four-regime
// layered corpus, sent by one closed-loop client. Each chunk of
// coldChunk requests goes to a fresh daemon, so every request is a
// miss. The corpus is large, so its share of budget-exhausting
// classes (which dominate the cold wall time) varies little between
// seeds. Answers are judged between requests, off the clock: the
// phase lasts until the client has spent -seconds inside the handler.
const (
	coldClasses = 48000
	coldChunk   = 2000
	// coldSetupBatch is how many daemons one timed set-up builds.
	coldSetupBatch = 25
)

// chunkCounters are the service counts that must repeat exactly when
// a chunk is served again by a fresh daemon.
var chunkCounters = []string{"analysis_solved", "analysis_refuted", "heuristic_solved", "searches", "undecided", "exact_nodes_total"}

// coldCorpus draws the corpus. Spec texts go to the arena and models
// are dropped: the judge parses a text again when it needs the model.
func coldCorpus(r *run) ([]*class, error) {
	d := newDrawer(r.seed, "cold")
	cs := make([]*class, coldClasses)
	for i := range cs {
		c, err := d.draw()
		if err != nil {
			return nil, err
		}
		if c.body, err = r.mem.copyString(c.text); err != nil {
			return nil, err
		}
		c.model, c.text = nil, ""
		cs[i] = c
	}
	return cs, nil
}

// coldPhase is the record of one phase.
type coldPhase struct {
	cl      *client
	busy    time.Duration      // time spent inside the handler
	spans   []time.Duration    // handler time of each complete chunk
	daemons int                // daemons constructed
	chunks  []map[string]int64 // counter change of each complete chunk
	total   map[string]int64   // counter change over the phase
	last    *service.Service   // the current daemon
	full    *service.Service   // the daemon of the last complete chunk
}

// serveChunks sends classes from cs[first:] in order, a fresh daemon
// for every chunk, until the client has spent d in the handler (or,
// with d ≤ 0, for exactly one chunk). Every answer is judged unless j
// is nil.
func (r *run) serveChunks(cs []*class, first int, d time.Duration, traced bool, j *judge) (*coldPhase, error) {
	c, err := r.newClient(0, traced)
	if err != nil {
		return nil, err
	}
	p := &coldPhase{cl: c, total: map[string]int64{}}
	var chunkStart time.Duration
	runtime.GC()
	var h http.Handler
	var before map[string]int64
	endChunk := func(complete bool) {
		after := p.last.Snapshot()
		dd := delta(before, after)
		for k, v := range dd {
			p.total[k] += v
		}
		if complete {
			p.chunks = append(p.chunks, dd)
			p.spans = append(p.spans, p.busy-chunkStart)
			p.full = p.last
		}
		chunkStart = p.busy
		if err := tierSum(after); err != nil {
			c.fails.add(err)
		}
	}
	for n := 0; ; n++ {
		if n%coldChunk == 0 {
			if n > 0 {
				endChunk(true)
				if d <= 0 {
					return p, nil
				}
			}
			p.last = r.cfg.newService(nil)
			h = r.cfg.newDaemon(p.last, nil)
			p.daemons++
			before = p.last.Snapshot()
		}
		if d > 0 && p.busy >= d {
			endChunk(false)
			return p, nil
		}
		cl := cs[(first+n)%len(cs)]
		root := c.tr.begin("request", -1, int64(c.ops))
		hs := c.tr.begin("served.handler", root, int64(c.ops))
		t0 := time.Now()
		code, body := c.rec.post(h, cl.body)
		took := time.Since(t0)
		c.tr.end(hs)
		if traced {
			replayCold(c, root, r.cfg, cl.body)
		}
		c.tr.end(root)
		c.record(took)
		p.busy += took
		c.ops++
		c.mark(n / coldChunk)
		switch {
		case code != http.StatusOK:
			c.fails.add(statusError(cl, code, body))
		case j != nil:
			if err := j.check(body, cl, nil, false); err != nil {
				c.fails.add(err)
			}
		}
	}
}

func runCold(r *run) error {
	cs, err := coldCorpus(r)
	if err != nil {
		return err
	}
	j := newJudge(r.cfg)

	// set-up: construct a daemon (every chunk gets a fresh one). One
	// takes tens of microseconds, so each timed repetition builds a
	// batch and the time per daemon is reported.
	hs := make([]http.Handler, coldSetupBatch)
	if err := r.timeSetup(setupRepeats, coldSetupBatch, func() { clear(hs) }, func() error {
		for i := range hs {
			hs[i] = r.cfg.newDaemon(r.cfg.newService(nil), nil)
		}
		return nil
	}); err != nil {
		return err
	}

	clear(hs)
	p, err := r.serveChunks(cs, 0, r.timed(), false, j)
	if err != nil {
		return err
	}
	// one client in a closed loop: a chunk's throughput is its
	// requests per second spent in the handler
	r.collect(&phase{clients: []*client{p.cl}, spans: p.spans})
	r.note("%d requests in %d chunks (%d complete), %.2fs in the handler", p.cl.ops, p.daemons, len(p.chunks), p.busy.Seconds())
	if len(p.chunks) == 0 {
		return fmt.Errorf("no complete chunk of %d requests in the timed phase", coldChunk)
	}
	first := p.chunks[0]
	r.note("first chunk: analysis %d solved / %d refuted, heuristic %d, searches %d (%d undecided), %d nodes",
		first["analysis_solved"], first["analysis_refuted"], first["heuristic_solved"], first["searches"], first["undecided"], first["exact_nodes_total"])
	if !r.traced {
		// the heap of a daemon that served a whole chunk, so its cache
		// is as full as the workload makes it
		p.last = nil
		r.recordHeap(func() { p.full = nil })
	}

	// counts must repeat: serve the first chunk again on a fresh
	// daemon, off the clock and unjudged (its answers were judged in
	// the timed phase), which also gives the allocation counts free of
	// the judge's own
	rt0 := readRuntime()
	again, err := r.serveChunks(cs, 0, 0, false, nil)
	if err != nil {
		return err
	}
	rt1 := readRuntime()
	r.fails.merge(&again.cl.fails)
	for _, name := range chunkCounters {
		r.sameCounts("service "+name+" of the first chunk", []int64{first[name], again.chunks[0][name]})
	}
	if !r.traced {
		return nil
	}

	t := p.total
	misses := t["cache_misses"]
	decided := t["analysis_solved"] + t["analysis_refuted"]
	r.serviceRatios(t, 0)
	delete(r.values, "sched.checks_per_req")
	delete(r.values, "service.memo_hit_ratio")
	r.set("analysis.decided_frac", ratio(decided, misses))
	r.set("heuristic.solved_frac", ratio(t["heuristic_solved"], misses-decided))
	r.set("exact.nodes_per_search", ratio(t["exact_nodes_total"], t["searches"]))
	r.set("exact.searches", float64(first["searches"]))
	r.samples["exact.searches"] = coldChunk
	r.recordRuntime(rt0, rt1, again.cl.ops)
	untracedP50 := r.values["latency_p50_ms"]
	tp, err := r.serveChunks(cs, 0, r.timed(), true, j)
	if err != nil {
		return err
	}
	r.collectTrace(&phase{clients: []*client{tp.cl}}, untracedP50)
	return nil
}

// replayCold is the traced decomposition of one cold request: the
// harness calls each layer's public entry point on the same input,
// following the pipeline's tier order — analysis, then the heuristic
// if analysis cannot decide, then the exact search (with the
// daemon's budget and workers) if the heuristic finds nothing.
func replayCold(c *client, root int, cfg config, body []byte) {
	req := int64(c.ops)
	s := c.tr.begin("spec.parse", root, req)
	sp, err := spec.Parse(string(body))
	c.tr.end(s)
	if err != nil {
		return
	}
	m := sp.Model
	s = c.tr.begin("core.canonicalize", root, req)
	core.Canonicalize(m).Fingerprint()
	c.tr.end(s)
	s = c.tr.begin("analysis.decide", root, req)
	fd, err := analysis.DecideFast(m)
	c.tr.end(s)
	if err != nil || fd.Verdict != analysis.Unknown {
		return
	}
	s = c.tr.begin("heuristic", root, req)
	_, err = heuristic.Schedule(m, heuristic.Options{MergeShared: true})
	c.tr.end(s)
	if err == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), cfg.timeout)
	defer cancel()
	s = c.tr.begin("exact.search", root, req)
	exact.FindScheduleCtx(ctx, m, cfg.exactOptions(m, cfg.workerCount()))
	c.tr.end(s)
}
