package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"time"

	"rtm/internal/core"
	"rtm/internal/sched"
	"rtm/internal/service"
	"rtm/internal/spec"
)

const (
	hitClients = 2 // closed-loop clients on the hit paths: one per CPU of the reference box
	// setupRepeats is how many set-ups a run times; setup_s is their
	// median. A set-up takes tens of milliseconds or less, so single
	// set-ups of the same work vary by half on a shared machine; the
	// median of many does not.
	setupRepeats = 41
)

// hitTarget is a primed single daemon whose every surface has a
// checked answer: the state hot_mix and store_spill time.
type hitTarget struct {
	cs     []*class
	surf   [][][]byte // per class: surface texts (0: the class's own)
	svc    *service.Service
	h      http.Handler
	expect [][][]uint64 // per class and surface: hashes of checked answers

	// replay is the traced decomposition of one request (nil: the
	// hit-path one, replayHit).
	replay func(c *client, root int, body []byte)
	// release drops the workload's other references to daemon state
	// before the heap is measured (nil: none).
	release func()
}

func newHitTarget(r *run, cs []*class, surfaces int) (*hitTarget, error) {
	t := &hitTarget{cs: cs, surf: make([][][]byte, len(cs)), expect: make([][][]uint64, len(cs))}
	for i, c := range cs {
		for k := -1; k < surfaces; k++ {
			b, err := r.mem.copyString(c.surfaceText(k))
			if err != nil {
				return nil, err
			}
			t.surf[i] = append(t.surf[i], b)
		}
		t.expect[i] = make([][]uint64, len(t.surf[i]))
	}
	return t, nil
}

// learn sends every surface n times in a row and checks every answer
// in full; the hashes of the answers become the expected ones.
func (t *hitTarget) learn(r *run, j *judge, n int) {
	rec := newRecorder()
	for i, c := range t.cs {
		for s, body := range t.surf[i] {
			m, err := surfaceModel(c, s-1)
			if err != nil {
				r.fails.add(err)
				continue
			}
			for rep := 0; rep < n; rep++ {
				code, ans := rec.post(t.h, body)
				if code != http.StatusOK {
					r.fails.add(statusError(c, code, ans))
					continue
				}
				if err := j.check(ans, c, m, true); err != nil {
					r.fails.add(err)
					continue
				}
				if sum, _ := j.sum(ans); !t.expected(i, s, sum) {
					t.expect[i][s] = append(t.expect[i][s], sum)
				}
			}
		}
	}
}

// expected reports whether sum is a checked answer to surface s of
// class i.
func (t *hitTarget) expected(i, s int, sum uint64) bool {
	for _, e := range t.expect[i][s] {
		if e == sum {
			return true
		}
	}
	return false
}

// serve sends surface s of class i, records the handler time and
// compares the answer with the checked ones.
func (t *hitTarget) serve(c *client, j *judge, i, s int) {
	cl := t.cs[i]
	body := t.surf[i][s]
	root := c.tr.begin("request", -1, int64(c.ops))
	hs := c.tr.begin("served.handler", root, int64(c.ops))
	t0 := time.Now()
	code, ans := c.rec.post(t.h, body)
	c.record(time.Since(t0))
	c.tr.end(hs)
	switch {
	case c.tr == nil:
	case t.replay != nil:
		t.replay(c, root, body)
	default:
		replayHit(c, root, t.svc, body)
	}
	c.tr.end(root)
	if code != http.StatusOK {
		c.fails.add(statusError(cl, code, ans))
		return
	}
	if sum, ok := j.sum(ans); !ok || !t.expected(i, s, sum) {
		i := bytes.Index(ans, []byte(`"source"`))
		c.fails.add(fmt.Errorf("%s surface %d: answer differs from the checked one: %.60s", cl.name, s-1, ans[max(i, 0):]))
	}
}

// prime builds a fresh daemon on the target and solves every class
// once, then serves it once from the cache.
func (t *hitTarget) prime(r *run) error {
	t.svc = r.cfg.newService(nil)
	t.h = r.cfg.newDaemon(t.svc, nil)
	rec := newRecorder()
	for round := 0; round < 2; round++ {
		for i, c := range t.cs {
			if code, ans := rec.post(t.h, t.surf[i][0]); code != http.StatusOK {
				return statusError(c, code, ans)
			}
		}
	}
	return nil
}

// hitPhases runs the timed phase of a hit-path workload on t — and,
// in a traced run, the traced phase — and records its metrics. It
// returns the service counter change of the untraced phase.
func (r *run) hitPhases(t *hitTarget, op func(*client, int), feasibleReqs func() int64) (map[string]int64, error) {
	f0 := feasibleReqs()
	before, rt0 := t.svc.Snapshot(), readRuntime()
	ph, err := r.closedLoop(hitClients, r.timed(), false, op)
	if err != nil {
		return nil, err
	}
	rt1, after := readRuntime(), t.svc.Snapshot()
	d := delta(before, after)
	r.collect(ph)
	if d["searches"] != 0 {
		r.fails.add(fmt.Errorf("%s ran %d exact searches in the timed phase", r.workload, d["searches"]))
	}
	r.checkDaemon(t.svc)
	if !r.traced {
		r.recordHeap(func() {
			t.svc, t.h, t.replay = nil, nil, nil
			if t.release != nil {
				t.release()
			}
		})
		return d, nil
	}
	r.serviceRatios(d, feasibleReqs()-f0)
	r.recordRuntime(rt0, rt1, ph.ops())

	// the counts must repeat: a second untraced phase of the same
	// length has to give the same allocations and hit ratios
	first := map[string]float64{}
	for k := range repeatedCounts {
		first[k] = r.values[k]
	}
	f1, before, rt0 := feasibleReqs(), t.svc.Snapshot(), readRuntime()
	again, err := r.closedLoop(hitClients, r.timed(), false, op)
	if err != nil {
		return nil, err
	}
	rt1, after = readRuntime(), t.svc.Snapshot()
	r.fails.merge(&again.clients[0].fails)
	r.fails.merge(&again.clients[1].fails)
	r.attempted += again.ops()
	r.serviceRatios(delta(before, after), feasibleReqs()-f1)
	r.recordRuntime(rt0, rt1, again.ops())
	for k, tol := range repeatedCounts {
		r.repeats(k, first[k], r.values[k], tol)
	}
	untracedP50 := r.values["latency_p50_ms"]
	tp, err := r.closedLoop(hitClients, r.timed(), true, op)
	if err != nil {
		return nil, err
	}
	r.collectTrace(tp, untracedP50)
	return d, nil
}

// repeatedCounts are the per-request counts a hit-path workload must
// repeat from one phase to the next, with the relative change allowed:
// the hit ratios are taken over a random stream of requests and move
// by a few parts in a thousand; allocations move less.
var repeatedCounts = map[string]float64{
	"runtime.allocs_per_req":  0.01,
	"service.cache_hit_ratio": 0.05,
	"service.memo_hit_ratio":  0.05,
	"sched.checks_per_req":    0.05,
}

// replayHit is the traced decomposition of one hit-path request: the
// harness calls each layer's public entry point on the same input —
// parse, canonicalize, the service, and the schedule checker on the
// served schedule. These are per-call costs on warm state, not the
// handler's own split: the service call is always a verified-hit memo
// hit (the handler just served this surface), and the check runs even
// where the handler's memo hit skipped it.
func replayHit(c *client, root int, svc *service.Service, body []byte) {
	req := int64(c.ops)
	s := c.tr.begin("spec.parse", root, req)
	sp, err := spec.Parse(string(body))
	c.tr.end(s)
	if err != nil {
		return
	}
	s = c.tr.begin("core.canonicalize", root, req)
	core.Canonicalize(sp.Model).Fingerprint()
	c.tr.end(s)
	s = c.tr.begin("service.hit", root, req)
	res, err := svc.Schedule(context.Background(), sp.Model)
	c.tr.end(s)
	if err != nil || res.Schedule == nil {
		return
	}
	s = c.tr.begin("sched.check", root, req)
	sched.Check(sp.Model, res.Schedule)
	c.tr.end(s)
}

// collectTrace sets the span-derived per-layer times of a traced
// phase and trace.overhead_frac: how much slower the handler ran in
// the traced phase, with the replays between requests, than in the
// untraced one.
func (r *run) collectTrace(tp *phase, untracedP50 float64) {
	r.attempted += tp.ops()
	for _, c := range tp.clients {
		r.fails.merge(&c.fails)
	}
	ts := tp.tracers()
	self := selfTimes(ts)
	for name, metricName := range map[string]string{
		"served.handler":    "served.handler_us_p50",
		"spec.parse":        "spec.parse_us_p50",
		"core.canonicalize": "core.canonicalize_us_p50",
		"service.hit":       "service.hit_us_p50",
		"sched.check":       "sched.check_us_p50",
		"analysis.decide":   "analysis.decide_us_p50",
		"heuristic":         "heuristic.schedule_us_p50",
		"store.get":         "store.get_us_p50",
		"store.put":         "store.put_us_p50",
	} {
		if ns := self[name]; len(ns) > 0 {
			r.set(metricName, p50(ns))
			r.samples[metricName] = len(ns)
		}
	}
	if ns := self["exact.search"]; len(ns) > 0 {
		ms := durationsMicros(ns)
		for i := range ms {
			ms[i] /= 1e3
		}
		v, _ := percentile(ms, 0.5)
		r.set("exact.search_ms_p50", v)
		r.samples["exact.search_ms_p50"] = len(ms)
		if v, err := percentile(ms, 0.99); err == nil {
			r.set("exact.search_ms_p99", v)
			r.samples["exact.search_ms_p99"] = len(ms)
		} else {
			r.note("exact.search_ms_p99 not reported: %v", err)
		}
	}
	if hs := self["served.handler"]; len(hs) > 0 && untracedP50 > 0 {
		r.set("trace.overhead_frac", p50(hs)/1e3/untracedP50-1)
	}
	kept, dropped := 0, 0
	for _, t := range ts {
		kept += len(t.spans)
		dropped += t.dropped
	}
	path := fmt.Sprintf("%s/trace/%s.jsonl", r.out, r.workload)
	if err := writeSpans(path, ts); err != nil {
		r.note("spans not written: %v", err)
	} else {
		r.note("%d spans written to %s (%d dropped past the in-memory limit)", kept, path, dropped)
	}
}
