package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// window is the sampling interval of a closed-loop phase.
const window = 500 * time.Millisecond

// maxSamples bounds one client's latency samples in a phase.
const maxSamples = 1 << 21

// client is one closed-loop client's record of a timed phase.
type client struct {
	id    int
	rec   *recorder
	lat   []int64 // per-request handler time, ns (arena memory)
	ends  []int   // ends[w]: requests completed by the end of window w
	fails failures
	tr    *tracer // nil in untraced phases
	ops   int
}

// newClient sets up client id for a phase.
func (r *run) newClient(id int, traced bool) (*client, error) {
	lat, err := r.mem.int64s(maxSamples)
	if err != nil {
		return nil, err
	}
	c := &client{id: id, rec: newRecorder(), lat: lat}
	if traced {
		c.tr = newTracer(time.Now(), 1<<20)
	}
	return c, nil
}

// record keeps one request's handler time.
func (c *client) record(d time.Duration) {
	if len(c.lat) == cap(c.lat) {
		c.fails.add(fmt.Errorf("client %d: more than %d requests in one phase", c.id, maxSamples))
		return
	}
	c.lat = append(c.lat, int64(d))
}

// mark assigns the requests recorded since the last mark to window w
// (windows only move forward).
func (c *client) mark(w int) {
	for len(c.ends) < w {
		c.ends = append(c.ends, c.end(len(c.ends)-1))
	}
	if len(c.ends) == w {
		c.ends = append(c.ends, len(c.lat))
	} else {
		c.ends[w] = len(c.lat)
	}
}

// end is the number of requests completed by the end of window w.
func (c *client) end(w int) int {
	switch {
	case w < 0 || len(c.ends) == 0:
		return 0
	case w < len(c.ends):
		return c.ends[w]
	}
	return c.ends[len(c.ends)-1]
}

// phase is the outcome of one timed phase: its clients and the
// lengths of its full windows. A window is a fixed 500 ms of a closed
// loop, or one chunk of cold_corpus; the figures of a phase are
// medians over its full windows, so a short stall of the shared
// machine — or one pathological request — moves one window, not the
// figure.
type phase struct {
	clients []*client
	spans   []time.Duration
}

// closedLoop runs n clients for d. Each client calls op repeatedly —
// op sends one request, times only the daemon call, and judges the
// answer — and sends its next request only after op returns. A
// request belongs to the window its completion falls in.
func (r *run) closedLoop(n int, d time.Duration, traced bool, op func(c *client, i int)) (*phase, error) {
	cs := make([]*client, n)
	for i := range cs {
		var err error
		if cs[i], err = r.newClient(i, traced); err != nil {
			return nil, err
		}
	}
	runtime.GC()
	start := time.Now()
	for _, c := range cs {
		if c.tr != nil {
			c.tr.origin = start
		}
	}
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				op(c, i)
				c.ops++
				c.mark(int(time.Since(start) / window))
			}
		}(c)
	}
	wg.Wait()
	return &phase{clients: cs, spans: fullWindows(time.Since(start))}, nil
}

// fullWindows returns the lengths of the full windows in d.
func fullWindows(d time.Duration) []time.Duration {
	out := make([]time.Duration, int(d/window))
	for i := range out {
		out[i] = window
	}
	return out
}

func (p *phase) ops() int {
	n := 0
	for _, c := range p.clients {
		n += c.ops
	}
	return n
}

// windowMillis returns the handler times of window w in milliseconds,
// sorted.
func (p *phase) windowMillis(w int) []float64 {
	var out []float64
	for _, c := range p.clients {
		for _, v := range c.lat[c.end(w-1):c.end(w)] {
			out = append(out, float64(v)/1e6)
		}
	}
	sort.Float64s(out)
	return out
}

// tracers returns the clients' tracers.
func (p *phase) tracers() []*tracer {
	var out []*tracer
	for _, c := range p.clients {
		if c.tr != nil {
			out = append(out, c.tr)
		}
	}
	return out
}

// collect sets throughput_rps, latency_p50_ms and latency_p99_ms of an
// untraced phase — each the median over its full windows of the
// window's rate, median and 99th percentile — and folds the phase's
// failures into the run.
func (r *run) collect(ph *phase) {
	r.attempted += ph.ops()
	for _, c := range ph.clients {
		r.fails.merge(&c.fails)
	}
	var rates, p50s, p99s []float64
	n := 0
	for w, span := range ph.spans {
		ms := ph.windowMillis(w)
		n += len(ms)
		rates = append(rates, float64(len(ms))/span.Seconds())
		if v, err := percentile(ms, 0.5); err == nil {
			p50s = append(p50s, v)
		}
		if v, err := percentile(ms, 0.99); err == nil {
			p99s = append(p99s, v)
		}
	}
	if len(p50s) == 0 || len(p99s) == 0 {
		r.fails.add(fmt.Errorf("%d full windows, %d with enough samples for a p99: no latency figures", len(ph.spans), len(p99s)))
		return
	}
	r.set("throughput_rps", median(rates))
	r.set("latency_p50_ms", median(p50s))
	r.set("latency_p99_ms", median(p99s))
	r.samples["throughput_rps"] = n
	r.samples["latency_p50_ms"] = n
	r.samples["latency_p99_ms"] = n
	r.note("figures are medians over %d windows (%d with enough samples for a p99)", len(ph.spans), len(p99s))
}

// rtStats is a reading of the Go runtime's allocation and GC
// counters.
type rtStats struct {
	mallocs, bytes uint64
	gcs            uint32
	gcCPU, allCPU  float64
}

var rtSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readRuntime() rtStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := append([]metrics.Sample(nil), rtSamples...)
	metrics.Read(s)
	st := rtStats{mallocs: ms.Mallocs, bytes: ms.TotalAlloc, gcs: ms.NumGC}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		st.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		st.allCPU = s[1].Value.Float64()
	}
	return st
}

// recordRuntime sets the runtime.* per-layer metrics from the change
// between two readings over reqs requests.
func (r *run) recordRuntime(before, after rtStats, reqs int) {
	if reqs == 0 {
		return
	}
	n := float64(reqs)
	r.set("runtime.allocs_per_req", float64(after.mallocs-before.mallocs)/n)
	r.set("runtime.alloc_bytes_per_req", float64(after.bytes-before.bytes)/n)
	r.set("runtime.gc_cycles_per_kreq", float64(after.gcs-before.gcs)*1000/n)
	if cpu := after.allCPU - before.allCPU; cpu > 0 {
		r.set("runtime.gc_cpu_frac", (after.gcCPU-before.gcCPU)/cpu)
	}
}

// liveHeap returns the live heap in bytes. It collects twice: objects
// parked in sync.Pool victim caches survive the first collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// recordHeap sets heap_mb: the live heap the daemon holds after the
// timed phase — the live heap before release drops the run's last
// references to the daemon, less the live heap after.
func (r *run) recordHeap(release func()) {
	h1 := liveHeap()
	release()
	h2 := liveHeap()
	if h1 < h2 {
		h1 = h2
	}
	r.set("heap_mb", float64(h1-h2)/(1<<20))
}

// timeSetup times f n times and sets setup_s to the median divided
// by per, the number of set-ups one call of f performs; the state of
// the last set-up is kept. Before each repetition but the first, reset
// (when not nil) tears down the previous set-up off the clock. Each
// repetition starts after a collection, so no repetition pays for
// garbage another left behind.
func (r *run) timeSetup(n, per int, reset func(), f func() error) error {
	ts := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if i > 0 && reset != nil {
			reset()
		}
		runtime.GC()
		t0 := time.Now()
		if err := f(); err != nil {
			return err
		}
		ts = append(ts, time.Since(t0).Seconds()/float64(per))
	}
	sort.Float64s(ts)
	r.set("setup_s", median(ts))
	r.samples["setup_s"] = n * per
	r.note("%d set-ups: fastest %.4gs, median %.4gs, slowest %.4gs", n*per, ts[0], median(ts), ts[n-1])
	return nil
}
