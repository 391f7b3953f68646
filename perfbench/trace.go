package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer's public entry point, made by
// the harness: name, start and end (nanoseconds since the tracer's
// origin), the index of the span that caused it (-1 for a root) and
// the request it belongs to.
type span struct {
	name       string
	start, end int64
	parent     int32
	req        int64
}

// tracer keeps one client's spans in memory; nothing is written until
// the run ends. A client owns its tracer, so recording takes no lock.
type tracer struct {
	origin  time.Time
	spans   []span
	limit   int
	dropped int
}

func newTracer(origin time.Time, limit int) *tracer {
	return &tracer{origin: origin, limit: limit, spans: make([]span, 0, 1024)}
}

// begin opens a span and returns its index (-1 when the tracer is
// full; end ignores it).
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return -1
	}
	if len(t.spans) >= t.limit {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: int64(time.Since(t.origin)), end: -1, parent: int32(parent), req: req})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].end = int64(time.Since(t.origin))
}

// selfTimes returns each span name's self times in nanoseconds: a
// span's duration minus the part of it its children cover.
func selfTimes(ts []*tracer) map[string][]int64 {
	out := map[string][]int64{}
	for _, t := range ts {
		child := make([]int64, len(t.spans))
		for _, s := range t.spans {
			if s.parent >= 0 && s.end >= 0 {
				child[s.parent] += s.end - s.start
			}
		}
		for i, s := range t.spans {
			if s.end >= 0 {
				out[s.name] = append(out[s.name], s.end-s.start-child[i])
			}
		}
	}
	return out
}

// writeSpans writes every kept span as one JSON object per line.
func writeSpans(path string, ts []*tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for c, t := range ts {
		for i, s := range t.spans {
			fmt.Fprintf(w, `{"client":%d,"id":%d,"name":%q,"start_ns":%d,"end_ns":%d,"parent":%d,"req":%d}`+"\n",
				c, i, s.name, s.start, s.end, s.parent, s.req)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
