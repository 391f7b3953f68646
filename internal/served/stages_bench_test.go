package served

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"testing"
	"time"

	"rtm/internal/core"
	"rtm/internal/exact"
	"rtm/internal/sched"
	"rtm/internal/service"
	"rtm/internal/spec"
	"rtm/internal/workload"
)

// stageClass is one decided-feasible layered class as the hit path
// sees it: its spec text, the model that text parses to, and the
// schedule the service serves for it.
type stageClass struct {
	text  string
	model *core.Model
	sched *sched.Schedule
}

// stageCorpus returns n seed-1 layered classes decided feasible by
// svc, which then holds every one of them in its LRU.
func stageCorpus(b *testing.B, svc *service.Service, n int) []stageClass {
	b.Helper()
	var out []stageClass
	workload.LayeredCorpus(1, n, func(m *core.Model) bool {
		res, err := svc.Schedule(context.Background(), m)
		if err != nil || !res.Feasible {
			return false
		}
		text := spec.Print(fmt.Sprintf("c%d", len(out)), m)
		sp, err := spec.Parse(text)
		if err != nil {
			b.Fatal(err)
		}
		out = append(out, stageClass{text: text, model: sp.Model, sched: res.Schedule})
		return true
	})
	if len(out) != n {
		b.Fatalf("corpus: %d of %d classes", len(out), n)
	}
	return out
}

// BenchmarkHitStages prices the fixed stages of a /schedule request
// that no memo answers — a renamed surface of a cached class, or a
// store hit — one sub-benchmark per stage, over 128 seed-1 layered
// classes; one op is one request's stage. "handler" is the whole
// request through Mux().ServeHTTP with the front cache and the
// verified-hit memo off, so every repeat takes the full path: parse,
// validate, canonicalize and digest, LRU probe, remap, sched.Check,
// encode.
func BenchmarkHitStages(b *testing.B) {
	svc := service.New(service.Options{
		ResultMemo: -1,
		Exact:      exact.Options{MaxCandidates: 20000, Workers: 1},
		MaxLenCap:  24,
	})
	classes := stageCorpus(b, svc, 128)
	b.Run("parse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := spec.Parse(classes[i%len(classes)].text); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("validate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := classes[i%len(classes)].model.Validate(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("canonicalize", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			core.Canonicalize(classes[i%len(classes)].model).Fingerprint()
		}
	})
	b.Run("check", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c := &classes[i%len(classes)]
			if !sched.Check(c.model, c.sched).Feasible {
				b.Fatal("served schedule rejected")
			}
		}
	})
	b.Run("handler", func(b *testing.B) {
		h := newDaemon(svc, 10*time.Second, 1<<20, 0).Mux()
		bodies := make([][]byte, len(classes))
		for i := range classes {
			bodies[i] = []byte(classes[i].text)
		}
		var rec allocRecorder
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if rec.post(h, bodies[i%len(bodies)]) != http.StatusOK || !bytes.Contains(rec.body.Bytes(), []byte(`"cacheHit":true`)) {
				b.Fatalf("class %d: %s", i%len(bodies), rec.body.Bytes())
			}
		}
	})
}
