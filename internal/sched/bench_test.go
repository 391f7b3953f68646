package sched_test

import (
	"context"
	"testing"

	"rtm/internal/core"
	"rtm/internal/exact"
	"rtm/internal/sched"
	"rtm/internal/service"
	"rtm/internal/workload"
)

// BenchmarkCheckCorpus prices sched.Check over a fixed slice of 128
// seed-1 layered classes that the service's own pipeline (analysis,
// heuristic, then a budgeted exact search) decides feasible, each with
// the schedule it serves; one op is one Check. The Checker
// sub-benchmark prices the search engine's independent derivation of
// the same verdicts on the same pairs.
func BenchmarkCheckCorpus(b *testing.B) {
	svc := service.New(service.Options{
		Exact:     exact.Options{MaxCandidates: 20000, Workers: 1},
		MaxLenCap: 24,
	})
	var ss []*sched.Schedule
	ms := workload.LayeredCorpus(1, 128, func(m *core.Model) bool {
		res, err := svc.Schedule(context.Background(), m)
		if err != nil || !res.Feasible {
			return false
		}
		ss = append(ss, res.Schedule)
		return true
	})
	if len(ms) != 128 {
		b.Fatalf("corpus: %d of 128 classes", len(ms))
	}
	b.Run("Check", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			k := i % len(ms)
			if !sched.Check(ms[k], ss[k]).Feasible {
				b.Fatal("verified schedule rejected")
			}
		}
	})
	b.Run("Checker", func(b *testing.B) {
		cks := make([]*sched.Checker, len(ms))
		for k, m := range ms {
			cks[k] = sched.MustChecker(m)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			k := i % len(ms)
			if !cks[k].Feasible(ss[k]) {
				b.Fatal("verified schedule rejected")
			}
		}
	})
}
