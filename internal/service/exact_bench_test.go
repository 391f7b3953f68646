package service

import (
	"errors"
	"runtime"
	"sync"
	"testing"

	"rtm/internal/analysis"
	"rtm/internal/core"
	"rtm/internal/exact"
	"rtm/internal/heuristic"
)

// exactBudget is the serving budget TestColdPathLedger and the
// serving benchmark run the exact stage under.
const exactBudget = 20_000

// exactClass is a layered-corpus class that neither the analytic tier
// nor the heuristic decides, with the options the service searches it
// under and whether Workers: 1 decides it within the budget.
type exactClass struct {
	m       *core.Model
	opt     exact.Options
	decided bool
	nodes   int // Workers: 1
}

// exactCorpus returns the classes of layeredCorpus(seed, n) that reach
// the exact stage, in corpus order.
func exactCorpus(tb testing.TB, seed int64, n int) []exactClass {
	tb.Helper()
	var out []exactClass
	for _, c := range layeredCorpus(tb, seed, n) {
		fd, err := analysis.DecideFast(c.m)
		if err != nil {
			tb.Fatal(err)
		}
		if fd.Verdict != analysis.Unknown {
			continue
		}
		if _, err := heuristic.Schedule(c.m, heuristic.Options{MergeShared: true}); err == nil {
			continue
		}
		opt := exact.Options{MaxLen: c.bound, MaxCandidates: exactBudget, Workers: 1}
		_, st, err := exact.FindSchedule(c.m, opt)
		if err != nil && !errors.Is(err, exact.ErrNotFound) && !errors.Is(err, exact.ErrBudget) {
			tb.Fatal(err)
		}
		out = append(out, exactClass{m: c.m, opt: opt, decided: !errors.Is(err, exact.ErrBudget), nodes: st.NodesExplored})
	}
	return out
}

// BenchmarkExactCorpus prices the exact stage alone on the seed-1
// layered classes that reach it, at Workers: 1 and at Workers:
// GOMAXPROCS. One op is one pass over a group: "undecided" holds the
// classes that exhaust the budget (they set the cold path's tail),
// "decided" the rest (mostly small searches, where fan-out must not
// cost). nodes/op is the pass's NodesExplored. Run it at several core
// counts: go test -run xxx -bench ExactCorpus -cpu 1,2 ./internal/service/
func BenchmarkExactCorpus(b *testing.B) {
	classes := benchExactCorpus(b)
	for _, group := range []struct {
		name    string
		decided bool
	}{{"undecided", false}, {"decided", true}} {
		var set []exactClass
		for _, c := range classes {
			if c.decided == group.decided {
				set = append(set, c)
			}
		}
		for _, workers := range []struct {
			name string
			n    int
		}{{"workers=1", 1}, {"workers=gomaxprocs", runtime.GOMAXPROCS(0)}} {
			b.Run(group.name+"/"+workers.name, func(b *testing.B) {
				nodes := 0
				for i := 0; i < b.N; i++ {
					for _, c := range set {
						opt := c.opt
						opt.Workers = workers.n
						_, st, err := exact.FindSchedule(c.m, opt)
						if errors.Is(err, exact.ErrBudget) == c.decided {
							b.Fatalf("a %s class ended with %v", group.name, err)
						}
						nodes += st.NodesExplored
					}
				}
				b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
			})
		}
	}
}

var (
	benchExactOnce    sync.Once
	benchExactClasses []exactClass
)

// benchExactCorpus builds exactCorpus(1, 2000) once per process.
func benchExactCorpus(b *testing.B) []exactClass {
	benchExactOnce.Do(func() { benchExactClasses = exactCorpus(b, 1, 2000) })
	return benchExactClasses
}
