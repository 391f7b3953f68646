package exact

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"rtm/internal/core"
	"rtm/internal/sched"
	"rtm/internal/workload"
)

// equivalenceSuite is a mix of feasible and infeasible models across
// every searcher feature: async-only, periodic, weighted elements,
// contiguity restriction, chains.
func equivalenceSuite() []struct {
	name string
	m    *core.Model
	opt  Options
} {
	var out []struct {
		name string
		m    *core.Model
		opt  Options
	}
	add := func(name string, m *core.Model, opt Options) {
		out = append(out, struct {
			name string
			m    *core.Model
			opt  Options
		}{name, m, opt})
	}

	add("single-op", asyncModel(asyncChain("A", 2, "a")), Options{MaxLen: 4})
	add("two-ops", asyncModel(asyncChain("A", 3, "a"), asyncChain("B", 3, "b")), Options{MaxLen: 6})
	add("chain", asyncModel(asyncChain("A", 4, "a", "b")), Options{MaxLen: 4})
	add("infeasible-tight", asyncModel(
		asyncChain("A", 2, "a"), asyncChain("B", 2, "b"), asyncChain("C", 2, "c"),
	), Options{MaxLen: 6})
	add("infeasible-density-1", asyncModel(
		asyncChain("A", 2, "a"), asyncChain("B", 3, "b"), asyncChain("C", 6, "c"),
	), Options{MaxLen: 12})
	add("feasible-density-1", asyncModel(
		asyncChain("A", 2, "a"), asyncChain("B", 6, "b"),
		asyncChain("C", 6, "c"), asyncChain("D", 6, "d"),
	), Options{MaxLen: 6})

	periodic := core.NewModel()
	periodic.Comm.AddElement("p", 1)
	periodic.Comm.AddElement("q", 1)
	periodic.AddConstraint(&core.Constraint{
		Name: "P", Task: core.ChainTask("p"),
		Period: 2, Deadline: 2, Kind: core.Periodic,
	})
	periodic.AddConstraint(&core.Constraint{
		Name: "Q", Task: core.ChainTask("q"),
		Period: 4, Deadline: 4, Kind: core.Asynchronous,
	})
	add("periodic-mix", periodic, Options{MaxLen: 4})

	weighted := core.NewModel()
	weighted.Comm.AddElement("a", 2)
	weighted.Comm.AddElement("b", 1)
	weighted.AddConstraint(&core.Constraint{
		Name: "A", Task: core.ChainTask("a"),
		Period: 8, Deadline: 8, Kind: core.Asynchronous,
	})
	weighted.AddConstraint(&core.Constraint{
		Name: "B", Task: core.ChainTask("b"),
		Period: 3, Deadline: 3, Kind: core.Asynchronous,
	})
	add("contiguous", weighted, Options{MaxLen: 6, RequireContiguous: true})
	add("pipelined", weighted.Clone(), Options{MaxLen: 6})

	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 6; i++ {
		n := 2 + rng.Intn(4)
		m := workload.AsyncOnly(rng, n, 0.5+0.1*float64(rng.Intn(5)))
		add(fmt.Sprintf("random-%d", i), m, Options{MaxLen: 6})
	}
	return out
}

// prunersOff disables all three PR-5 pruners, which restores the seed
// engine bit-for-bit (schedule, Stats, visiting order).
func prunersOff(opt Options) Options {
	opt.DisableSymmetry = true
	opt.DisableMemo = true
	opt.DisableBounds = true
	return opt
}

// TestSequentialMatchesReference pins the rewritten sequential search
// to the seed implementation bit-for-bit: same schedule, same Stats.
// The pruners are disabled here — that is the documented bit-for-bit
// regime; prune_test.go pins the pruners-on verdict/witness parity.
func TestSequentialMatchesReference(t *testing.T) {
	for _, tc := range equivalenceSuite() {
		refS, refSt, refErr := refFindSchedule(tc.m, tc.opt)

		for _, workers := range []int{0, 1} {
			opt := prunersOff(tc.opt)
			opt.Workers = workers
			s, st, err := FindSchedule(tc.m, opt)
			if !errors.Is(err, refErr) && (err == nil) != (refErr == nil) {
				t.Fatalf("%s workers=%d: err = %v, reference = %v", tc.name, workers, err, refErr)
			}
			if (s == nil) != (refS == nil) {
				t.Fatalf("%s workers=%d: schedule %v, reference %v", tc.name, workers, s, refS)
			}
			if s != nil && !s.Equal(refS) {
				t.Fatalf("%s workers=%d: schedule %v, reference %v", tc.name, workers, s, refS)
			}
			if st.NodesExplored != refSt.NodesExplored || st.Candidates != refSt.Candidates {
				t.Fatalf("%s workers=%d: stats %+v, reference %+v", tc.name, workers, st, refSt)
			}
			if st.PrunedBySymmetry != 0 || st.PrunedByMemo != 0 || st.PrunedByBound != 0 {
				t.Fatalf("%s workers=%d: pruner counters nonzero with pruners off: %+v", tc.name, workers, st)
			}
			if len(st.LengthsTried) != len(refSt.LengthsTried) {
				t.Fatalf("%s workers=%d: lengths %v, reference %v", tc.name, workers, st.LengthsTried, refSt.LengthsTried)
			}
		}
	}
}

// TestParallelDeterminism asserts that the parallel search returns
// exactly the sequential search's schedule — the lexicographically
// first feasible one — on feasible and infeasible models alike. The
// suite's models are small, so eager mode makes helpers join at the
// first node and hand over work at every chance: every model whose
// tree branches at all is split (a model refuted before descent, or
// whose tree is one path, has nothing to hand over). Run in CI under
// `go test -race` (see the Makefile race target).
func TestParallelDeterminism(t *testing.T) {
	eager(t)
	for _, tc := range equivalenceSuite() {
		seq := tc.opt
		seq.Workers = 1
		wantS, _, wantErr := FindSchedule(tc.m, seq)

		for _, workers := range []int{2, 3, 8} {
			opt := tc.opt
			opt.Workers = workers
			// repeat to shake out scheduling races
			for rep := 0; rep < 3; rep++ {
				s, st, err := FindSchedule(tc.m, opt)
				if (err == nil) != (wantErr == nil) || (err != nil && !errors.Is(err, wantErr)) {
					t.Fatalf("%s workers=%d: err = %v, sequential = %v", tc.name, workers, err, wantErr)
				}
				if (s == nil) != (wantS == nil) || (s != nil && !s.Equal(wantS)) {
					t.Fatalf("%s workers=%d: schedule %v, sequential %v", tc.name, workers, s, wantS)
				}
				if s == nil && err == nil {
					t.Fatalf("%s workers=%d: nil schedule with nil error", tc.name, workers)
				}
				if wantS != nil && st.Candidates == 0 && st.NodesExplored == 0 {
					t.Fatalf("%s workers=%d: empty stats %+v", tc.name, workers, st)
				}
			}
		}
	}
}

// eager makes every parallel search in the test start its helpers at
// the first node and hand over work at every chance.
func eager(t *testing.T) {
	testEager = true
	t.Cleanup(func() { testEager = false })
}

// TestParallelFoundScheduleIsVerified double-checks every parallel
// result against the independent Analyzer path.
func TestParallelFoundScheduleIsVerified(t *testing.T) {
	for _, tc := range equivalenceSuite() {
		opt := tc.opt
		opt.Workers = 4
		s, _, err := FindSchedule(tc.m, opt)
		if err != nil {
			continue
		}
		if !sched.Feasible(tc.m, s) {
			t.Fatalf("%s: parallel search returned infeasible schedule %v", tc.name, s)
		}
		if tc.opt.RequireContiguous && !sched.Contiguous(tc.m.Comm, s) {
			t.Fatalf("%s: parallel search returned preempted schedule %v", tc.name, s)
		}
	}
}

// TestFeasibleBudgetContract is the ErrBudget regression test: with
// MaxCandidates: 1 on an instance whose space holds more than one
// candidate, the bool path alone would be indistinguishable from a
// proof of infeasibility — the error must say ErrBudget.
func TestFeasibleBudgetContract(t *testing.T) {
	// A two-op chain under a deadline shorter than its span: infeasible,
	// yet the window prunes admit the alternating candidates (one per
	// even length), so the budget is actually consumed.
	m := asyncModel(asyncChain("A", 2, "a", "b"))

	// proof of infeasibility: false with a nil error
	ok, _, err := FeasibleOpt(m, Options{MaxLen: 6})
	if err != nil || ok {
		t.Fatalf("unbudgeted: ok=%v err=%v, want false/nil", ok, err)
	}

	// budget abort: false with ErrBudget, NOT a proof
	ok, st, err := FeasibleOpt(m, Options{MaxLen: 6, MaxCandidates: 1})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("budgeted: err = %v, want ErrBudget", err)
	}
	if ok {
		t.Fatal("budgeted: ok must be false when the budget aborts")
	}
	if st == nil || st.Candidates < 1 {
		t.Fatalf("budgeted: stats %+v", st)
	}

	// the parallel path honors the same contract
	ok, _, err = FeasibleOpt(m, Options{MaxLen: 6, MaxCandidates: 1, Workers: 4})
	if !errors.Is(err, ErrBudget) || ok {
		t.Fatalf("parallel budgeted: ok=%v err=%v, want false/ErrBudget", ok, err)
	}

	// Feasible (the maxLen shorthand) still proves infeasibility
	ok, _, err = Feasible(m, 6)
	if err != nil || ok {
		t.Fatalf("Feasible: ok=%v err=%v", ok, err)
	}
}

// TestParallelStatsAccounting asserts the atomic merge loses no
// counts on an exhaustive (infeasible) search with no cancellation:
// every worker explores its whole subtree, so the total must equal
// the sequential count exactly.
func TestParallelStatsAccounting(t *testing.T) {
	m := asyncModel(
		asyncChain("A", 2, "a"),
		asyncChain("B", 3, "b"),
		asyncChain("C", 6, "c"),
	)
	// pruners off: the shared memo table makes parallel node counts
	// timing-dependent (a hit in one run is a miss in the next), so
	// exact equality only holds on the seed engine
	opt := prunersOff(Options{MaxLen: 10})
	_, seqSt, err := FindSchedule(m, opt)
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("err = %v", err)
	}
	opt.Workers = 8
	for rep := 0; rep < 3; rep++ {
		_, st, err := FindSchedule(m, opt)
		if !errors.Is(err, ErrNotFound) {
			t.Fatalf("parallel err = %v", err)
		}
		if st.NodesExplored != seqSt.NodesExplored || st.Candidates != seqSt.Candidates {
			t.Fatalf("exhaustive stats diverged: parallel %+v, sequential %+v", st, seqSt)
		}
	}
}

// TestNegativeOptionsRejected pins the validation contract: negative
// Workers are rejected with a typed error rather than
// silently clamped — callers wanting "all CPUs" resolve GOMAXPROCS
// themselves (cmd/rtserved and cmd/rtsynth do).
func TestNegativeOptionsRejected(t *testing.T) {
	m := asyncModel(asyncChain("A", 2, "a"))
	cases := []struct {
		opt   Options
		field string
	}{
		{Options{MaxLen: 4, Workers: -1}, "Workers"},
		{Options{MaxLen: 0}, "MaxLen"},
	}
	for _, tc := range cases {
		s, st, err := FindSchedule(m, tc.opt)
		if s != nil || st != nil {
			t.Fatalf("%s: got schedule %v stats %v on invalid options", tc.field, s, st)
		}
		var bad *BadOptionsError
		if !errors.As(err, &bad) {
			t.Fatalf("%s: err = %v, want BadOptionsError", tc.field, err)
		}
		if bad.Field != tc.field {
			t.Fatalf("field = %q, want %q (err %v)", bad.Field, tc.field, err)
		}
	}
}

// TestStealingCountsEveryNodeOnce runs the suite's exhaustive
// (infeasible) models with the pruners off under eager stealing: a
// stolen range is counted by its thief only, so the node and candidate
// totals must equal the sequential ones however the work was split.
func TestStealingCountsEveryNodeOnce(t *testing.T) {
	eager(t)
	for _, tc := range equivalenceSuite() {
		opt := prunersOff(tc.opt)
		opt.Workers = 1
		_, want, err := FindSchedule(tc.m, opt)
		if !errors.Is(err, ErrNotFound) {
			continue
		}
		for _, workers := range []int{2, 3, 8} {
			opt.Workers = workers
			for rep := 0; rep < 3; rep++ {
				_, st, err := FindSchedule(tc.m, opt)
				if !errors.Is(err, ErrNotFound) {
					t.Fatalf("%s workers=%d: err = %v", tc.name, workers, err)
				}
				if st.NodesExplored != want.NodesExplored || st.Candidates != want.Candidates {
					t.Fatalf("%s workers=%d: nodes %d candidates %d, sequential %d and %d",
						tc.name, workers, st.NodesExplored, st.Candidates, want.NodesExplored, want.Candidates)
				}
			}
		}
	}
}

// TestParallelGoroutinesBounded runs found, exhausted, budget-aborted
// and context-canceled searches at Workers 2 and 8, with helpers
// joining at the first node. No search may start more than Workers−1
// helpers, and once the searches return, every goroutine they started
// must have exited.
func TestParallelGoroutinesBounded(t *testing.T) {
	eager(t)
	started := -1
	testHelpers = func(n int) { started = n }
	t.Cleanup(func() { testHelpers = nil })
	baseline := runtime.NumGoroutine()

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	type run struct {
		name    string
		m       *core.Model
		opt     Options
		ctx     func() (context.Context, context.CancelFunc)
		want    error
		helpers bool // the search must have started its helpers
	}
	background := func() (context.Context, context.CancelFunc) { return context.Background(), func() {} }
	runs := []run{
		{"found", e2TightModel([]int{2, 6, 6, 6}), Options{MaxLen: 6}, background, nil, true},
		{"exhausted", cancelHardInstance(2), Options{MaxLen: 12}, background, ErrNotFound, true},
		{"budget", cancelHardInstance(3), Options{MaxLen: 18, MaxCandidates: 40}, background, ErrBudget, true},
		{"deadline", cancelHardInstance(4), Options{MaxLen: 24}, func() (context.Context, context.CancelFunc) {
			return context.WithTimeout(context.Background(), 5*time.Millisecond)
		}, context.DeadlineExceeded, true},
		{"pre-canceled", cancelHardInstance(2), Options{MaxLen: 12}, func() (context.Context, context.CancelFunc) {
			return canceled, func() {}
		}, context.Canceled, false},
	}
	for _, workers := range []int{2, 8} {
		for _, r := range runs {
			ctx, done := r.ctx()
			opt := r.opt
			opt.Workers = workers
			started = -1
			s, _, err := FindScheduleCtx(ctx, r.m, opt)
			done()
			if r.want == nil && (err != nil || s == nil) || r.want != nil && !errors.Is(err, r.want) {
				t.Fatalf("%s workers=%d: schedule %v err %v, want %v", r.name, workers, s, err, r.want)
			}
			if started > workers-1 {
				t.Fatalf("%s workers=%d: started %d helpers", r.name, workers, started)
			}
			if r.helpers && started != workers-1 {
				t.Fatalf("%s workers=%d: started %d helpers, want %d", r.name, workers, started, workers-1)
			}
		}
	}
	// a canceled search's hook may still be returning
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the searches, %d before", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestHandedOverSubtreeNotMemoized pins the memo rule under stealing:
// a node part of whose children went to another worker was not
// exhausted by the worker that memoizes it, so it must not report its
// subtree leaf-free. For every suite length whose whole tree is
// leaf-free when searched alone, the test searches it again with one
// worker waiting, so the first open level is handed over, and checks
// that the root no longer claims a leaf-free subtree.
func TestHandedOverSubtreeNotMemoized(t *testing.T) {
	checked := 0
	for _, tc := range equivalenceSuite() {
		opt := tc.opt
		opt.DisableBounds = true // keep whole lengths from being refuted before descent
		p := newProblem(tc.m, opt)
		ck, err := sched.NewChecker(tc.m)
		if err != nil {
			t.Fatal(err)
		}
		for n := 1; n <= opt.MaxLen; n++ {
			minCount, totalMin := p.minCounts(n)
			if totalMin > n {
				continue
			}
			search := func(hungry bool) (leafFree bool, shared int) {
				ps := newPool(context.Background(), p, 2, ck, newMemoTable(2), opt.MaxLen, false)
				ps.n, ps.minCount, ps.totalMin = n, minCount, totalMin
				ps.helpers = []*worker{} // no helper starts
				w := ps.caller
				w.target()
				w.pollAt = math.MaxInt
				if hungry {
					ps.waiting = 1
					ps.hungry.Store(1)
					w.pollAt = 0
				}
				_, leafFree = w.node(0)
				return leafFree, len(ps.tasks)
			}
			if lf, _ := search(false); !lf {
				continue
			}
			lf, shared := search(true)
			if shared == 0 {
				continue // a single path: nothing to hand over
			}
			checked++
			if lf {
				t.Fatalf("%s n=%d: the root claims a leaf-free subtree after handing part of it over", tc.name, n)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no suite length has a leaf-free tree to split")
	}
}
