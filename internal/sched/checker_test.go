package sched

import (
	"fmt"
	"math/rand"
	"testing"

	"rtm/internal/core"
)

// checkerModels builds a spread of models exercising every code path:
// async-only unit ops, chains, weighted (pipelinable) elements,
// periodic constraints, and mixes.
func checkerModels() []*core.Model {
	var out []*core.Model

	unit := core.NewModel()
	unit.Comm.AddElement("a", 1)
	unit.AddConstraint(&core.Constraint{
		Name: "A", Task: core.ChainTask("a"),
		Period: 2, Deadline: 2, Kind: core.Asynchronous,
	})
	out = append(out, unit)

	chain := core.NewModel()
	chain.Comm.AddElement("a", 1)
	chain.Comm.AddElement("b", 1)
	chain.Comm.AddPath("a", "b")
	chain.AddConstraint(&core.Constraint{
		Name: "AB", Task: core.ChainTask("a", "b"),
		Period: 4, Deadline: 4, Kind: core.Asynchronous,
	})
	out = append(out, chain)

	heavy := core.NewModel()
	heavy.Comm.AddElement("h", 2)
	heavy.Comm.AddElement("l", 1)
	heavy.AddConstraint(&core.Constraint{
		Name: "H", Task: core.ChainTask("h"),
		Period: 8, Deadline: 8, Kind: core.Asynchronous,
	})
	heavy.AddConstraint(&core.Constraint{
		Name: "L", Task: core.ChainTask("l"),
		Period: 3, Deadline: 3, Kind: core.Asynchronous,
	})
	out = append(out, heavy)

	mixed := core.NewModel()
	mixed.Comm.AddElement("p", 1)
	mixed.Comm.AddElement("q", 1)
	mixed.Comm.AddElement("r", 2)
	mixed.AddConstraint(&core.Constraint{
		Name: "P", Task: core.ChainTask("p"),
		Period: 2, Deadline: 2, Kind: core.Periodic,
	})
	mixed.AddConstraint(&core.Constraint{
		Name: "Q", Task: core.ChainTask("q"),
		Period: 4, Deadline: 4, Kind: core.Asynchronous,
	})
	mixed.AddConstraint(&core.Constraint{
		Name: "R", Task: core.ChainTask("r"),
		Period: 6, Deadline: 5, Kind: core.Periodic,
	})
	out = append(out, mixed)

	return out
}

// randomScheduleOver draws a schedule of the given length over the
// model's elements plus idle.
func randomScheduleOver(rng *rand.Rand, m *core.Model, n int) *Schedule {
	alphabet := append([]string{Idle}, m.ElementsUsed()...)
	slots := make([]string, n)
	for i := range slots {
		slots[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return &Schedule{Slots: slots}
}

// analyzerWorst is the reference per-constraint worst via the
// vendored reference Analyzer.
func analyzerWorst(m *core.Model, s *Schedule) []int {
	a := refAnalyzerFor(m, s)
	out := make([]int, 0, len(m.Constraints))
	for _, c := range m.Constraints {
		switch c.Kind {
		case core.Asynchronous:
			out = append(out, a.Latency(c.Task))
		case core.Periodic:
			out = append(out, a.PeriodicWorstResponse(c))
		}
	}
	return out
}

func TestCheckerMatchesAnalyzer(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for mi, m := range checkerModels() {
		ck, err := NewChecker(m)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 300; trial++ {
			n := 1 + rng.Intn(8)
			s := randomScheduleOver(rng, m, n)
			agreesWithReference(t, fmt.Sprintf("model %d trial %d", mi, trial), m, ck, s)
		}
	}
}

func TestCheckerEmptySchedule(t *testing.T) {
	m := checkerModels()[0]
	ck := MustChecker(m)
	empty := New()
	if ck.Feasible(empty) {
		t.Fatal("empty schedule feasible for a constrained model")
	}
	if w := ck.Worsts(empty); len(w) != 1 || w[0] != Infinite {
		t.Fatalf("worsts = %v", w)
	}
	if !ck.Contiguous(empty) {
		t.Fatal("empty schedule should be trivially contiguous")
	}

	free := core.NewModel()
	ckFree := MustChecker(free)
	if !ckFree.Feasible(empty) {
		t.Fatal("unconstrained model infeasible")
	}
}

func TestCheckerReuseAcrossSchedules(t *testing.T) {
	// the same Checker must give identical answers as a fresh one on
	// every schedule in a long interleaved sequence (scratch reuse).
	rng := rand.New(rand.NewSource(13))
	for _, m := range checkerModels() {
		shared := MustChecker(m)
		for trial := 0; trial < 100; trial++ {
			s := randomScheduleOver(rng, m, 1+rng.Intn(6))
			fresh := MustChecker(m)
			if got, want := shared.Feasible(s), fresh.Feasible(s); got != want {
				t.Fatalf("reused checker diverged on %v: %v vs %v", s, got, want)
			}
		}
	}
}

func TestCheckerCyclicTask(t *testing.T) {
	m := core.NewModel()
	m.Comm.AddElement("a", 1)
	m.Comm.AddElement("b", 1)
	task := core.NewTaskGraph()
	task.AddStep("a", "a")
	task.AddStep("b", "b")
	task.AddPrec("a", "b")
	task.AddPrec("b", "a")
	m.AddConstraint(&core.Constraint{Name: "X", Task: task, Period: 4, Deadline: 4, Kind: core.Asynchronous})
	if _, err := NewChecker(m); err == nil {
		t.Fatal("cyclic task graph accepted")
	}
}
