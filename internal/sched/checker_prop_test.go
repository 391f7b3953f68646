package sched

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"rtm/internal/core"
	"rtm/internal/graph"
	"rtm/internal/workload"
)

// agreesWithReference asserts that Check and the Checker both give
// the vendored reference Analyzer's answers (refCheck) on one
// candidate schedule: Check its whole Report, the Checker its
// feasibility verdict, every per-constraint worst-case latency and
// contiguity, through the name entry points and the id ones. Pass a nil Checker for models it cannot take (cyclic
// task graphs).
func agreesWithReference(t *testing.T, label string, m *core.Model, ck *Checker, s *Schedule) {
	t.Helper()
	wantRep := refCheck(m, s)
	if got := Check(m, s); !reflect.DeepEqual(got, wantRep) {
		t.Fatalf("%s: Check =\n%v\nreference =\n%v\nschedule %v", label, got, wantRep, s.Slots)
	}
	if ck == nil {
		return
	}
	if got := ck.Feasible(s); got != wantRep.Feasible {
		t.Fatalf("%s: Feasible = %v, reference = %v\nschedule %v", label, got, wantRep.Feasible, s.Slots)
	}
	want := analyzerWorst(m, s)
	got := ck.Worsts(s)
	if len(got) != len(want) {
		t.Fatalf("%s: worsts length %d != %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: constraint %d worst = %d, reference = %d\nschedule %v",
				label, i, got[i], want[i], s.Slots)
		}
	}
	if got, want := ck.Contiguous(s), Contiguous(m.Comm, s); got != want {
		t.Fatalf("%s: Contiguous = %v, reference = %v", label, got, want)
	}
	// the id entry points, over an alphabet of their own: an unused
	// name first, then the schedule's names in order of appearance
	names := []string{"unused"}
	id := map[string]int{}
	ids := make([]int, len(s.Slots))
	for i, sym := range s.Slots {
		if _, ok := id[sym]; !ok {
			id[sym] = len(names)
			names = append(names, sym)
		}
		ids[i] = id[sym]
	}
	alpha := ck.Alphabet(names)
	if got := ck.FeasibleIDs(ids, alpha); got != wantRep.Feasible {
		t.Fatalf("%s: FeasibleIDs = %v, reference = %v\nschedule %v", label, got, wantRep.Feasible, s.Slots)
	}
	if got, want := ck.ContiguousIDs(ids, alpha), Contiguous(m.Comm, s); got != want {
		t.Fatalf("%s: ContiguousIDs = %v, reference = %v", label, got, want)
	}
}

// TestCheckerPropertyRandomModels is the property-test hardening pass
// over the fast checker: on fully random models (random connected
// communication DAGs, random chain constraints, mixed kinds and
// weights) the Checker must agree with the reference Check/Analyzer
// on every candidate schedule — feasibility verdict, per-constraint
// worst-case latencies, and contiguity alike.
func TestCheckerPropertyRandomModels(t *testing.T) {
	rng := rand.New(rand.NewSource(1985))
	trials := 40
	if testing.Short() {
		trials = 10
	}
	for trial := 0; trial < trials; trial++ {
		m, err := workload.Random(rng, workload.Params{
			Elements:    2 + rng.Intn(5),
			MaxWeight:   1 + rng.Intn(3),
			EdgeProb:    rng.Float64(),
			Constraints: 1 + rng.Intn(4),
			ChainLen:    1 + rng.Intn(3),
			AsyncFrac:   rng.Float64(),
			TargetUtil:  0.2 + 0.6*rng.Float64(),
		})
		if err != nil {
			t.Fatal(err)
		}
		ck := MustChecker(m)
		for round := 0; round < 40; round++ {
			s := randomScheduleOver(rng, m, 1+rng.Intn(12))
			agreesWithReference(t, fmt.Sprintf("trial %d round %d", trial, round), m, ck, s)
		}
	}
}

// TestCheckerPropertyDAGTasks drives the same agreement property with
// general DAG task graphs (not just chains): each constraint's task is
// a random induced sub-DAG of the communication graph, so precedence
// fan-in/fan-out and multi-node tasks are exercised, which
// workload.Random's chain constraints never produce.
func TestCheckerPropertyDAGTasks(t *testing.T) {
	rng := rand.New(rand.NewSource(85))
	trials := 30
	if testing.Short() {
		trials = 8
	}
	for trial := 0; trial < trials; trial++ {
		g := graph.RandomConnectedDAG(rng, "e", 3+rng.Intn(4), 0.5)
		m := core.NewModel()
		for _, n := range g.Nodes() {
			m.Comm.AddElement(n, 1+rng.Intn(2))
		}
		for _, e := range g.Edges() {
			m.Comm.AddPath(e.From, e.To)
		}
		nCons := 1 + rng.Intn(3)
		for i := 0; i < nCons; i++ {
			sub := graph.RandomSubDAG(rng, g, 1+rng.Intn(3))
			task := core.NewTaskGraph()
			for _, n := range sub.Nodes() {
				task.AddStep("s"+n, n)
			}
			for _, e := range sub.Edges() {
				task.AddPrec("s"+e.From, "s"+e.To)
			}
			w := task.ComputationTime(m.Comm)
			kind := core.Periodic
			if rng.Intn(2) == 0 {
				kind = core.Asynchronous
			}
			period := 2*w + rng.Intn(8)
			m.AddConstraint(&core.Constraint{
				Name: fmt.Sprintf("d%d", i), Task: task,
				Period: period, Deadline: period, Kind: kind,
			})
		}
		if m.Validate() != nil {
			continue // e.g. sub-DAG tasks that break compatibility; not the property under test
		}
		ck := MustChecker(m)
		for round := 0; round < 40; round++ {
			s := randomScheduleOver(rng, m, 1+rng.Intn(10))
			agreesWithReference(t, fmt.Sprintf("dag trial %d round %d", trial, round), m, ck, s)
		}
	}
}

// TestCheckAgreesOnEdgeCases drives the differential oracle through
// the models a validated spec never produces but Check still answers:
// zero-weight elements, task nodes and schedule slots naming elements
// outside the communication graph, elements repeated within one task,
// cyclic task graphs, and the empty schedule.
func TestCheckAgreesOnEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	trials := 300
	if testing.Short() {
		trials = 80
	}
	for trial := 0; trial < trials; trial++ {
		m := core.NewModel()
		ne := 1 + rng.Intn(4)
		elems := make([]string, ne)
		for i := range elems {
			elems[i] = fmt.Sprintf("e%d", i)
			m.Comm.AddElement(elems[i], rng.Intn(3)) // weight 0 included
		}
		pool := append([]string{"ghost"}, elems...) // ghost is not an element
		cyclic := false
		for ci, nc := 0, 1+rng.Intn(3); ci < nc; ci++ {
			task := core.NewTaskGraph()
			nn := 1 + rng.Intn(4)
			for k := 0; k < nn; k++ {
				task.AddStep(fmt.Sprintf("n%d", k), pool[rng.Intn(len(pool))])
			}
			for k := 1; k < nn; k++ {
				if rng.Intn(2) == 0 {
					task.AddPrec(fmt.Sprintf("n%d", rng.Intn(k)), fmt.Sprintf("n%d", k))
				}
			}
			if nn > 1 && rng.Intn(8) == 0 {
				task.AddPrec(fmt.Sprintf("n%d", nn-1), "n0")
				cyclic = true
			}
			kind := core.Periodic
			if rng.Intn(2) == 0 {
				kind = core.Asynchronous
			}
			p := 1 + rng.Intn(12)
			m.AddConstraint(&core.Constraint{
				Name: fmt.Sprintf("c%d", ci), Task: task,
				Period: p, Deadline: 1 + rng.Intn(12), Kind: kind,
			})
		}
		var ck *Checker
		if !cyclic {
			ck = MustChecker(m)
		}
		for round := 0; round < 10; round++ {
			slots := make([]string, rng.Intn(9)) // length 0 included
			for i := range slots {
				if x := rng.Intn(len(pool) + 1); x < len(pool) {
					slots[i] = pool[x]
				}
			}
			agreesWithReference(t, fmt.Sprintf("edge trial %d round %d", trial, round), m, ck, &Schedule{Slots: slots})
		}
	}
}
