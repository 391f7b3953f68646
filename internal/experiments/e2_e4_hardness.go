package experiments

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"rtm/internal/core"
	"rtm/internal/exact"
	"rtm/internal/nphard"
	"rtm/internal/workload"
)

// exactWorkers is the worker count every experiment passes to the
// exact searcher. It defaults to 1 so the committed tables carry the
// sequential search's deterministic node and candidate counts;
// rtbench -workers overrides it for wall-clock runs.
var exactWorkers = 1

// SetExactWorkers sets the exact-search worker count used by E2–E4
// (see exact.Options.Workers). The found/infeasible verdicts and the
// schedules are identical for any value; only the effort statistics
// and the wall-clock change. A negative value means all CPUs
// (GOMAXPROCS); zero falls back to 1.
func SetExactWorkers(w int) {
	switch {
	case w < 0:
		w = runtime.GOMAXPROCS(0)
	case w == 0:
		w = 1
	}
	exactWorkers = w
}

// E2ExactSearch demonstrates Theorem 1: the exact searcher always
// terminates, finding a finite feasible static schedule when one
// exists; explored-node counts grow exponentially with instance size.
func E2ExactSearch() *Table {
	t := &Table{
		ID:      "E2",
		Title:   "Theorem 1: exact search for finite feasible static schedules",
		Columns: []string{"constraints", "density", "kind", "found", "sched-len", "nodes-explored", "nodes-pruned", "candidates", "time"},
	}
	rng := rand.New(rand.NewSource(21))
	// feasible instances: search stops at the first witness
	for _, n := range []int{2, 3, 4, 5} {
		m := workload.AsyncOnly(rng, n, 0.7)
		_, stBase, _ := exact.FindSchedule(m, prunersOff(exact.Options{MaxLen: 8, Workers: exactWorkers}))
		start := time.Now()
		s, st, err := exact.FindSchedule(m, exact.Options{MaxLen: 8, Workers: exactWorkers})
		elapsed := time.Since(start)
		found := err == nil
		schedLen := "-"
		if found {
			schedLen = fmt.Sprint(s.Len())
		} else if !errors.Is(err, exact.ErrNotFound) {
			schedLen = "err"
		}
		t.AddRow(n, m.DeadlineDensity(), "feasible", yesNo(found), schedLen,
			stBase.NodesExplored, st.NodesExplored, st.Candidates, elapsed.Round(time.Microsecond))
	}
	// Infeasible instances with exactly unit capacity (Σ 1/d = 1) are
	// not rejected by the capacity bound — the searcher must exhaust
	// the space, exposing the exponential decision cost. Deadline set
	// {2,3,6}: the even slots go to the d=2 op, and no placement of
	// the d=3 and d=6 ops on the odd slots meets both windows.
	// All three rows have density exactly 1; feasibility then hinges
	// on the *combinatorics* of window placement, which only search
	// decides: {2,6,6,6} packs (evens + one odd slot each), while
	// {2,3,6} and {2,4,6,12} admit no placement.
	hard := []struct {
		ds     []int
		maxLen int
	}{
		{[]int{2, 3, 6}, 6},
		{[]int{2, 6, 6, 6}, 6},
		{[]int{2, 4, 6, 12}, 12},
	}
	for _, h := range hard {
		m := core.NewModel()
		for i, d := range h.ds {
			name := fmt.Sprintf("u%d", i)
			m.Comm.AddElement(name, 1)
			m.AddConstraint(&core.Constraint{
				Name: "c" + name, Task: core.ChainTask(name),
				Period: d, Deadline: d, Kind: core.Asynchronous,
			})
		}
		_, stBase, _ := exact.FindSchedule(m, prunersOff(exact.Options{MaxLen: h.maxLen, Workers: exactWorkers}))
		start := time.Now()
		_, st, err := exact.FindSchedule(m, exact.Options{MaxLen: h.maxLen, Workers: exactWorkers})
		elapsed := time.Since(start)
		t.AddRow(len(h.ds), m.DeadlineDensity(), "tight", yesNo(err == nil), "-",
			stBase.NodesExplored, st.NodesExplored, st.Candidates, elapsed.Round(time.Microsecond))
	}
	t.Notes = append(t.Notes,
		"feasible rows stop at the first witness; infeasible rows exhaust every length up to the bound,",
		"so their explored-node counts expose the exponential decision cost (Theorem 2) under Theorem 1's termination guarantee",
		"nodes-explored is the seed engine (pruners off); nodes-pruned is the default engine (PR 5 pruners on) — identical verdicts")
	return t
}

// prunersOff disables the PR-5 pruners, restoring the seed engine's
// deterministic node counts for the before/after columns.
func prunersOff(opt exact.Options) exact.Options {
	opt.DisableSymmetry = true
	opt.DisableMemo = true
	opt.DisableBounds = true
	return opt
}

// E3ThreePartition runs the Theorem 2(i) reduction: YES 3-PARTITION
// instances yield feasible encoded schedules (decodable back to a
// partition), NO instances are proven infeasible by exhaustion, and
// solver effort grows steeply with m.
func E3ThreePartition() *Table {
	t := &Table{
		ID:      "E3",
		Title:   "Theorem 2(i): 3-PARTITION reduction (unit separator + rigid items)",
		Columns: []string{"m", "B", "kind", "3P-solver", "sched-feasible", "decode-ok", "nodes-explored", "nodes-pruned", "time"},
	}
	cases := []struct {
		tp   nphard.ThreePartition
		kind string
	}{
		{nphard.ThreePartition{Sizes: []int{3, 2, 2}, B: 7}, "YES"},
		{nphard.ThreePartition{Sizes: []int{6, 5, 5, 6, 5, 5}, B: 16}, "YES"},
		{nphard.ThreePartition{Sizes: []int{7, 5, 5, 5, 5, 5}, B: 16}, "NO"},
		{nphard.ThreePartition{Sizes: []int{3, 2, 2, 3, 2, 2, 3, 2, 2}, B: 7}, "YES"},
	}
	for _, c := range cases {
		_, spOK := c.tp.Solve()
		m, err := nphard.EncodeThreePartition(c.tp)
		if err != nil {
			t.AddRow(c.tp.M(), c.tp.B, c.kind, yesNo(spOK), "encode-err", "-", "-", "-", "-")
			continue
		}
		n := c.tp.M() * (c.tp.B + 1)
		opt := exact.Options{
			MinLen: n, MaxLen: n, RequireContiguous: true, MaxCandidates: 5_000_000,
			Workers: exactWorkers,
		}
		_, stBase, _ := exact.FindSchedule(m, prunersOff(opt))
		start := time.Now()
		s, st, err := exact.FindSchedule(m, opt)
		elapsed := time.Since(start)
		feasible := err == nil
		decodeOK := "-"
		if feasible {
			_, ok := nphard.DecodePartition(c.tp, s)
			decodeOK = yesNo(ok)
		}
		t.AddRow(c.tp.M(), c.tp.B, c.kind, yesNo(spOK), yesNo(feasible), decodeOK,
			stBase.NodesExplored, st.NodesExplored, elapsed.Round(time.Microsecond))
	}
	t.Notes = append(t.Notes,
		"feasibility of the encoding must equal the 3-PARTITION answer on every row",
		"nodes-explored is the seed engine (pruners off); nodes-pruned the default engine — the NO row's exhaustion shrinks the most")
	return t
}

// E4CyclicOrdering runs the Theorem 2(ii) instance family: single-op
// constraints, one deviant deadline, no pipelining. The cyclic
// ordering solver's factorial growth is shown alongside the fact that
// feasible schedules of the core encoding are exactly circular
// arrangements.
func E4CyclicOrdering() *Table {
	t := &Table{
		ID:      "E4",
		Title:   "Theorem 2(ii): CYCLIC ORDERING family (single ops, one deviant deadline, no pipelining)",
		Columns: []string{"n", "triples", "CO-solver", "core-schedule", "arrangement", "nodes-explored", "nodes-pruned", "solver-time"},
	}
	rng := rand.New(rand.NewSource(33))
	for _, n := range []int{4, 5, 6, 7} {
		co := randomCyclicOrdering(rng, n, n-2)
		start := time.Now()
		_, coOK := co.Solve()
		elapsed := time.Since(start)

		m, err := nphard.EncodeCyclicCore(n, 1)
		coreOK, arrOK := "-", "-"
		nodesBase, nodesPruned := "-", "-"
		if err == nil {
			cycle := n + 1
			opt := exact.Options{
				MinLen: cycle, MaxLen: cycle, RequireContiguous: true,
				Workers: exactWorkers,
			}
			_, stBase, _ := exact.FindSchedule(m, prunersOff(opt))
			s, st, serr := exact.FindSchedule(m, opt)
			coreOK = yesNo(serr == nil)
			nodesBase, nodesPruned = fmt.Sprint(stBase.NodesExplored), fmt.Sprint(st.NodesExplored)
			if serr == nil {
				_, ok := nphard.DecodeArrangement(n, 1, s.Slots)
				arrOK = yesNo(ok)
			}
		}
		t.AddRow(n, len(co.Triples), yesNo(coOK), coreOK, arrOK, nodesBase, nodesPruned, elapsed.Round(time.Microsecond))
	}
	t.Notes = append(t.Notes,
		"the core encoding's feasible schedules are exactly circular arrangements; triple gadgets per [MOK 83]",
		"CO solver enumerates (n-1)! arrangements — factorial growth")
	return t
}

func randomCyclicOrdering(rng *rand.Rand, n, triples int) nphard.CyclicOrdering {
	// draw consistent triples from a random hidden arrangement so the
	// instances are satisfiable
	perm := rng.Perm(n)
	pos := make([]int, n)
	for i, v := range perm {
		pos[v] = i
	}
	co := nphard.CyclicOrdering{N: n}
	for len(co.Triples) < triples {
		a, b, c := rng.Intn(n), rng.Intn(n), rng.Intn(n)
		if a == b || b == c || a == c {
			continue
		}
		pb := (pos[b] - pos[a] + n) % n
		pc := (pos[c] - pos[a] + n) % n
		if pb < pc {
			co.Triples = append(co.Triples, [3]int{a, b, c})
		} else {
			co.Triples = append(co.Triples, [3]int{a, c, b})
		}
	}
	return co
}
