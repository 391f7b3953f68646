package sched

// The Analyzer and Check as they stood before the index-based
// rewrite, preserved verbatim (only renamed) as a test oracle: Check
// and the Checker must both reproduce refCheck's Report on every
// model and schedule. Without it the agreement tests would compare
// the new code with itself. Do not "improve" this file — its value is
// that it does not change.

import (
	"sort"

	"rtm/internal/core"
)

// refExecution is one parsed execution of a functional element in a
// trace: a group of weight-many slots assigned to that element,
// grouped greedily in time order (which realizes the paper's
// pipeline ordering: earlier start implies earlier finish).
type refExecution struct {
	start  int // first slot index
	finish int // last slot index + 1
}

// refParseExecutions groups the slots of each element in the unrolled
// trace into executions of the element's weight. Elements with zero
// weight need no slots and get no executions (they complete
// instantly at their ready time). Trailing partial groups are
// dropped.
func refParseExecutions(trace []string, weight map[string]int) map[string][]refExecution {
	slots := make(map[string][]int)
	for i, x := range trace {
		if x != Idle {
			slots[x] = append(slots[x], i)
		}
	}
	out := make(map[string][]refExecution, len(slots))
	for elem, idx := range slots {
		w := weight[elem]
		if w <= 0 {
			continue
		}
		for i := 0; i+w <= len(idx); i += w {
			out[elem] = append(out[elem], refExecution{start: idx[i], finish: idx[i+w-1] + 1})
		}
	}
	return out
}

// refAnalyzer computes latencies of one schedule against constraints of
// one communication graph. It pre-parses the unrolled trace once and
// answers many queries.
type refAnalyzer struct {
	sched  *Schedule
	comm   *core.CommGraph
	horiz  int
	align  int // number of cycles after which execution parsing repeats
	execs  map[string][]refExecution
	starts map[string][]int // start times, for binary search
}

// refNewAnalyzer builds an analyzer whose unrolled horizon is sufficient
// for task graphs with up to maxNodes nodes and maxWork total
// computation time. Passing the model's maxima (or generous bounds)
// is safe.
func refNewAnalyzer(comm *core.CommGraph, s *Schedule, maxNodes, maxWork int) *refAnalyzer {
	n := s.Len()
	if n == 0 {
		n = 1
	}
	// Execution grouping only realigns with the cycle boundary every
	// `align` cycles: an element with k slots per cycle and weight w
	// realigns after w/gcd(k,w) cycles.
	align := 1
	for _, elem := range comm.Elements() {
		w := comm.WeightOf(elem)
		k := s.Count(elem)
		if w <= 0 || k == 0 {
			continue
		}
		align = lcm(align, w/gcd(k, w))
	}
	horiz := n * (align + maxWork + maxNodes + 2)
	a := &refAnalyzer{sched: s, comm: comm, horiz: horiz, align: align}
	a.execs = refParseExecutions(s.Unroll(horiz), comm.Weight)
	a.starts = make(map[string][]int, len(a.execs))
	for e, xs := range a.execs {
		st := make([]int, len(xs))
		for i, x := range xs {
			st[i] = x.start
		}
		a.starts[e] = st
	}
	return a
}

// refAnalyzerFor builds an analyzer sized for every constraint of m.
func refAnalyzerFor(m *core.Model, s *Schedule) *refAnalyzer {
	maxNodes, maxWork := 1, 1
	for _, c := range m.Constraints {
		if n := c.Task.G.NumNodes(); n > maxNodes {
			maxNodes = n
		}
		if w := c.ComputationTime(m.Comm); w > maxWork {
			maxWork = w
		}
	}
	return refNewAnalyzer(m.Comm, s, maxNodes, maxWork)
}

// EarliestCompletion returns the earliest time f such that an
// execution of the task graph fits entirely within [from, f] of the
// schedule's trace, or Infinite if no execution fits within the
// analyzer's horizon.
//
// Task nodes are processed in topological order; each takes the
// earliest unused execution of its element starting at or after its
// ready time (the max finish of its predecessors, or from). This is
// exact when task nodes map to distinct elements, and a safe upper
// bound otherwise.
func (a *refAnalyzer) EarliestCompletion(task *core.TaskGraph, from int) int {
	order, err := task.G.TopoSort()
	if err != nil {
		return Infinite
	}
	finish := make(map[string]int, len(order))
	used := make(map[string]int) // element -> next unused execution index lower bound
	completion := from
	for _, node := range order {
		elem := task.ElementOf(node)
		ready := from
		for _, p := range task.G.Pred(node) {
			if finish[p] > ready {
				ready = finish[p]
			}
		}
		w := a.comm.WeightOf(elem)
		if w == 0 {
			finish[node] = ready
			if ready > completion {
				completion = ready
			}
			continue
		}
		starts := a.starts[elem]
		// earliest execution with start >= ready, not yet consumed
		// by an earlier node of this task graph.
		i := sort.SearchInts(starts, ready)
		if i < used[elem] {
			i = used[elem]
		}
		if i >= len(starts) {
			return Infinite
		}
		ex := a.execs[elem][i]
		used[elem] = i + 1
		finish[node] = ex.finish
		if ex.finish > completion {
			completion = ex.finish
		}
	}
	return completion
}

// Latency returns the latency of the schedule with respect to the
// task graph: the least k such that every interval of length ≥ k in
// the generated trace contains an execution of the task graph.
// Returns Infinite if no interval does.
func (a *refAnalyzer) Latency(task *core.TaskGraph) int {
	n := a.sched.Len()
	if n == 0 {
		return Infinite
	}
	// scan one full alignment period of starting points
	span := n * a.align
	worst := 0
	for i := 0; i < span; i++ {
		f := a.EarliestCompletion(task, i)
		if f == Infinite {
			return Infinite
		}
		if f-i > worst {
			worst = f - i
		}
	}
	return worst
}

// refCheck verifies a static schedule against every constraint of the
// model and returns a full report.
//
// Asynchronous constraints (C, p, d): the schedule must have latency
// ≤ d with respect to C — then an invocation at any instant t finds
// an execution of C inside [t, t+d], regardless of the separation p
// (the adversary controls invocation times).
//
// Periodic constraints (C, p, d): invocations occur at t = 0, p, 2p,
// …; each needs an execution of C inside [t, t+d]. The check walks
// all invocation instants in one alignment window of the schedule
// cycle against the period. Invocations are checked independently,
// which is exact when d ≤ p.
func refCheck(m *core.Model, s *Schedule) *Report {
	a := refAnalyzerFor(m, s)
	rep := &Report{Feasible: true}
	for _, c := range m.Constraints {
		var worst int
		switch c.Kind {
		case core.Asynchronous:
			worst = a.Latency(c.Task)
		case core.Periodic:
			worst = a.PeriodicWorstResponse(c)
		}
		ok := worst <= c.Deadline
		if !ok {
			rep.Feasible = false
		}
		rep.Constraints = append(rep.Constraints, ConstraintReport{
			Name:     c.Name,
			Kind:     c.Kind,
			Deadline: c.Deadline,
			Latency:  worst,
			OK:       ok,
		})
	}
	return rep
}

// PeriodicWorstResponse returns the worst completion span over all
// invocations t = 0, p, 2p, … of a periodic constraint, scanning one
// full alignment window of cycle length, parsing alignment and
// period.
func (a *refAnalyzer) PeriodicWorstResponse(c *core.Constraint) int {
	n := a.sched.Len()
	if n == 0 {
		return Infinite
	}
	// The trace's execution structure repeats every M = n*align
	// slots, so ect(t+M) = ect(t)+M and only t mod M matters. The
	// invocation instants {kp mod M} are exactly the multiples of
	// gcd(p, M), so scanning those inside [0, M) covers every
	// invocation without leaving the analyzer's horizon.
	m := n * a.align
	step := gcd(c.Period, m)
	worst := 0
	for t := 0; t < m; t += step {
		f := a.EarliestCompletion(c.Task, t)
		if f == Infinite {
			return Infinite
		}
		if f-t > worst {
			worst = f - t
		}
	}
	return worst
}
