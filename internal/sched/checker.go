package sched

import (
	"sort"

	"rtm/internal/core"
)

// Checker answers feasibility, latency and contiguity queries for
// many candidate schedules of one fixed model without re-deriving the
// per-model state (topological orders, element indices, horizon
// parameters) or re-parsing executions from a materialized trace per
// candidate. It is the throughput path used by the exact searcher and
// the local-search heuristic, which evaluate thousands to millions of
// candidate schedules per model; the Analyzer remains the one-shot
// reporting path.
//
// A Checker computes the same booleans and worst-case latencies as
// AnalyzerFor/Check on every schedule: executions are derived
// arithmetically from the per-cycle slot positions (occurrence j of
// element e sits at slot (j/k)·n + p[j mod k], so execution i spans
// occurrences [i·w, (i+1)·w)), bounded by the same horizon the
// Analyzer unrolls to.
//
// A Checker is not safe for concurrent use; create one per goroutine.
type Checker struct {
	cons     []ckConstraint
	maxNodes int
	maxWork  int
	elems    []string
	weight   []int          // computation time per element index
	symID    map[string]int // element name -> index

	// The name entry points (Feasible, Worsts, Contiguous) translate a
	// schedule into ids once: nameIDs[i] is 0 for Idle or a name the
	// model does not know, else the element index + 1, and nameAlpha
	// maps those ids back to element indices.
	nameIDs   []int
	nameAlpha []int

	// schedule-bound state, set by bind
	n     int
	align int
	occ   [][]int // per element: slot positions within one cycle, ascending
	nexec []int   // per element: executions wholly inside the horizon

	// query scratch
	finish []int // per task node of the current constraint
	used   []int // per element: next unconsumed execution index
	usedAt []int // stamp guarding used
	stamp  int
	worsts []int
}

// ckConstraint is one constraint with its task graph flattened to
// index form: nodes in topological order, predecessors as indices.
type ckConstraint struct {
	src   *core.Constraint
	nodes []ckNode
}

type ckNode struct {
	elem  int // element index, -1 when the element is unknown to the graph
	w     int
	preds []int // indices into the nodes slice (always earlier)
}

// NewChecker precomputes the model-dependent state. The model must
// not be mutated while the checker is in use.
func NewChecker(m *core.Model) (*Checker, error) {
	ck := &Checker{maxNodes: 1, maxWork: 1, symID: make(map[string]int)}
	ck.elems = m.Comm.Elements()
	ck.weight = make([]int, len(ck.elems))
	for i, e := range ck.elems {
		ck.symID[e] = i
		ck.weight[i] = m.Comm.WeightOf(e)
	}
	maxNodes := 0
	for _, c := range m.Constraints {
		order, err := c.Task.G.TopoSort()
		if err != nil {
			return nil, err
		}
		idx := make(map[string]int, len(order))
		nodes := make([]ckNode, len(order))
		for i, node := range order {
			idx[node] = i
			elem := c.Task.ElementOf(node)
			eid, ok := ck.symID[elem]
			if !ok {
				eid = -1
			}
			nd := ckNode{elem: eid, w: m.Comm.WeightOf(elem)}
			for _, p := range c.Task.G.Pred(node) {
				nd.preds = append(nd.preds, idx[p])
			}
			nodes[i] = nd
		}
		ck.cons = append(ck.cons, ckConstraint{src: c, nodes: nodes})
		if len(nodes) > maxNodes {
			maxNodes = len(nodes)
		}
		if w := c.ComputationTime(m.Comm); w > ck.maxWork {
			ck.maxWork = w
		}
	}
	if maxNodes > ck.maxNodes {
		ck.maxNodes = maxNodes
	}
	ck.nameAlpha = ck.Alphabet(append([]string{Idle}, ck.elems...))
	ck.occ = make([][]int, len(ck.elems))
	ck.nexec = make([]int, len(ck.elems))
	ck.finish = make([]int, ck.maxNodes)
	ck.used = make([]int, len(ck.elems))
	ck.usedAt = make([]int, len(ck.elems))
	return ck, nil
}

// MustChecker is NewChecker for models already known to have acyclic
// task graphs (e.g. validated models); it panics otherwise.
func MustChecker(m *core.Model) *Checker {
	ck, err := NewChecker(m)
	if err != nil {
		panic(err)
	}
	return ck
}

// Alphabet returns the id→element table for a caller's symbol
// alphabet: entry i is the element index of names[i], or -1 for Idle
// and for names the model does not know. A caller that keeps
// candidates as symbol ids builds it once and passes it to every
// FeasibleIDs and ContiguousIDs call; no name is looked up per
// candidate.
func (ck *Checker) Alphabet(names []string) []int {
	alpha := make([]int, len(names))
	for i, name := range names {
		alpha[i] = -1
		if id, ok := ck.symID[name]; ok && name != Idle {
			alpha[i] = id
		}
	}
	return alpha
}

// ids translates a name schedule into the id form of nameAlpha.
func (ck *Checker) ids(s *Schedule) []int {
	ck.nameIDs = ck.nameIDs[:0]
	for _, sym := range s.Slots {
		id := 0
		if e, ok := ck.symID[sym]; ok && sym != Idle {
			id = e + 1
		}
		ck.nameIDs = append(ck.nameIDs, id)
	}
	return ck.nameIDs
}

// bind derives the schedule-dependent state (slot positions,
// alignment, horizon execution counts) of the candidate whose slot i
// holds symbol ids[i], an index into alpha. It reports false for the
// empty schedule, whose latencies are all Infinite.
func (ck *Checker) bind(ids, alpha []int) bool {
	ck.n = len(ids)
	if ck.n == 0 {
		return false
	}
	for e := range ck.occ {
		ck.occ[e] = ck.occ[e][:0]
	}
	for i, id := range ids {
		if e := alpha[id]; e >= 0 {
			ck.occ[e] = append(ck.occ[e], i)
		}
	}
	align := 1
	for e := range ck.elems {
		w, k := ck.weight[e], len(ck.occ[e])
		if w <= 0 || k == 0 {
			continue
		}
		align = lcm(align, w/gcd(k, w))
	}
	ck.align = align
	cycles := align + ck.maxWork + ck.maxNodes + 2 // horizon in schedule cycles
	for e := range ck.elems {
		if w := ck.weight[e]; w > 0 {
			ck.nexec[e] = len(ck.occ[e]) * cycles / w
		} else {
			ck.nexec[e] = 0
		}
	}
	return true
}

// slotOf returns the trace position of occurrence j of the element
// whose cycle positions are p (k = len(p) occurrences per cycle).
func (ck *Checker) slotOf(p []int, j int) int {
	k := len(p)
	return (j/k)*ck.n + p[j%k]
}

// earliestCompletion mirrors Analyzer.EarliestCompletion for
// constraint ci: the earliest f such that an execution of the task
// graph fits within [from, f], or Infinite beyond the horizon.
func (ck *Checker) earliestCompletion(ci, from int) int {
	c := &ck.cons[ci]
	ck.stamp++
	completion := from
	for i := range c.nodes {
		nd := &c.nodes[i]
		ready := from
		for _, p := range nd.preds {
			if ck.finish[p] > ready {
				ready = ck.finish[p]
			}
		}
		if nd.w <= 0 {
			ck.finish[i] = ready
			if ready > completion {
				completion = ready
			}
			continue
		}
		e := nd.elem
		if e < 0 || len(ck.occ[e]) == 0 {
			return Infinite
		}
		p := ck.occ[e]
		k := len(p)
		// first occurrence at or after ready, then the first whole
		// execution starting there
		q, r := ready/ck.n, ready%ck.n
		j := q*k + sort.SearchInts(p, r)
		ei := (j + nd.w - 1) / nd.w
		if ck.usedAt[e] == ck.stamp && ck.used[e] > ei {
			ei = ck.used[e]
		}
		if ei >= ck.nexec[e] {
			return Infinite
		}
		ck.used[e] = ei + 1
		ck.usedAt[e] = ck.stamp
		f := ck.slotOf(p, ei*nd.w+nd.w-1) + 1
		ck.finish[i] = f
		if f > completion {
			completion = f
		}
	}
	return completion
}

// worstResponse returns the worst completion span of constraint ci
// over its invocation instants, early-exiting at the limit when limit
// is non-negative (the span can only grow, so exceeding the limit
// already decides feasibility). Pass limit < 0 for the exact worst.
func (ck *Checker) worstResponse(ci, limit int) int {
	c := &ck.cons[ci]
	span := ck.n * ck.align
	step := 1
	if c.src.Kind == core.Periodic {
		step = gcd(c.src.Period, span)
	}
	worst := 0
	for t := 0; t < span; t += step {
		f := ck.earliestCompletion(ci, t)
		if f == Infinite {
			return Infinite
		}
		if f-t > worst {
			worst = f - t
			if limit >= 0 && worst > limit {
				return worst
			}
		}
	}
	return worst
}

// Feasible reports whether the schedule meets every constraint. It
// returns the same boolean as Feasible(m, s) / Check(m, s).Feasible
// but reuses all scratch state and stops at the first violated
// constraint.
func (ck *Checker) Feasible(s *Schedule) bool {
	return ck.FeasibleIDs(ck.ids(s), ck.nameAlpha)
}

// FeasibleIDs is Feasible for a candidate given as symbol ids: slot i
// holds the symbol ids[i], whose element is alpha[ids[i]] (see
// Alphabet).
func (ck *Checker) FeasibleIDs(ids, alpha []int) bool {
	if !ck.bind(ids, alpha) {
		return len(ck.cons) == 0
	}
	for ci := range ck.cons {
		d := ck.cons[ci].src.Deadline
		if w := ck.worstResponse(ci, d); w == Infinite || w > d {
			return false
		}
	}
	return true
}

// Constraint returns the i-th constraint in declaration order — the
// order Worsts reports in.
func (ck *Checker) Constraint(i int) *core.Constraint { return ck.cons[i].src }

// Worsts returns the worst-case completion span of every constraint
// (Infinite when the task can never execute), in declaration order.
// The returned slice is reused by the next call.
func (ck *Checker) Worsts(s *Schedule) []int {
	ck.worsts = ck.worsts[:0]
	bound := ck.bind(ck.ids(s), ck.nameAlpha)
	for ci := range ck.cons {
		if !bound {
			ck.worsts = append(ck.worsts, Infinite)
			continue
		}
		ck.worsts = append(ck.worsts, ck.worstResponse(ci, -1))
	}
	return ck.worsts
}

// Contiguous reports whether every execution in the schedule is a
// block of consecutive slots, matching Contiguous(comm, s).
func (ck *Checker) Contiguous(s *Schedule) bool {
	return ck.ContiguousIDs(ck.ids(s), ck.nameAlpha)
}

// ContiguousIDs is Contiguous for a candidate in the id form of
// FeasibleIDs.
func (ck *Checker) ContiguousIDs(ids, alpha []int) bool {
	if !ck.bind(ids, alpha) {
		return true
	}
	cycles := ck.align + 2 // the window ContiguousViolations parses
	for e := range ck.elems {
		w, k := ck.weight[e], len(ck.occ[e])
		if w <= 1 || k == 0 {
			continue
		}
		p := ck.occ[e]
		for i := 0; i < k*cycles/w; i++ {
			start := ck.slotOf(p, i*w)
			end := ck.slotOf(p, i*w+w-1) + 1
			if end-start != w {
				return false
			}
		}
	}
	return true
}
