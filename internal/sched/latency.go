package sched

import (
	"math"
	"sort"

	"rtm/internal/core"
)

// Infinite is the latency reported when the schedule can never
// execute the task graph (some needed element never appears).
const Infinite = math.MaxInt

// execution is one parsed execution of a functional element in a
// trace: a group of weight-many slots assigned to that element,
// grouped greedily in time order (which realizes the paper's
// pipeline ordering: earlier start implies earlier finish).
type execution struct {
	start  int // first slot index
	finish int // last slot index + 1
}

// parseExecutions groups the slots of each element in the unrolled
// trace into executions of the element's weight. Elements with zero
// weight need no slots and get no executions (they complete
// instantly at their ready time). Trailing partial groups are
// dropped.
func parseExecutions(trace []string, weight map[string]int) map[string][]execution {
	slots := make(map[string][]int)
	for i, x := range trace {
		if x != Idle {
			slots[x] = append(slots[x], i)
		}
	}
	out := make(map[string][]execution, len(slots))
	for elem, idx := range slots {
		w := weight[elem]
		if w <= 0 {
			continue
		}
		for i := 0; i+w <= len(idx); i += w {
			out[elem] = append(out[elem], execution{start: idx[i], finish: idx[i+w-1] + 1})
		}
	}
	return out
}

// Analyzer computes latencies of one schedule against constraints of
// one communication graph. It unrolls the trace once, groups each
// element's slots into executions, and answers many queries; it is
// not modified by them, so concurrent queries are safe.
//
// Elements are the communication graph's nodes, identified by their
// position (comm.G.Index). The executions of element e are entries
// off[e] to off[e+1] of starts and finish, in time order.
type Analyzer struct {
	sched  *Schedule
	comm   *core.CommGraph
	align  int   // number of cycles after which execution parsing repeats
	off    []int // per element, plus one: offsets into starts and finish
	starts []int // execution start slots (first slot), for binary search
	finish []int // execution finish slots (last slot + 1)
}

// NewAnalyzer builds an analyzer whose unrolled horizon is sufficient
// for task graphs with up to maxNodes nodes and maxWork total
// computation time. Passing the model's maxima (or generous bounds)
// is safe.
func NewAnalyzer(comm *core.CommGraph, s *Schedule, maxNodes, maxWork int) *Analyzer {
	ne := comm.G.NumNodes()
	perElem := make([]int, 3*ne+1)
	weight, count, off := perElem[:ne], perElem[ne:2*ne], perElem[2*ne:]
	for e := range weight {
		weight[e] = comm.WeightOf(comm.G.NodeAt(e))
	}
	// the element of each slot of one cycle, or -1 where no execution
	// can form: idle slots, names outside the graph, weights ≤ 0
	slotElem := make([]int, s.Len())
	for i, x := range s.Slots {
		e := -1
		if x != Idle {
			e = comm.G.Index(x)
		}
		if e >= 0 && weight[e] <= 0 {
			e = -1
		}
		if e >= 0 {
			count[e]++
		}
		slotElem[i] = e
	}
	// Execution grouping only realigns with the cycle boundary every
	// `align` cycles: an element with k slots per cycle and weight w
	// realigns after w/gcd(k,w) cycles.
	align := 1
	for e, k := range count {
		if k > 0 {
			align = lcm(align, weight[e]/gcd(k, weight[e]))
		}
	}
	n := max(s.Len(), 1)
	cycles := align + maxWork + maxNodes + 2
	a := &Analyzer{sched: s, comm: comm, align: align, off: off}

	// An element with k slots per cycle occupies k·cycles slots of the
	// unrolled trace, which group into k·cycles/w whole executions; a
	// trailing partial group is dropped.
	for e, k := range count {
		off[e+1] = off[e]
		if k > 0 {
			off[e+1] += k * cycles / weight[e]
		}
	}
	execs := make([]int, 2*off[ne])
	a.starts, a.finish = execs[:off[ne]], execs[off[ne]:]
	// Walk the unrolled trace once, grouping each element's slots
	// greedily in time order. count is reused as the per-element
	// number of slots seen so far.
	clear(count)
	for c := range cycles {
		for i, e := range slotElem {
			if e < 0 {
				continue
			}
			j := count[e]
			count[e]++
			x := off[e] + j/weight[e]
			if x >= off[e+1] {
				continue
			}
			if j%weight[e] == 0 {
				a.starts[x] = c*n + i
			}
			if j%weight[e] == weight[e]-1 {
				a.finish[x] = c*n + i + 1
			}
		}
	}
	return a
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func lcm(a, b int) int { return a / gcd(a, b) * b }

// AnalyzerFor builds an analyzer sized for every constraint of m.
func AnalyzerFor(m *core.Model, s *Schedule) *Analyzer {
	maxNodes, maxWork := 1, 1
	for _, c := range m.Constraints {
		if n := c.Task.G.NumNodes(); n > maxNodes {
			maxNodes = n
		}
		if w := c.ComputationTime(m.Comm); w > maxWork {
			maxWork = w
		}
	}
	return NewAnalyzer(m.Comm, s, maxNodes, maxWork)
}

// flatTask is a task graph in index form: its nodes in TopoSort's
// order, with per-node scratch for one EarliestCompletion at a time.
type flatTask struct {
	nodes  []flatNode
	finish []int // per node: finish time of its execution
	pick   []int // per node: index of the execution it took
}

type flatNode struct {
	elem  int   // element position, -1 if the element is not in the graph
	w     int   // the element's weight
	prev  int   // latest earlier node executing the same element, or -1
	preds []int // indices into nodes (always earlier)
}

// flatten puts task into index form against the analyzer's graph. It
// reports false for a cyclic task graph.
func (a *Analyzer) flatten(task *core.TaskGraph) (*flatTask, bool) {
	g := task.G
	nn := g.NumNodes()
	npred := 0
	for i := range nn {
		npred += len(g.PredAt(i))
	}
	ne := a.comm.G.NumNodes()
	buf := make([]int, 4*nn+ne+npred) // carved into every slice below
	take := func(n int) []int {
		s := buf[:n:n]
		buf = buf[n:]
		return s
	}
	order, ok := g.TopoOrder(take(nn)[:0])
	if !ok {
		return nil, false
	}
	at, last := take(nn), take(ne)
	for i := range last {
		last[i] = -1
	}
	t := &flatTask{nodes: make([]flatNode, nn), finish: take(nn), pick: take(nn)}
	for k, p := range order {
		at[p] = k
	}
	for k, p := range order {
		elem := task.ElementOf(g.NodeAt(p))
		nd := &t.nodes[k]
		nd.elem, nd.w, nd.prev = a.comm.G.Index(elem), a.comm.WeightOf(elem), -1
		if nd.elem >= 0 {
			nd.prev, last[nd.elem] = last[nd.elem], k
		}
		ps := g.PredAt(p)
		nd.preds = take(len(ps))
		for j, q := range ps {
			nd.preds[j] = at[q]
		}
	}
	return t, true
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
func (a *Analyzer) EarliestCompletion(task *core.TaskGraph, from int) int {
	t, ok := a.flatten(task)
	if !ok {
		return Infinite
	}
	return a.earliestCompletion(t, from)
}

func (a *Analyzer) earliestCompletion(t *flatTask, from int) int {
	completion := from
	for i := range t.nodes {
		nd := &t.nodes[i]
		ready := from
		for _, p := range nd.preds {
			if t.finish[p] > ready {
				ready = t.finish[p]
			}
		}
		if nd.w == 0 {
			t.finish[i] = ready
			if ready > completion {
				completion = ready
			}
			continue
		}
		if nd.elem < 0 {
			return Infinite
		}
		lo, hi := a.off[nd.elem], a.off[nd.elem+1]
		// earliest execution with start >= ready, not yet consumed
		// by an earlier node of this task graph.
		x := lo + sort.SearchInts(a.starts[lo:hi], ready)
		if nd.prev >= 0 && x <= t.pick[nd.prev] {
			x = t.pick[nd.prev] + 1
		}
		if x >= hi {
			return Infinite
		}
		t.pick[i] = x
		t.finish[i] = a.finish[x]
		if a.finish[x] > completion {
			completion = a.finish[x]
		}
	}
	return completion
}

// Latency returns the latency of the schedule with respect to the
// task graph: the least k such that every interval of length ≥ k in
// the generated trace contains an execution of the task graph.
// Returns Infinite if no interval does.
func (a *Analyzer) Latency(task *core.TaskGraph) int {
	n := a.sched.Len()
	if n == 0 {
		return Infinite
	}
	t, ok := a.flatten(task)
	if !ok {
		return Infinite
	}
	// scan one full alignment period of starting points
	span := n * a.align
	worst := 0
	for i := 0; i < span; i++ {
		f := a.earliestCompletion(t, i)
		if f == Infinite {
			return Infinite
		}
		if f-i > worst {
			worst = f - i
		}
	}
	return worst
}

// Latency is a convenience wrapper building a one-shot analyzer.
func Latency(comm *core.CommGraph, s *Schedule, task *core.TaskGraph) int {
	w := task.ComputationTime(comm)
	a := NewAnalyzer(comm, s, task.G.NumNodes(), w)
	return a.Latency(task)
}
