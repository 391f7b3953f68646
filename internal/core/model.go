// Package core implements the paper's graph-based computation model
// for real-time systems: a model M = (G, T) pairing a communication
// graph G = (V, E, W_V) of weighted functional elements with a set T
// of timing constraints (C, p, d), where each C is a task graph
// compatible with G and each constraint is either periodic or
// asynchronous.
package core

import (
	"errors"
	"fmt"
	"sort"

	"rtm/internal/graph"
)

// Kind distinguishes periodic from asynchronous timing constraints.
type Kind int

const (
	// Periodic constraints are invoked automatically every p time
	// units starting at time 0.
	Periodic Kind = iota
	// Asynchronous constraints may be invoked at any integral time
	// instant, with successive invocations at least p units apart.
	Asynchronous
)

func (k Kind) String() string {
	switch k {
	case Periodic:
		return "periodic"
	case Asynchronous:
		return "asynchronous"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// CommGraph is the communication graph G = (V, E, W_V): functional
// elements as nodes, communication paths as edges, and a non-negative
// integer computation-time weight per node.
type CommGraph struct {
	G      *graph.Digraph
	Weight map[string]int
}

// NewCommGraph returns an empty communication graph.
func NewCommGraph() *CommGraph {
	return &CommGraph{G: graph.New(), Weight: make(map[string]int)}
}

// AddElement inserts a functional element with the given computation
// time. Re-adding an element updates its weight.
func (c *CommGraph) AddElement(name string, weight int) {
	c.G.AddNode(name)
	c.Weight[name] = weight
}

// AddPath inserts a communication path (directed edge) from u to v,
// creating zero-weight endpoints if missing.
func (c *CommGraph) AddPath(u, v string) {
	for _, n := range []string{u, v} {
		if !c.G.HasNode(n) {
			c.AddElement(n, 0)
		}
	}
	c.G.AddEdge(u, v)
}

// Elements returns the functional element names in insertion order.
func (c *CommGraph) Elements() []string { return c.G.Nodes() }

// WeightOf returns the computation time of element name, or 0 for
// unknown names.
func (c *CommGraph) WeightOf(name string) int { return c.Weight[name] }

// Clone returns a deep copy.
func (c *CommGraph) Clone() *CommGraph {
	n := NewCommGraph()
	n.G = c.G.Clone()
	for k, v := range c.Weight {
		n.Weight[k] = v
	}
	return n
}

// Validate checks structural invariants: every node has a
// non-negative weight entry and every weight entry names a node.
// (The communication graph itself may be cyclic — e.g. the feedback
// path through f_K in the paper's example.)
func (c *CommGraph) Validate() error {
	for i := range c.G.NumNodes() {
		n := c.G.NodeAt(i)
		w, ok := c.Weight[n]
		if !ok {
			return fmt.Errorf("core: element %q has no weight", n)
		}
		if w < 0 {
			return fmt.Errorf("core: element %q has negative weight %d", n, w)
		}
	}
	for n := range c.Weight {
		if !c.G.HasNode(n) {
			return fmt.Errorf("core: weight entry %q is not an element", n)
		}
	}
	return nil
}

// TaskGraph is an acyclic digraph compatible with a communication
// graph: node x of the task graph denotes an execution of functional
// element Elem[x], and an edge denotes transmission of the latest
// output along the corresponding communication path.
//
// In the common case task-graph nodes are simply named after the
// functional elements they execute and Elem is the identity; distinct
// node names with an explicit Elem mapping allow a task graph to
// execute the same element more than once.
type TaskGraph struct {
	G    *graph.Digraph
	Elem graph.Homomorphism // task node -> functional element
}

// NewTaskGraph returns an empty task graph.
func NewTaskGraph() *TaskGraph {
	return &TaskGraph{G: graph.New(), Elem: make(graph.Homomorphism)}
}

// ChainTask builds a task graph that is a chain of the given
// functional elements, using the element names as node names.
// Elements may not repeat (use AddStep for repeated executions).
func ChainTask(elems ...string) *TaskGraph {
	t := NewTaskGraph()
	prev := ""
	for _, e := range elems {
		t.AddStep(e, e)
		if prev != "" {
			t.G.AddEdge(prev, e)
		}
		prev = e
	}
	return t
}

// AddStep inserts a task node executing the given functional element.
func (t *TaskGraph) AddStep(node, elem string) {
	t.G.AddNode(node)
	t.Elem[node] = elem
}

// AddPrec inserts a precedence edge between two task nodes.
func (t *TaskGraph) AddPrec(from, to string) {
	t.G.AddEdge(from, to)
}

// Nodes returns task node names in insertion order.
func (t *TaskGraph) Nodes() []string { return t.G.Nodes() }

// ElementOf returns the functional element executed by task node n.
func (t *TaskGraph) ElementOf(n string) string { return t.Elem[n] }

// ComputationTime returns the sum of the weights of the functional
// elements executed by the task graph (the paper's computation time
// of a timing constraint).
func (t *TaskGraph) ComputationTime(c *CommGraph) int {
	total := 0
	for i := range t.G.NumNodes() {
		total += c.WeightOf(t.Elem[t.G.NodeAt(i)])
	}
	return total
}

// Clone returns a deep copy.
func (t *TaskGraph) Clone() *TaskGraph {
	n := NewTaskGraph()
	n.G = t.G.Clone()
	for k, v := range t.Elem {
		n.Elem[k] = v
	}
	return n
}

// Validate checks that the task graph is acyclic and compatible with
// the communication graph: every node maps to an element of c and
// every edge maps to a communication path of c. A valid task graph of
// up to 32 nodes is checked without allocating.
func (t *TaskGraph) Validate(c *CommGraph) error {
	if !t.G.IsAcyclic() {
		return fmt.Errorf("core: task graph is cyclic: %v", t.G.FindCycle())
	}
	if err := graph.CheckHomomorphism(t.G, c.G, t.Elem); err != nil {
		return fmt.Errorf("core: task graph incompatible with communication graph: %w", err)
	}
	return nil
}

// Constraint is a timing constraint (C, p, d) of kind periodic or
// asynchronous. An invocation at time t requires the task graph to be
// executed within [t, t+d].
type Constraint struct {
	Name     string
	Task     *TaskGraph
	Period   int // p: period (periodic) or minimum separation (asynchronous)
	Deadline int // d: relative deadline
	Kind     Kind
}

// ComputationTime returns the constraint's total computation demand.
func (c *Constraint) ComputationTime(g *CommGraph) int {
	return c.Task.ComputationTime(g)
}

// Clone returns a deep copy.
func (c *Constraint) Clone() *Constraint {
	n := *c
	n.Task = c.Task.Clone()
	return &n
}

// Model is the paper's graph-based model M = (G, T).
type Model struct {
	Comm        *CommGraph
	Constraints []*Constraint
}

// NewModel returns an empty model.
func NewModel() *Model {
	return &Model{Comm: NewCommGraph()}
}

// AddConstraint appends a constraint.
func (m *Model) AddConstraint(c *Constraint) { m.Constraints = append(m.Constraints, c) }

// Periodic returns the periodic constraints in declaration order.
func (m *Model) Periodic() []*Constraint { return m.byKind(Periodic) }

// Asynchronous returns the asynchronous constraints in declaration
// order.
func (m *Model) Asynchronous() []*Constraint { return m.byKind(Asynchronous) }

func (m *Model) byKind(k Kind) []*Constraint {
	var out []*Constraint
	for _, c := range m.Constraints {
		if c.Kind == k {
			out = append(out, c)
		}
	}
	return out
}

// ConstraintByName returns the constraint with the given name, or nil.
func (m *Model) ConstraintByName(name string) *Constraint {
	for _, c := range m.Constraints {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// Clone returns a deep copy of the model.
func (m *Model) Clone() *Model {
	n := NewModel()
	n.Comm = m.Comm.Clone()
	for _, c := range m.Constraints {
		n.Constraints = append(n.Constraints, c.Clone())
	}
	return n
}

// ErrInvalid wraps all model validation failures.
var ErrInvalid = errors.New("core: invalid model")

// Validate checks the whole model: the communication graph, every
// task graph's compatibility, positive periods, non-negative
// deadlines, unique constraint names, and that every constraint's
// computation time fits within its deadline (otherwise it can never
// be met by any schedule).
func (m *Model) Validate() error {
	if err := m.Comm.Validate(); err != nil {
		return fmt.Errorf("%w: %v", ErrInvalid, err)
	}
	seen := make(map[string]bool)
	for _, c := range m.Constraints {
		if c.Name == "" {
			return fmt.Errorf("%w: constraint with empty name", ErrInvalid)
		}
		if seen[c.Name] {
			return fmt.Errorf("%w: duplicate constraint name %q", ErrInvalid, c.Name)
		}
		seen[c.Name] = true
		if c.Period <= 0 {
			return fmt.Errorf("%w: constraint %q has non-positive period %d", ErrInvalid, c.Name, c.Period)
		}
		if c.Deadline <= 0 {
			return fmt.Errorf("%w: constraint %q has non-positive deadline %d", ErrInvalid, c.Name, c.Deadline)
		}
		if c.Task == nil || c.Task.G.NumNodes() == 0 {
			return fmt.Errorf("%w: constraint %q has empty task graph", ErrInvalid, c.Name)
		}
		if err := c.Task.Validate(m.Comm); err != nil {
			return fmt.Errorf("%w: constraint %q: %v", ErrInvalid, c.Name, err)
		}
		if w := c.ComputationTime(m.Comm); w > c.Deadline {
			return fmt.Errorf("%w: constraint %q needs %d time units but deadline is %d",
				ErrInvalid, c.Name, w, c.Deadline)
		}
	}
	return nil
}

// Utilization returns Σ w_i / p_i over all constraints: the long-run
// fraction of processor time demanded if every constraint arrives at
// its maximum rate and no operations are shared.
func (m *Model) Utilization() float64 {
	u := 0.0
	for _, c := range m.Constraints {
		u += float64(c.ComputationTime(m.Comm)) / float64(c.Period)
	}
	return u
}

// DeadlineDensity returns Σ w_i / d_i over all constraints, the
// quantity bounded by 1/2 in the paper's Theorem 3.
func (m *Model) DeadlineDensity() float64 {
	u := 0.0
	for _, c := range m.Constraints {
		u += float64(c.ComputationTime(m.Comm)) / float64(c.Deadline)
	}
	return u
}

// ElementsUsed returns the sorted set of functional elements that
// appear in at least one constraint's task graph.
func (m *Model) ElementsUsed() []string {
	set := make(map[string]bool)
	for _, c := range m.Constraints {
		for _, n := range c.Task.Nodes() {
			set[c.Task.ElementOf(n)] = true
		}
	}
	out := make([]string, 0, len(set))
	for e := range set {
		out = append(out, e)
	}
	sort.Strings(out)
	return out
}

// SharedElements returns, in sorted order, the functional elements
// that occur in two or more constraints' task graphs — exactly the
// elements that the naive process mapping must protect with monitors.
func (m *Model) SharedElements() []string {
	count := make(map[string]int)
	for _, c := range m.Constraints {
		inThis := make(map[string]bool)
		for _, n := range c.Task.Nodes() {
			inThis[c.Task.ElementOf(n)] = true
		}
		for e := range inThis {
			count[e]++
		}
	}
	var out []string
	for e, n := range count {
		if n >= 2 {
			out = append(out, e)
		}
	}
	sort.Strings(out)
	return out
}
