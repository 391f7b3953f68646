// Package graph provides the directed-graph substrate used by the
// graph-based computation model: adjacency structures, topological
// sorting, cycle detection, reachability, transitive closure and
// reduction, homomorphism (compatibility) checking, DOT export, and
// random DAG generation.
//
// Nodes are identified by string names; the package keeps insertion
// order stable so that algorithms are deterministic across runs.
package graph

import (
	"fmt"
	"sort"
)

// Digraph is a directed graph over string-named nodes. Internally a
// node is its position in insertion order, and adjacency is kept by
// position; index-based callers read it through Index, NodeAt, SuccAt
// and PredAt. The zero value is not usable; call New.
type Digraph struct {
	nodes   []string       // insertion order
	index   map[string]int // name -> position in nodes
	adj     []adjacency    // per position
	edgeSet map[[2]int]struct{}
}

// adjacency holds one node's neighbour positions, in insertion order.
type adjacency struct {
	succ, pred []int
}

// New returns an empty digraph.
func New() *Digraph {
	return &Digraph{index: make(map[string]int)}
}

// AddNode inserts a node if not already present. It reports whether
// the node was newly added.
func (g *Digraph) AddNode(name string) bool {
	if _, ok := g.index[name]; ok {
		return false
	}
	g.index[name] = len(g.nodes)
	g.nodes = append(g.nodes, name)
	g.adj = append(g.adj, adjacency{})
	return true
}

// HasNode reports whether name is a node of g.
func (g *Digraph) HasNode(name string) bool {
	_, ok := g.index[name]
	return ok
}

// Index returns the position of node name in insertion order, or -1
// if name is not a node of g.
func (g *Digraph) Index(name string) int {
	if i, ok := g.index[name]; ok {
		return i
	}
	return -1
}

// NodeAt returns the node at position i of insertion order.
func (g *Digraph) NodeAt(i int) string { return g.nodes[i] }

// SuccAt returns the positions of the successors of the node at
// position i, in insertion order. The slice is g's own: callers must
// not modify it, and it is valid until g next changes.
func (g *Digraph) SuccAt(i int) []int { return g.adj[i].succ }

// PredAt returns the positions of the predecessors of the node at
// position i, in insertion order, under SuccAt's terms.
func (g *Digraph) PredAt(i int) []int { return g.adj[i].pred }

// AddEdge inserts a directed edge from u to v, adding the endpoints
// if necessary. Parallel edges are collapsed. It reports whether the
// edge was newly added.
func (g *Digraph) AddEdge(u, v string) bool {
	g.AddNode(u)
	g.AddNode(v)
	ui, vi := g.index[u], g.index[v]
	key := [2]int{ui, vi}
	if _, ok := g.edgeSet[key]; ok {
		return false
	}
	if g.edgeSet == nil {
		g.edgeSet = make(map[[2]int]struct{})
	}
	g.edgeSet[key] = struct{}{}
	g.adj[ui].succ = append(g.adj[ui].succ, vi)
	g.adj[vi].pred = append(g.adj[vi].pred, ui)
	return true
}

// HasEdge reports whether the edge (u,v) exists.
func (g *Digraph) HasEdge(u, v string) bool {
	ui, ok := g.index[u]
	if !ok {
		return false
	}
	vi, ok := g.index[v]
	if !ok {
		return false
	}
	_, ok = g.edgeSet[[2]int{ui, vi}]
	return ok
}

// RemoveEdge deletes the edge (u,v) if present and reports whether it
// existed.
func (g *Digraph) RemoveEdge(u, v string) bool {
	if !g.HasEdge(u, v) {
		return false
	}
	ui, vi := g.index[u], g.index[v]
	delete(g.edgeSet, [2]int{ui, vi})
	g.adj[ui].succ = remove(g.adj[ui].succ, vi)
	g.adj[vi].pred = remove(g.adj[vi].pred, ui)
	return true
}

func remove(s []int, x int) []int {
	out := s[:0]
	for _, v := range s {
		if v != x {
			out = append(out, v)
		}
	}
	return out
}

// Nodes returns the node names in insertion order. The slice is a
// copy and may be modified by the caller.
func (g *Digraph) Nodes() []string {
	out := make([]string, len(g.nodes))
	copy(out, g.nodes)
	return out
}

// NumNodes returns the node count.
func (g *Digraph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the edge count.
func (g *Digraph) NumEdges() int { return len(g.edgeSet) }

// names returns the node names at the given positions.
func (g *Digraph) names(pos []int) []string {
	out := make([]string, len(pos))
	for i, p := range pos {
		out[i] = g.nodes[p]
	}
	return out
}

// Succ returns the successors of u in insertion order.
func (g *Digraph) Succ(u string) []string {
	i, ok := g.index[u]
	if !ok {
		return []string{}
	}
	return g.names(g.adj[i].succ)
}

// Pred returns the predecessors of u in insertion order.
func (g *Digraph) Pred(u string) []string {
	i, ok := g.index[u]
	if !ok {
		return []string{}
	}
	return g.names(g.adj[i].pred)
}

// OutDegree returns the number of out-edges of u.
func (g *Digraph) OutDegree(u string) int {
	if i, ok := g.index[u]; ok {
		return len(g.adj[i].succ)
	}
	return 0
}

// InDegree returns the number of in-edges of u.
func (g *Digraph) InDegree(u string) int {
	if i, ok := g.index[u]; ok {
		return len(g.adj[i].pred)
	}
	return 0
}

// Edge is a directed edge.
type Edge struct{ From, To string }

// Edges returns all edges ordered by source insertion order, then
// target insertion order within a source.
func (g *Digraph) Edges() []Edge {
	var out []Edge
	for u, a := range g.adj {
		for _, v := range a.succ {
			out = append(out, Edge{g.nodes[u], g.nodes[v]})
		}
	}
	return out
}

// Clone returns a deep copy of g.
func (g *Digraph) Clone() *Digraph {
	c := New()
	for _, n := range g.nodes {
		c.AddNode(n)
	}
	for _, e := range g.Edges() {
		c.AddEdge(e.From, e.To)
	}
	return c
}

// Subgraph returns the subgraph induced by keep. Unknown names are
// ignored.
func (g *Digraph) Subgraph(keep []string) *Digraph {
	in := make(map[string]bool, len(keep))
	for _, n := range keep {
		if g.HasNode(n) {
			in[n] = true
		}
	}
	s := New()
	for _, n := range g.nodes {
		if in[n] {
			s.AddNode(n)
		}
	}
	for _, e := range g.Edges() {
		if in[e.From] && in[e.To] {
			s.AddEdge(e.From, e.To)
		}
	}
	return s
}

// Equal reports whether g and h have identical node and edge sets
// (insertion order is ignored).
func (g *Digraph) Equal(h *Digraph) bool {
	if g.NumNodes() != h.NumNodes() || g.NumEdges() != h.NumEdges() {
		return false
	}
	for _, n := range g.nodes {
		if !h.HasNode(n) {
			return false
		}
	}
	for u, a := range g.adj {
		for _, v := range a.succ {
			if !h.HasEdge(g.nodes[u], g.nodes[v]) {
				return false
			}
		}
	}
	return true
}

// String renders a compact deterministic description, useful in tests
// and error messages.
func (g *Digraph) String() string {
	nodes := g.Nodes()
	sort.Strings(nodes)
	edges := g.Edges()
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].From != edges[j].From {
			return edges[i].From < edges[j].From
		}
		return edges[i].To < edges[j].To
	})
	s := "nodes{"
	for i, n := range nodes {
		if i > 0 {
			s += ","
		}
		s += n
	}
	s += "} edges{"
	for i, e := range edges {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf("%s->%s", e.From, e.To)
	}
	return s + "}"
}
