package graph

import (
	"errors"
	"fmt"
)

// ErrCycle is returned by TopoSort when the graph is not acyclic.
var ErrCycle = errors.New("graph: cycle detected")

// TopoSort returns a topological ordering of the nodes using Kahn's
// algorithm. Among ready nodes the one inserted earliest is chosen,
// so the result is deterministic. It returns ErrCycle (wrapped with a
// witness) if the graph has a cycle.
func (g *Digraph) TopoSort() ([]string, error) {
	n := len(g.nodes)
	pos := make([]int, 2*n)
	if !g.kahn(pos[:n], pos[n:]) {
		cyc := g.FindCycle()
		return nil, fmt.Errorf("%w: %v", ErrCycle, cyc)
	}
	out := make([]string, n)
	for i, p := range pos[:n] {
		out[i] = g.nodes[p]
	}
	return out, nil
}

// TopoOrder appends the node positions (see NodeAt) to dst in
// TopoSort's order. It reports false, and returns dst unchanged, if g
// is cyclic.
func (g *Digraph) TopoOrder(dst []int) ([]int, bool) {
	n := len(g.nodes)
	var small [32]int
	indeg := small[:]
	if n > len(small) {
		indeg = make([]int, n)
	}
	start := len(dst)
	dst = append(dst, make([]int, n)...)
	if !g.kahn(dst[start:], indeg[:n]) {
		return dst[:start], false
	}
	return dst, true
}

// kahn runs Kahn's algorithm over node positions with a FIFO ready
// queue seeded in insertion order, writing the order into order and
// using indeg as scratch (both of length NumNodes). It reports whether
// every node was ordered, that is, whether g is acyclic.
func (g *Digraph) kahn(order, indeg []int) bool {
	tail := 0
	for i, a := range g.adj {
		indeg[i] = len(a.pred)
		if indeg[i] == 0 {
			order[tail] = i
			tail++
		}
	}
	for head := 0; head < tail; head++ {
		for _, j := range g.adj[order[head]].succ {
			indeg[j]--
			if indeg[j] == 0 {
				order[tail] = j
				tail++
			}
		}
	}
	return tail == len(g.nodes)
}

// IsAcyclic reports whether g has no directed cycle. It allocates
// nothing for graphs of up to 32 nodes.
func (g *Digraph) IsAcyclic() bool {
	n := len(g.nodes)
	var small [64]int
	buf := small[:]
	if 2*n > len(small) {
		buf = make([]int, 2*n)
	}
	return g.kahn(buf[:n], buf[n:2*n])
}

// FindCycle returns the nodes of some directed cycle in order, or nil
// if the graph is acyclic.
func (g *Digraph) FindCycle() []string {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make(map[string]int, len(g.nodes))
	parent := make(map[string]string)
	var cycle []string
	var dfs func(u string) bool
	dfs = func(u string) bool {
		color[u] = gray
		for _, vi := range g.adj[g.index[u]].succ {
			v := g.nodes[vi]
			switch color[v] {
			case white:
				parent[v] = u
				if dfs(v) {
					return true
				}
			case gray:
				// back edge u -> v closes a cycle v ... u
				cycle = []string{v}
				for w := u; w != v; w = parent[w] {
					cycle = append(cycle, w)
				}
				// reverse into v -> ... -> u order
				for i, j := 1, len(cycle)-1; i < j; i, j = i+1, j-1 {
					cycle[i], cycle[j] = cycle[j], cycle[i]
				}
				return true
			}
		}
		color[u] = black
		return false
	}
	for _, n := range g.nodes {
		if color[n] == white && dfs(n) {
			return cycle
		}
	}
	return nil
}

// AllTopoSorts enumerates every topological ordering of g, calling
// yield for each; enumeration stops early if yield returns false.
// It returns ErrCycle if g is cyclic. The slice passed to yield is
// reused between calls; copy it to retain.
func (g *Digraph) AllTopoSorts(yield func([]string) bool) error {
	if !g.IsAcyclic() {
		return ErrCycle
	}
	indeg := make(map[string]int, len(g.nodes))
	for _, n := range g.nodes {
		indeg[n] = len(g.adj[g.index[n]].pred)
	}
	order := make([]string, 0, len(g.nodes))
	used := make(map[string]bool, len(g.nodes))
	stopped := false
	var rec func()
	rec = func() {
		if stopped {
			return
		}
		if len(order) == len(g.nodes) {
			if !yield(order) {
				stopped = true
			}
			return
		}
		for _, n := range g.nodes {
			if used[n] || indeg[n] != 0 {
				continue
			}
			used[n] = true
			order = append(order, n)
			for _, mi := range g.adj[g.index[n]].succ {
				m := g.nodes[mi]
				indeg[m]--
			}
			rec()
			for _, mi := range g.adj[g.index[n]].succ {
				m := g.nodes[mi]
				indeg[m]++
			}
			order = order[:len(order)-1]
			used[n] = false
			if stopped {
				return
			}
		}
	}
	rec()
	return nil
}

// Sources returns the nodes with no incoming edges, in insertion
// order.
func (g *Digraph) Sources() []string {
	var out []string
	for i, a := range g.adj {
		if len(a.pred) == 0 {
			out = append(out, g.nodes[i])
		}
	}
	return out
}

// Sinks returns the nodes with no outgoing edges, in insertion order.
func (g *Digraph) Sinks() []string {
	var out []string
	for i, a := range g.adj {
		if len(a.succ) == 0 {
			out = append(out, g.nodes[i])
		}
	}
	return out
}

// LongestPathLen returns the number of edges on a longest directed
// path of an acyclic graph; it returns an error if g is cyclic.
func (g *Digraph) LongestPathLen() (int, error) {
	order, err := g.TopoSort()
	if err != nil {
		return 0, err
	}
	dist := make(map[string]int, len(order))
	best := 0
	for _, u := range order {
		for _, vi := range g.adj[g.index[u]].succ {
			v := g.nodes[vi]
			if dist[u]+1 > dist[v] {
				dist[v] = dist[u] + 1
				if dist[v] > best {
					best = dist[v]
				}
			}
		}
	}
	return best, nil
}
