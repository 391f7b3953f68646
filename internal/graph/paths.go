package graph

// Reachable reports whether there is a directed path (possibly empty)
// from u to v.
func (g *Digraph) Reachable(u, v string) bool {
	if !g.HasNode(u) || !g.HasNode(v) {
		return false
	}
	if u == v {
		return true
	}
	seen := map[string]bool{u: true}
	stack := []string{u}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, mi := range g.adj[g.index[n]].succ {
			m := g.nodes[mi]
			if m == v {
				return true
			}
			if !seen[m] {
				seen[m] = true
				stack = append(stack, m)
			}
		}
	}
	return false
}

// ReachableSet returns all nodes reachable from u (including u), in
// BFS order.
func (g *Digraph) ReachableSet(u string) []string {
	if !g.HasNode(u) {
		return nil
	}
	seen := map[string]bool{u: true}
	queue := []string{u}
	var out []string
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		out = append(out, n)
		for _, mi := range g.adj[g.index[n]].succ {
			m := g.nodes[mi]
			if !seen[m] {
				seen[m] = true
				queue = append(queue, m)
			}
		}
	}
	return out
}

// ShortestPath returns a minimum-edge-count directed path from u to v
// (inclusive), or nil if none exists.
func (g *Digraph) ShortestPath(u, v string) []string {
	if !g.HasNode(u) || !g.HasNode(v) {
		return nil
	}
	if u == v {
		return []string{u}
	}
	parent := map[string]string{u: u}
	queue := []string{u}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, mi := range g.adj[g.index[n]].succ {
			m := g.nodes[mi]
			if _, ok := parent[m]; ok {
				continue
			}
			parent[m] = n
			if m == v {
				var path []string
				for w := v; ; w = parent[w] {
					path = append(path, w)
					if w == u {
						break
					}
				}
				for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
					path[i], path[j] = path[j], path[i]
				}
				return path
			}
			queue = append(queue, m)
		}
	}
	return nil
}

// TransitiveClosure returns a new digraph with an edge (u,v) for
// every ordered pair of distinct nodes where v is reachable from u.
func (g *Digraph) TransitiveClosure() *Digraph {
	c := New()
	for _, n := range g.nodes {
		c.AddNode(n)
	}
	for _, u := range g.nodes {
		for _, v := range g.ReachableSet(u) {
			if u != v {
				c.AddEdge(u, v)
			}
		}
	}
	return c
}

// TransitiveReduction returns the unique minimal graph with the same
// reachability relation as an acyclic g. It returns an error if g is
// cyclic.
func (g *Digraph) TransitiveReduction() (*Digraph, error) {
	if !g.IsAcyclic() {
		return nil, ErrCycle
	}
	r := New()
	for _, n := range g.nodes {
		r.AddNode(n)
	}
	for _, e := range g.Edges() {
		// keep (u,v) unless some other successor w of u reaches v
		redundant := false
		for _, wi := range g.adj[g.index[e.From]].succ {
			w := g.nodes[wi]
			if w != e.To && g.Reachable(w, e.To) {
				redundant = true
				break
			}
		}
		if !redundant {
			r.AddEdge(e.From, e.To)
		}
	}
	return r, nil
}

// WeaklyConnectedComponents partitions the nodes into components of
// the underlying undirected graph, each in insertion order, with the
// components ordered by their earliest node.
func (g *Digraph) WeaklyConnectedComponents() [][]string {
	comp := make(map[string]int, len(g.nodes))
	for _, n := range g.nodes {
		comp[n] = -1
	}
	var groups [][]string
	for _, start := range g.nodes {
		if comp[start] != -1 {
			continue
		}
		id := len(groups)
		comp[start] = id
		queue := []string{start}
		var members []string
		for len(queue) > 0 {
			n := queue[0]
			queue = queue[1:]
			members = append(members, n)
			for _, mi := range g.adj[g.index[n]].succ {
				m := g.nodes[mi]
				if comp[m] == -1 {
					comp[m] = id
					queue = append(queue, m)
				}
			}
			for _, mi := range g.adj[g.index[n]].pred {
				m := g.nodes[mi]
				if comp[m] == -1 {
					comp[m] = id
					queue = append(queue, m)
				}
			}
		}
		groups = append(groups, members)
	}
	return groups
}

// IsChain reports whether an acyclic g is a simple directed chain
// v1 -> v2 -> ... -> vk (every node in/out degree at most 1, single
// weak component, no branching). The empty graph is not a chain; a
// single node is a chain of length 1.
func (g *Digraph) IsChain() bool {
	if g.NumNodes() == 0 || !g.IsAcyclic() {
		return false
	}
	if len(g.WeaklyConnectedComponents()) != 1 {
		return false
	}
	for _, n := range g.nodes {
		if len(g.adj[g.index[n]].succ) > 1 || len(g.adj[g.index[n]].pred) > 1 {
			return false
		}
	}
	return true
}
