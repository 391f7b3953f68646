package graph

// StronglyConnectedComponents returns the SCCs of g in reverse
// topological order of the condensation (every edge of the
// condensation goes from a later component to an earlier one in the
// returned slice). Tarjan's algorithm, iterative on the recursion
// only through node order, recursive in implementation (graphs here
// are small).
func (g *Digraph) StronglyConnectedComponents() [][]string {
	index := make(map[string]int, len(g.nodes))
	low := make(map[string]int, len(g.nodes))
	onStack := make(map[string]bool, len(g.nodes))
	var stack []string
	var comps [][]string
	next := 0

	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, wi := range g.adj[g.index[v]].succ {
			w := g.nodes[wi]
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			comps = append(comps, comp)
		}
	}
	for _, v := range g.nodes {
		if _, seen := index[v]; !seen {
			strongconnect(v)
		}
	}
	return comps
}

// Condensation returns the DAG of strongly connected components: one
// node per SCC (named scc0, scc1, … in the order returned by
// StronglyConnectedComponents) and an edge between two components
// whenever some original edge crosses them. The mapping from original
// node to component name is returned alongside.
func (g *Digraph) Condensation() (*Digraph, map[string]string) {
	comps := g.StronglyConnectedComponents()
	name := make(map[string]string, len(g.nodes))
	c := New()
	for i, comp := range comps {
		cn := sccName(i)
		c.AddNode(cn)
		for _, v := range comp {
			name[v] = cn
		}
	}
	for _, e := range g.Edges() {
		cu, cv := name[e.From], name[e.To]
		if cu != cv {
			c.AddEdge(cu, cv)
		}
	}
	return c, name
}

func sccName(i int) string {
	return "scc" + itoa(i)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// CriticalPath returns a maximum-total-weight directed path of an
// acyclic graph under the given node weights, together with its total
// weight. It returns nil, 0 with an error for cyclic graphs.
func (g *Digraph) CriticalPath(weight map[string]int) ([]string, int, error) {
	order, err := g.TopoSort()
	if err != nil {
		return nil, 0, err
	}
	best := make(map[string]int, len(order))
	prev := make(map[string]string, len(order))
	endNode, endWeight := "", -1
	for _, u := range order {
		w := best[u] + weight[u]
		if w > endWeight {
			endWeight = w
			endNode = u
		}
		for _, vi := range g.adj[g.index[u]].succ {
			v := g.nodes[vi]
			if w > best[v] {
				best[v] = w
				prev[v] = u
			}
		}
	}
	if endNode == "" {
		return nil, 0, nil
	}
	var path []string
	for n := endNode; ; {
		path = append(path, n)
		p, ok := prev[n]
		if !ok {
			break
		}
		n = p
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path, endWeight, nil
}
