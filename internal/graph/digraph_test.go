package graph

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func mk(edges ...[2]string) *Digraph {
	g := New()
	for _, e := range edges {
		g.AddEdge(e[0], e[1])
	}
	return g
}

func TestAddNodeIdempotent(t *testing.T) {
	g := New()
	if !g.AddNode("a") {
		t.Fatal("first AddNode returned false")
	}
	if g.AddNode("a") {
		t.Fatal("second AddNode returned true")
	}
	if g.NumNodes() != 1 {
		t.Fatalf("NumNodes = %d, want 1", g.NumNodes())
	}
}

func TestAddEdgeCreatesNodes(t *testing.T) {
	g := New()
	g.AddEdge("a", "b")
	if !g.HasNode("a") || !g.HasNode("b") {
		t.Fatal("endpoints not created")
	}
	if !g.HasEdge("a", "b") || g.HasEdge("b", "a") {
		t.Fatal("edge direction wrong")
	}
}

func TestParallelEdgesCollapse(t *testing.T) {
	g := New()
	g.AddEdge("a", "b")
	if g.AddEdge("a", "b") {
		t.Fatal("duplicate edge reported as new")
	}
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
}

func TestRemoveEdge(t *testing.T) {
	g := mk([2]string{"a", "b"}, [2]string{"b", "c"})
	if !g.RemoveEdge("a", "b") {
		t.Fatal("RemoveEdge failed")
	}
	if g.HasEdge("a", "b") {
		t.Fatal("edge still present")
	}
	if g.RemoveEdge("a", "b") {
		t.Fatal("second removal returned true")
	}
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
	if g.OutDegree("a") != 0 || g.InDegree("b") != 0 {
		t.Fatal("degrees not updated")
	}
}

func TestSuccPredOrder(t *testing.T) {
	g := mk([2]string{"a", "b"}, [2]string{"a", "c"}, [2]string{"a", "d"})
	want := []string{"b", "c", "d"}
	got := g.Succ("a")
	if len(got) != len(want) {
		t.Fatalf("Succ = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Succ order = %v, want %v", got, want)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	g := mk([2]string{"a", "b"})
	c := g.Clone()
	c.AddEdge("b", "c")
	if g.HasNode("c") {
		t.Fatal("clone mutation leaked into original")
	}
	if !g.Equal(g.Clone()) {
		t.Fatal("clone not equal to original")
	}
}

func TestSubgraphInduced(t *testing.T) {
	g := mk([2]string{"a", "b"}, [2]string{"b", "c"}, [2]string{"a", "c"})
	s := g.Subgraph([]string{"a", "c", "zz"})
	if s.NumNodes() != 2 {
		t.Fatalf("NumNodes = %d, want 2", s.NumNodes())
	}
	if !s.HasEdge("a", "c") || s.HasEdge("a", "b") {
		t.Fatal("induced edges wrong")
	}
}

func TestTopoSortRespectsEdges(t *testing.T) {
	g := mk([2]string{"a", "b"}, [2]string{"b", "c"}, [2]string{"a", "c"}, [2]string{"d", "c"})
	order, err := g.TopoSort()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[string]int{}
	for i, n := range order {
		pos[n] = i
	}
	for _, e := range g.Edges() {
		if pos[e.From] >= pos[e.To] {
			t.Fatalf("order %v violates edge %v", order, e)
		}
	}
}

func TestTopoSortCycle(t *testing.T) {
	g := mk([2]string{"a", "b"}, [2]string{"b", "c"}, [2]string{"c", "a"})
	if _, err := g.TopoSort(); err == nil {
		t.Fatal("expected cycle error")
	}
	if g.IsAcyclic() {
		t.Fatal("IsAcyclic true on cyclic graph")
	}
	cyc := g.FindCycle()
	if len(cyc) != 3 {
		t.Fatalf("FindCycle = %v, want length 3", cyc)
	}
	for i, n := range cyc {
		next := cyc[(i+1)%len(cyc)]
		if !g.HasEdge(n, next) {
			t.Fatalf("cycle %v has missing edge %s->%s", cyc, n, next)
		}
	}
}

func TestSelfLoopCycle(t *testing.T) {
	g := mk([2]string{"a", "a"})
	if g.IsAcyclic() {
		t.Fatal("self-loop should be a cycle")
	}
	if cyc := g.FindCycle(); len(cyc) != 1 || cyc[0] != "a" {
		t.Fatalf("FindCycle = %v", cyc)
	}
}

func TestAllTopoSortsDiamond(t *testing.T) {
	// a -> b, a -> c, b -> d, c -> d: exactly 2 orders
	g := mk([2]string{"a", "b"}, [2]string{"a", "c"}, [2]string{"b", "d"}, [2]string{"c", "d"})
	count := 0
	err := g.AllTopoSorts(func(o []string) bool {
		count++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Fatalf("got %d topological sorts, want 2", count)
	}
}

func TestAllTopoSortsEarlyStop(t *testing.T) {
	g := New()
	for _, n := range []string{"a", "b", "c", "d", "e"} {
		g.AddNode(n)
	}
	count := 0
	if err := g.AllTopoSorts(func(o []string) bool {
		count++
		return count < 3
	}); err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
}

func TestSourcesSinks(t *testing.T) {
	g := mk([2]string{"a", "b"}, [2]string{"b", "c"})
	if s := g.Sources(); len(s) != 1 || s[0] != "a" {
		t.Fatalf("Sources = %v", s)
	}
	if s := g.Sinks(); len(s) != 1 || s[0] != "c" {
		t.Fatalf("Sinks = %v", s)
	}
}

func TestLongestPathLen(t *testing.T) {
	g := mk([2]string{"a", "b"}, [2]string{"b", "c"}, [2]string{"a", "c"})
	n, err := g.LongestPathLen()
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("LongestPathLen = %d, want 2", n)
	}
}

func TestReachability(t *testing.T) {
	g := mk([2]string{"a", "b"}, [2]string{"b", "c"}, [2]string{"d", "b"})
	if !g.Reachable("a", "c") {
		t.Fatal("a should reach c")
	}
	if g.Reachable("c", "a") {
		t.Fatal("c should not reach a")
	}
	if !g.Reachable("a", "a") {
		t.Fatal("node should reach itself")
	}
	set := g.ReachableSet("a")
	if len(set) != 3 {
		t.Fatalf("ReachableSet = %v", set)
	}
}

func TestShortestPath(t *testing.T) {
	g := mk([2]string{"a", "b"}, [2]string{"b", "c"}, [2]string{"c", "d"}, [2]string{"a", "d"})
	p := g.ShortestPath("a", "d")
	if len(p) != 2 || p[0] != "a" || p[1] != "d" {
		t.Fatalf("ShortestPath = %v, want [a d]", p)
	}
	if p := g.ShortestPath("d", "a"); p != nil {
		t.Fatalf("expected nil path, got %v", p)
	}
	if p := g.ShortestPath("a", "a"); len(p) != 1 {
		t.Fatalf("self path = %v", p)
	}
}

func TestTransitiveClosureReduction(t *testing.T) {
	g := mk([2]string{"a", "b"}, [2]string{"b", "c"})
	tc := g.TransitiveClosure()
	if !tc.HasEdge("a", "c") {
		t.Fatal("closure missing a->c")
	}
	withRedundant := mk([2]string{"a", "b"}, [2]string{"b", "c"}, [2]string{"a", "c"})
	tr, err := withRedundant.TransitiveReduction()
	if err != nil {
		t.Fatal(err)
	}
	if tr.HasEdge("a", "c") {
		t.Fatal("reduction kept redundant edge a->c")
	}
	if !tr.HasEdge("a", "b") || !tr.HasEdge("b", "c") {
		t.Fatal("reduction dropped necessary edges")
	}
}

func TestWeaklyConnectedComponents(t *testing.T) {
	g := mk([2]string{"a", "b"}, [2]string{"c", "d"})
	g.AddNode("e")
	comps := g.WeaklyConnectedComponents()
	if len(comps) != 3 {
		t.Fatalf("components = %v, want 3", comps)
	}
}

func TestIsChain(t *testing.T) {
	if !RandomChain("c", 3).IsChain() {
		t.Fatal("chain not recognized")
	}
	single := New()
	single.AddNode("x")
	if !single.IsChain() {
		t.Fatal("single node should be a chain")
	}
	if New().IsChain() {
		t.Fatal("empty graph should not be a chain")
	}
	branch := mk([2]string{"a", "b"}, [2]string{"a", "c"})
	if branch.IsChain() {
		t.Fatal("branching graph is not a chain")
	}
	disconnected := mk([2]string{"a", "b"})
	disconnected.AddNode("z")
	if disconnected.IsChain() {
		t.Fatal("disconnected graph is not a chain")
	}
}

func TestCheckHomomorphism(t *testing.T) {
	comm := mk([2]string{"fx", "fs"}, [2]string{"fs", "fk"})
	task := mk([2]string{"t1", "t2"})
	h := Homomorphism{"t1": "fx", "t2": "fs"}
	if err := CheckHomomorphism(task, comm, h); err != nil {
		t.Fatalf("valid homomorphism rejected: %v", err)
	}
	bad := Homomorphism{"t1": "fs", "t2": "fx"}
	if err := CheckHomomorphism(task, comm, bad); err == nil {
		t.Fatal("invalid homomorphism accepted")
	}
	missing := Homomorphism{"t1": "fx"}
	if err := CheckHomomorphism(task, comm, missing); err == nil {
		t.Fatal("partial mapping accepted")
	}
	unknownImage := Homomorphism{"t1": "fx", "t2": "nope"}
	if err := CheckHomomorphism(task, comm, unknownImage); err == nil {
		t.Fatal("unknown image accepted")
	}
}

func TestFindHomomorphism(t *testing.T) {
	comm := mk([2]string{"fx", "fs"}, [2]string{"fy", "fs"}, [2]string{"fs", "fk"})
	task := mk([2]string{"t1", "t2"}, [2]string{"t2", "t3"})
	h := FindHomomorphism(task, comm)
	if h == nil {
		t.Fatal("no homomorphism found for embeddable chain")
	}
	if err := CheckHomomorphism(task, comm, h); err != nil {
		t.Fatalf("found mapping invalid: %v", err)
	}
	// a triangle cannot map into an acyclic graph
	tri := mk([2]string{"x", "y"}, [2]string{"y", "z"}, [2]string{"z", "x"})
	if h := FindHomomorphism(tri, comm); h != nil {
		t.Fatalf("impossible homomorphism returned: %v", h)
	}
}

func TestIdentityInto(t *testing.T) {
	g := mk([2]string{"a", "b"})
	h := IdentityInto(g)
	if err := CheckHomomorphism(g, g, h); err != nil {
		t.Fatal(err)
	}
}

func TestDOTDeterministic(t *testing.T) {
	g := mk([2]string{"b", "a"}, [2]string{"a", "c"})
	d1 := g.DOT(DOTOptions{Name: "T", Rankdir: "LR"})
	d2 := g.DOT(DOTOptions{Name: "T", Rankdir: "LR"})
	if d1 != d2 {
		t.Fatal("DOT output not deterministic")
	}
	for _, want := range []string{"digraph T {", "rankdir=LR;", "a -> c;", "b -> a;"} {
		if !strings.Contains(d1, want) {
			t.Fatalf("DOT output missing %q:\n%s", want, d1)
		}
	}
}

func TestDOTQuoting(t *testing.T) {
	g := New()
	g.AddNode("f-S")
	g.AddNode("0start")
	out := g.DOT(DOTOptions{})
	if !strings.Contains(out, `"f-S"`) || !strings.Contains(out, `"0start"`) {
		t.Fatalf("special names not quoted:\n%s", out)
	}
}

func TestRandomDAGAcyclic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		g := RandomDAG(rng, "n", 8, 0.4)
		if !g.IsAcyclic() {
			t.Fatal("RandomDAG produced a cycle")
		}
	}
}

func TestRandomConnectedDAG(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 30; i++ {
		g := RandomConnectedDAG(rng, "n", 10, 0.1)
		if !g.IsAcyclic() {
			t.Fatal("cycle in connected DAG")
		}
		if len(g.WeaklyConnectedComponents()) != 1 {
			t.Fatal("not weakly connected")
		}
	}
}

func TestRandomSubDAG(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := RandomConnectedDAG(rng, "n", 12, 0.3)
	s := RandomSubDAG(rng, g, 5)
	if s.NumNodes() != 5 {
		t.Fatalf("sub-DAG size = %d, want 5", s.NumNodes())
	}
	if !s.IsAcyclic() {
		t.Fatal("induced subgraph of DAG must be acyclic")
	}
}

// Property: transitive reduction and closure are inverses on the
// reachability relation for random DAGs.
func TestClosureReductionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func(seed int64) bool {
		local := rand.New(rand.NewSource(seed%1000 + 1))
		g := RandomDAG(local, "n", 3+int(rng.Int31n(5)), 0.35)
		tr, err := g.TransitiveReduction()
		if err != nil {
			return false
		}
		return tr.TransitiveClosure().Equal(g.TransitiveClosure())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: every topological sort produced by AllTopoSorts respects
// every edge.
func TestAllTopoSortsProperty(t *testing.T) {
	f := func(seed int64) bool {
		local := rand.New(rand.NewSource(seed%1000 + 1))
		g := RandomDAG(local, "n", 5, 0.4)
		ok := true
		n := 0
		_ = g.AllTopoSorts(func(o []string) bool {
			pos := map[string]int{}
			for i, v := range o {
				pos[v] = i
			}
			for _, e := range g.Edges() {
				if pos[e.From] >= pos[e.To] {
					ok = false
				}
			}
			n++
			return n < 50 && ok
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestStringDeterministic(t *testing.T) {
	g := mk([2]string{"b", "a"}, [2]string{"a", "b"})
	if g.String() != g.Clone().String() {
		t.Fatal("String not deterministic across clones")
	}
	if !strings.Contains(g.String(), "a->b") {
		t.Fatalf("String = %s", g.String())
	}
}

// TestPositionalViews pins the index-based reading of a graph against
// its name-based one: TopoOrder is TopoSort by position, and SuccAt /
// PredAt are Succ / Pred by position, on random DAGs, and a reversed
// edge is reported as a cycle.
func TestPositionalViews(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		g := RandomDAG(rng, "n", 1+rng.Intn(40), rng.Float64())
		want, err := g.TopoSort()
		if err != nil {
			t.Fatal(err)
		}
		order, ok := g.TopoOrder([]int{-1})
		if !ok || len(order) != 1+len(want) || order[0] != -1 {
			t.Fatalf("TopoOrder = %v, %v for %d nodes", order, ok, len(want))
		}
		for k, p := range order[1:] {
			if g.NodeAt(p) != want[k] || g.Index(want[k]) != p {
				t.Fatalf("position %d: TopoOrder has %s, TopoSort %s", k, g.NodeAt(p), want[k])
			}
		}
		for i := range g.NumNodes() {
			for _, c := range []struct {
				pos   []int
				names []string
			}{{g.SuccAt(i), g.Succ(g.NodeAt(i))}, {g.PredAt(i), g.Pred(g.NodeAt(i))}} {
				if len(c.pos) != len(c.names) {
					t.Fatalf("node %s: %v vs %v", g.NodeAt(i), c.pos, c.names)
				}
				for k, p := range c.pos {
					if g.NodeAt(p) != c.names[k] {
						t.Fatalf("node %s: %v vs %v", g.NodeAt(i), c.pos, c.names)
					}
				}
			}
		}
		if edges := g.Edges(); len(edges) > 0 {
			g.AddEdge(edges[0].To, edges[0].From)
			if got, ok := g.TopoOrder(nil); ok || len(got) != 0 || g.IsAcyclic() {
				t.Fatalf("cycle not reported: %v, %v", got, ok)
			}
		}
	}
	if g := New(); g.Index("x") != -1 {
		t.Fatal("Index of a missing node")
	}
}
