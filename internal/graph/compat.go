package graph

import "fmt"

// Homomorphism is a node mapping h from one graph into another such
// that every edge (u,v) of the source maps to an edge (h(u),h(v)) of
// the target. This is exactly the paper's compatibility condition
// between a task graph and a communication graph.
type Homomorphism map[string]string

// CheckHomomorphism verifies that h is a homomorphism from src into
// dst: every source node must be mapped to an existing target node
// and every source edge must map to a target edge. It reads both
// graphs in place and allocates only for the error it returns.
func CheckHomomorphism(src, dst *Digraph, h Homomorphism) error {
	for _, n := range src.nodes {
		img, ok := h[n]
		if !ok {
			return fmt.Errorf("graph: node %q has no image under h", n)
		}
		if !dst.HasNode(img) {
			return fmt.Errorf("graph: image %q of node %q is not a node of the target", img, n)
		}
	}
	for u, a := range src.adj {
		for _, v := range a.succ {
			from, to := src.nodes[u], src.nodes[v]
			fu, fv := h[from], h[to]
			if !dst.HasEdge(fu, fv) {
				return fmt.Errorf("graph: edge %s->%s maps to %s->%s which is not an edge of the target",
					from, to, fu, fv)
			}
		}
	}
	return nil
}

// IdentityInto returns the identity mapping of src's nodes, suitable
// when the task graph reuses the communication graph's node names.
func IdentityInto(src *Digraph) Homomorphism {
	h := make(Homomorphism, src.NumNodes())
	for _, n := range src.Nodes() {
		h[n] = n
	}
	return h
}

// FindHomomorphism searches for some homomorphism from src into dst
// by backtracking. It returns nil if none exists. Intended for small
// graphs (task graphs); worst case is |dst|^|src|.
func FindHomomorphism(src, dst *Digraph) Homomorphism {
	srcNodes := src.Nodes()
	dstNodes := dst.Nodes()
	h := make(Homomorphism, len(srcNodes))
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(srcNodes) {
			return true
		}
		u := srcNodes[i]
		for _, cand := range dstNodes {
			ok := true
			// check edges between u and already-assigned nodes
			for _, p := range src.Pred(u) {
				if img, done := h[p]; done && !dst.HasEdge(img, cand) {
					ok = false
					break
				}
			}
			if ok {
				for _, s := range src.Succ(u) {
					if img, done := h[s]; done && !dst.HasEdge(cand, img) {
						ok = false
						break
					}
				}
			}
			if ok && src.HasEdge(u, u) && !dst.HasEdge(cand, cand) {
				ok = false
			}
			if !ok {
				continue
			}
			h[u] = cand
			if rec(i + 1) {
				return true
			}
			delete(h, u)
		}
		return false
	}
	if rec(0) {
		return h
	}
	return nil
}
