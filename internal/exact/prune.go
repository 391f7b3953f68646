package exact

import (
	"encoding/binary"
	"sort"
)

// The three cooperating pruners (DESIGN.md §10). All of them are
// refutation-only: they may skip a subtree only when no schedule the
// sequential baseline would accept lives inside it, so verdicts and
// the lex-first witness are bit-identical to the seed oracle.
//
//  1. Symmetry breaking (orbits.go machinery in internal/core): among
//     interchangeable elements, a symbol may be placed only after its
//     smaller orbit-mate has appeared. The lex-first witness always
//     satisfies this ordering — swapping two interchangeable elements
//     of a violating witness yields a lex-smaller feasible schedule
//     (taking the lex-min rotation in the pure-async case, where
//     feasibility is rotation-invariant), a contradiction.
//
//  2. Dominance memoization (memoTable below): subtrees that were
//     exhausted WITHOUT ever reaching a leaf are recorded under a
//     residual-state signature; an identical residual state is pruned
//     without descent. Only leaf-free refutations are stored because
//     the leaf check depends on the entire prefix (the checker runs
//     full precedence-aware latency analysis), while a prune-driven
//     refutation is fully determined by the signature components.
//
//  3. Demand-bound cuts (boundOK / refuteLength below): per-node
//     lower bounds on forced future demand vs. remaining slots, plus
//     a per-length exact-cover certificate that refutes whole lengths
//     without descending at all.

// memoMinRemaining skips memoization near the leaves: those subtrees
// are cheaper to re-explore than to hash.
const memoMinRemaining = 3

// memoEntries bounds the transposition table of a search (split
// evenly among its workers' tables). At typical signature sizes this
// is a few tens of MB worst case.
const memoEntries = 1 << 18

// memoTable is a bounded set of residual-state signatures whose
// subtrees are known to be empty (leaf-free exhausted). Each search
// worker owns one and probes and stores it without locks: measured
// on two cores, sharing one locked table across workers cost more in
// lock traffic than its cross-worker hits saved. A full table is
// cleared wholesale (the cheap generational eviction — entries are
// pure caches, losing them only costs re-exploration).
//
// A table may additionally carry a seeded set (Seed): signatures
// imported from a previous search of the same memo class. The seeded
// set is immutable once the search starts, so every worker's table
// reads the same one, and it is never evicted — imported refutations
// survive the generational clears of the derived set.
type memoTable struct {
	m      map[string]struct{}
	cap    int
	seeded map[string]struct{} // immutable during search; may be nil
}

// newMemoTable returns an empty table holding a ways-th of
// memoEntries: a search with ways workers gives each one such table.
func newMemoTable(ways int) *memoTable {
	return &memoTable{m: make(map[string]struct{}), cap: memoEntries / max(ways, 1)}
}

// sibling returns an empty table of t's size that shares its seeded
// set: another worker's table in the same search.
func (t *memoTable) sibling() *memoTable {
	return &memoTable{m: make(map[string]struct{}), cap: t.cap, seeded: t.seeded}
}

// absorb adds o's derived signatures to t, past t's bound: it merges
// a finished worker's table for the snapshot.
func (t *memoTable) absorb(o *memoTable) {
	for sig := range o.m {
		t.m[sig] = struct{}{}
	}
}

// probe outcomes. Derived and seeded hits license the identical prune;
// they are distinguished only so Stats can attribute the cut.
const (
	memoMiss = iota
	memoHitDerived
	memoHitSeeded
)

// probe reports whether sig is a known-empty subtree, and whether the
// refutation was derived this search or imported via Seed.
func (t *memoTable) probe(sig []byte) int {
	if t.seeded != nil {
		if _, ok := t.seeded[string(sig)]; ok { // no-alloc map lookup
			return memoHitSeeded
		}
	}
	if _, ok := t.m[string(sig)]; ok { // no-alloc map lookup
		return memoHitDerived
	}
	return memoMiss
}

// store records sig as a known-empty subtree. The presence check uses
// the compiler-elided []byte→string lookup, so re-storing a signature
// already present allocates nothing.
func (t *memoTable) store(sig []byte) {
	if _, ok := t.m[string(sig)]; ok { // no-alloc when present
		return
	}
	if len(t.m) >= t.cap {
		clear(t.m)
	}
	t.m[string(sig)] = struct{}{}
}

// memoEligible reports whether the residual state at pos can be
// summarized by buildSig: the sliding-window history must cover every
// active sliding deadline (so in-subtree window arithmetic never
// reads a slot outside the signature).
func (s *state) memoEligible(pos int) bool {
	return pos >= 1 && pos >= s.slideWin && s.n-pos >= memoMinRemaining
}

// buildSig serializes every piece of search state that the subtree
// below pos can observe: remaining slots, the rotation anchor, the
// anchored-window phase discriminator, the active-spec set, clamped
// residual min-counts, orbit appearance bits, the last max-deadline
// slots (sliding-window content), anchored in-progress window
// partials, and the contiguity trail. Two nodes with equal signatures
// explore isomorphic subtrees (DESIGN.md §10 gives the argument per
// component), so an exact byte match — never a hash alone — licenses
// the memo prune.
func (s *state) buildSig(pos int) []byte {
	b := s.sigbuf[:0]
	b = binary.AppendUvarint(b, uint64(s.n-pos))
	if s.p.breakRotations {
		b = append(b, byte(s.slots[0]+1))
	} else {
		b = append(b, 0)
	}
	// While pos is below the largest anchored period, first-window
	// special cases (the pos+1 < d suppression) depend on pos itself.
	if pos < s.anchorGate {
		b = binary.AppendUvarint(b, uint64(pos+1))
	} else {
		b = binary.AppendUvarint(b, 0)
	}
	b = binary.AppendUvarint(b, s.activeMask)
	for sym := 1; sym < len(s.count); sym++ {
		r := s.minCount[sym] - s.count[sym]
		if r < 0 {
			r = 0
		}
		b = binary.AppendUvarint(b, uint64(r))
	}
	var bits uint64
	for i, sym := range s.p.orbitBits {
		if s.count[sym] > 0 {
			bits |= 1 << uint(i)
		}
	}
	b = binary.AppendUvarint(b, bits)
	for i := pos - s.slideWin; i < pos; i++ {
		b = append(b, byte(s.slots[i]))
	}
	for i := range s.needs {
		rt := &s.needs[i]
		if !rt.active || rt.spec.period == 0 {
			continue
		}
		ph := pos % rt.spec.period
		b = binary.AppendUvarint(b, uint64(ph))
		if ph > 0 && ph < rt.spec.d {
			snap := rt.snap[pos/rt.spec.period]
			for pi := range rt.spec.pairs {
				b = binary.AppendUvarint(b, uint64(rt.cum[pi]-snap[pi]))
			}
		}
	}
	if s.p.contiguous {
		if pos == 0 {
			b = append(b, 0, 0, 0)
		} else {
			prev := s.slots[pos-1]
			run := 0
			i := pos - 1
			for ; i >= 0 && s.slots[i] == prev; i-- {
				run++
			}
			reach0 := byte(0)
			if i < 0 {
				reach0 = 1
			}
			rm := 0
			if w := s.p.weights[prev]; w > 1 {
				rm = run % w
			}
			b = append(b, byte(prev+1), byte(rm), reach0)
		}
	}
	s.sigbuf = b
	return b
}

// boundOK applies the demand-bound cuts after slots[pos] has been
// placed (and pruneOK already passed). Both cuts only aggregate
// window conditions the baseline pruneOK itself enforces at the
// windows' completion positions, so any node they cut has no leaf
// descendant the baseline would keep: if the forced demand of
// not-yet-complete windows exceeds the slots available before their
// completion, every extension fails a completed-window check later.
func (s *state) boundOK(pos int) bool {
	// (a) anchored in-progress windows: remaining demand must fit in
	// the window's remaining slots. Only windows lying fully inside
	// the cycle count (wrapped windows are decided at the leaf).
	for i := range s.needs {
		rt := &s.needs[i]
		if !rt.active || rt.spec.period == 0 {
			continue
		}
		spec := rt.spec
		r := pos % spec.period
		if r >= spec.d {
			continue
		}
		start := pos - r
		if start+spec.d > s.n {
			continue
		}
		snap := rt.snap[pos/spec.period]
		needLeft := 0
		for pi, pr := range spec.pairs {
			if rem := pr.k - (rt.cum[pi] - snap[pi]); rem > 0 {
				needLeft += rem
			}
		}
		if needLeft > spec.d-1-r {
			return false
		}
	}
	// (b) sliding-window demand profile (Hall-style): for each element
	// e with designated sliding spec (d, k), the chain of disjoint
	// windows ending at t0, t0+d, t0+2d, … ≤ n-1 forces m0, k, k, …
	// slots of e among the future slots, cumulatively by the window
	// ends. Summed across elements (slots are exclusive), the demand
	// due within j future slots may not exceed j.
	if !s.p.hasHall {
		return true
	}
	jmax := s.n - 1 - pos
	if jmax <= 0 || len(s.hallDelta) == 0 {
		return true
	}
	delta := s.hallDelta[:jmax+1]
	for i := range delta {
		delta[i] = 0
	}
	any := false
	for sym := 1; sym < len(s.p.syms); sym++ {
		si := s.p.hallSpec[sym]
		if si < 0 {
			continue
		}
		rt := &s.needs[si]
		if !rt.active {
			continue
		}
		spec := rt.spec
		d := spec.d
		k := s.p.hallK[sym]
		var t0, m0 int
		if pos+1 >= d {
			// window (pos+1-d, pos+1]: its placed part is the rolling
			// window minus the slot that slides out.
			t0 = pos + 1
			cnt := rt.win[spec.pairOf[sym]]
			if s.slots[pos+1-d] == sym {
				cnt--
			}
			m0 = k - cnt
		} else {
			// window [0, d-1]: its placed part is the whole prefix.
			t0 = d - 1
			m0 = k - s.count[sym]
		}
		if m0 < 0 {
			m0 = 0
		}
		j := t0 - pos
		if j < 1 {
			j = 1 // t0 == pos is impossible; defensive
		}
		for first := true; j <= jmax; j += d {
			if first {
				delta[j] += m0
				first = false
			} else {
				delta[j] += k
			}
			any = true
		}
	}
	if !any {
		return true
	}
	demand := 0
	for j := 1; j <= jmax; j++ {
		demand += delta[j]
		if demand > j {
			return false
		}
	}
	return true
}

// exactCoverBudget caps the offset search of refuteLength; on
// exhaustion the cut simply declines (no refutation claimed).
const exactCoverBudget = 1 << 14

// refuteLength decides, before any descent, whether cycle length n is
// infeasible by the exact-cover certificate: in a pure-async model of
// unit-weight, unit-demand elements at exactly full density
// (Σ minCount == n) with every governing deadline dividing n, each
// element's occurrences must be exactly evenly spaced — its count is
// pinned to n/d and every cyclic window of length d must contain one
// occurrence, forcing all gaps to equal d — so a feasible schedule is
// an exact cover of Z_n by residue classes mod d_e. Classes r_a mod
// d_a and r_b mod d_b are disjoint iff r_a ≢ r_b (mod gcd(d_a, d_b));
// if no offset assignment is pairwise disjoint, no schedule of length
// n exists. (The cut never fires on a feasible length: a witness's
// occurrence classes ARE such an assignment.)
func (p *problem) refuteLength(n int, minCount []int, totalMin int) bool {
	if !p.breakRotations || totalMin != n || len(p.syms) < 2 {
		return false
	}
	dmin := make([]int, len(p.syms))
	for i := range p.needs {
		spec := &p.needs[i]
		if spec.period != 0 {
			return false // cannot happen with breakRotations; defensive
		}
		for _, pr := range spec.pairs {
			if pr.k != 1 {
				return false
			}
			if dmin[pr.sym] == 0 || spec.d < dmin[pr.sym] {
				dmin[pr.sym] = spec.d
			}
		}
	}
	ds := make([]int, 0, len(p.syms)-1)
	for sym := 1; sym < len(p.syms); sym++ {
		if p.weights[sym] != 1 {
			return false
		}
		if dmin[sym] == 0 || dmin[sym] > n || n%dmin[sym] != 0 {
			return false
		}
		ds = append(ds, dmin[sym])
	}
	sort.Ints(ds)
	// Backtracking offset search, budgeted. rs[i] is the residue of
	// class i; conflicts are checked pairwise mod gcd.
	rs := make([]int, 0, len(ds))
	steps := 0
	var assign func(i int) bool // true: cover exists (or budget hit)
	assign = func(i int) bool {
		if i == len(ds) {
			return true
		}
		for r := 0; r < ds[i]; r++ {
			steps++
			if steps > exactCoverBudget {
				return true // give up: do not claim a refutation
			}
			ok := true
			for j := 0; j < i; j++ {
				g := gcd(ds[i], ds[j])
				if r%g == rs[j]%g {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			rs = append(rs, r)
			if assign(i + 1) {
				return true
			}
			rs = rs[:len(rs)-1]
		}
		return false
	}
	return !assign(0)
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
