package exact

import (
	"sort"

	"rtm/internal/analysis"
	"rtm/internal/core"
	"rtm/internal/sched"
)

// problem is the immutable, index-based description of one search: the
// symbol alphabet (0 = idle, 1.. = the used elements in ascending
// order, so integer order equals the lexicographic order the symmetry
// break and the determinism guarantee are stated in), the per-symbol
// weights, and the deadline-window demands, all hoisted out of the
// per-candidate hot path. It is shared read-only between workers.
type problem struct {
	m       *core.Model
	syms    []string // syms[0] == sched.Idle; rest sorted ascending
	weights []int    // per symbol id
	needs   []needSpec
	// breakRotations: feasibility is rotation-invariant only when
	// every constraint is asynchronous (periodic invocations are
	// phase-locked to t = 0).
	breakRotations bool
	contiguous     bool
	maxCand        int

	// Pruner configuration (see prune.go and DESIGN.md §10).
	bounds bool // demand-bound cuts enabled
	// orbitPrev[sym] is the next-smaller symbol in sym's orbit of
	// interchangeable elements, or -1. A symbol may be placed only
	// after its orbit predecessor has appeared.
	orbitPrev []int
	// orbitBits lists the symbols whose appearance the memo signature
	// must record (every symbol that is some other symbol's
	// orbitPrev), in ascending order.
	orbitBits []int
	// hallSpec[sym] designates the densest sliding spec covering sym
	// (index into needs, or -1); hallK is its per-window demand. The
	// demand profile uses one spec per element so demands stay
	// additive.
	hallSpec []int
	hallK    []int
	hasHall  bool
	// memoOK gates memoization on representability: every signature
	// component must fit its encoding.
	memoOK bool
}

// needPair is one element's slot demand inside a deadline window.
type needPair struct {
	sym int // symbol id
	k   int // required slots of sym per window
}

// needSpec holds the per-element slot demand a single deadline window
// must satisfy for one constraint (a necessary condition: element
// counts inside every window of length d must reach the task graph's
// per-element weight demand). Asynchronous constraints have sliding
// windows (period 0 here); periodic constraints with d ≤ p have
// disjoint windows anchored at multiples of p.
type needSpec struct {
	d      int
	period int // 0 = sliding (asynchronous)
	pairs  []needPair
	pairOf []int // symbol id -> index into pairs, or -1
}

func newProblem(m *core.Model, opt Options) *problem {
	p := &problem{
		m:              m,
		syms:           append([]string{sched.Idle}, m.ElementsUsed()...),
		breakRotations: len(m.Periodic()) == 0,
		contiguous:     opt.RequireContiguous,
		maxCand:        opt.MaxCandidates,
	}
	symID := make(map[string]int, len(p.syms))
	p.weights = make([]int, len(p.syms))
	for i, s := range p.syms {
		symID[s] = i
		p.weights[i] = m.Comm.WeightOf(s)
	}
	// The window-demand extraction is shared with the analytic tier
	// (analysis.WindowSpecs) — the search applies the same windows
	// incrementally that DemandRefute sums in closed form. Here the
	// element names are re-indexed onto the symbol alphabet.
	for _, ws := range analysis.WindowSpecs(m) {
		spec := needSpec{d: ws.D, period: ws.Period}
		spec.pairOf = make([]int, len(p.syms))
		for i := range spec.pairOf {
			spec.pairOf[i] = -1
		}
		for _, nd := range ws.Need {
			id, ok := symID[nd.Elem]
			if !ok {
				continue
			}
			spec.pairOf[id] = len(spec.pairs)
			spec.pairs = append(spec.pairs, needPair{sym: id, k: nd.Slots})
		}
		p.needs = append(p.needs, spec)
	}

	p.bounds = !opt.DisableBounds
	if !opt.DisableMemo {
		// every signature component must fit its encoding: one byte
		// per symbol id, one bit per spec / orbit symbol
		p.memoOK = len(p.syms) <= 254 && len(p.needs) <= 64
	}
	if !opt.DisableSymmetry {
		p.initOrbits(m, symID)
	}
	p.initHall()
	return p
}

// initOrbits maps core.Orbits onto symbol ids: within each orbit of
// interchangeable elements, orbitPrev chains the symbols in ascending
// order.
func (p *problem) initOrbits(m *core.Model, symID map[string]int) {
	orbits := m.Orbits()
	if len(orbits) == 0 {
		return
	}
	p.orbitPrev = make([]int, len(p.syms))
	for i := range p.orbitPrev {
		p.orbitPrev[i] = -1
	}
	seen := make(map[int]bool)
	for _, class := range orbits {
		prev := -1
		for _, e := range class {
			id, ok := symID[e]
			if !ok {
				continue
			}
			// class is sorted and syms are sorted, so ids ascend
			p.orbitPrev[id] = prev
			if prev >= 0 && !seen[prev] {
				seen[prev] = true
				p.orbitBits = append(p.orbitBits, prev)
			}
			prev = id
		}
	}
	sort.Ints(p.orbitBits)
	if len(p.orbitBits) > 64 {
		p.memoOK = false // appearance bits no longer fit one uvarint
	}
}

// initHall designates, per symbol, the sliding spec with the largest
// demand density k/d; the demand profile of boundOK uses exactly one
// spec per element so window demands stay additive across elements.
func (p *problem) initHall() {
	p.hallSpec = make([]int, len(p.syms))
	p.hallK = make([]int, len(p.syms))
	for i := range p.hallSpec {
		p.hallSpec[i] = -1
	}
	for i := range p.needs {
		spec := &p.needs[i]
		if spec.period != 0 {
			continue
		}
		for _, pr := range spec.pairs {
			cur := p.hallSpec[pr.sym]
			if cur < 0 || pr.k*p.needs[cur].d > p.hallK[pr.sym]*spec.d {
				p.hallSpec[pr.sym] = i
				p.hallK[pr.sym] = pr.k
				p.hasHall = true
			}
		}
	}
}

// minCounts computes, per symbol, the capacity lower bound at cycle
// length n. An async constraint with deadline d forces
// count_e · d ≥ n · need_e over the cycle (each of the n cyclic
// windows of length d needs need_e slots of e, and each slot covers d
// windows). A periodic constraint with d ≤ p has disjoint invocation
// windows needing distinct slots, so over the alignment lcm(n, p) it
// forces count_e ≥ need_e · n/p. Returns the bounds and their total.
func (p *problem) minCounts(n int) ([]int, int) {
	minCount := make([]int, len(p.syms))
	for _, spec := range p.needs {
		div := spec.d
		if spec.period != 0 {
			div = spec.period
		}
		for _, pr := range spec.pairs {
			if lb := ceilDiv(n*pr.k, div); lb > minCount[pr.sym] {
				minCount[pr.sym] = lb
			}
		}
	}
	total := 0
	for _, v := range minCount {
		total += v
	}
	return minCount, total
}

// state is the mutable per-goroutine search state at one cycle length:
// the partial assignment plus every counter the prune needs, all
// updated in O(pairs) on place/unplace instead of re-scanned per slot.
type state struct {
	p        *problem
	n        int
	slots    []int
	count    []int // per symbol
	minCount []int // per symbol
	deficit  int   // Σ_e max(0, minCount[e] − count[e])
	needs    []needRT
	ck       *sched.Checker
	alpha    []int // symbol id -> ck's element index (sched.Checker.Alphabet)

	// Pruner state (prune.go). slideWin is the largest active sliding
	// deadline: the memo signature carries the last slideWin slots and
	// probing is gated on pos ≥ slideWin. anchorGate is the largest
	// active anchored period: below it, first-window special cases
	// make the signature carry pos itself. activeMask is the bitmask
	// of active needs (length-dependent, so cross-length signature
	// collisions stay sound).
	slideWin   int
	anchorGate int
	activeMask uint64
	sigbuf     []byte
	sigpool    *[]byte // pooled backing of sigbuf (memo.go)
	hallDelta  []int
}

// needRT carries the rolling window counters for one needSpec.
// Sliding (async) windows keep the pair counts of the window ending
// at the last placed slot. Anchored (periodic) windows keep
// cumulative in-window pair counts plus a snapshot taken at each
// window start, so the completed window's counts are cum − snap.
type needRT struct {
	spec   *needSpec
	active bool // d ≤ n; wrapped windows are checked at the leaf
	win    []int
	wrap   []int // leaf scratch: win slid across the wrapped windows
	cum    []int
	snap   [][]int
}

func newState(p *problem, n int, minCount []int, totalMin int, ck *sched.Checker) *state {
	s := &state{
		p:     p,
		count: make([]int, len(p.syms)),
		needs: make([]needRT, len(p.needs)),
		ck:    ck,
	}
	if ck != nil {
		s.alpha = ck.Alphabet(p.syms)
	}
	for i := range p.needs {
		spec := &p.needs[i]
		if spec.period == 0 {
			s.needs[i] = needRT{spec: spec, win: make([]int, len(spec.pairs)), wrap: make([]int, len(spec.pairs))}
		} else {
			s.needs[i] = needRT{spec: spec, cum: make([]int, len(spec.pairs))}
		}
	}
	if p.memoOK {
		s.acquireSigbuf()
	}
	s.reset(n, minCount, totalMin)
	return s
}

// reset re-targets s at cycle length n with nothing placed, reusing
// its buffers: a parallel worker keeps one state for the whole search.
func (s *state) reset(n int, minCount []int, totalMin int) {
	p := s.p
	s.n = n
	s.slots = resize(s.slots, n)
	clear(s.count)
	s.minCount = minCount
	s.deficit = totalMin
	s.slideWin, s.anchorGate, s.activeMask = 0, 0, 0
	for i := range s.needs {
		rt := &s.needs[i]
		spec := rt.spec
		rt.active = spec.d <= n
		if !rt.active {
			continue
		}
		s.activeMask |= 1 << uint(i&63)
		if spec.period == 0 {
			clear(rt.win)
			s.slideWin = max(s.slideWin, spec.d)
			continue
		}
		clear(rt.cum)
		windows := (n-1)/spec.period + 1
		for len(rt.snap) < windows {
			rt.snap = append(rt.snap, make([]int, len(spec.pairs)))
		}
		rt.snap = rt.snap[:windows]
		s.anchorGate = max(s.anchorGate, spec.period)
	}
	if p.bounds && p.hasHall {
		s.hallDelta = resize(s.hallDelta, n+1)
	}
}

// resize returns buf with length n and every element zero, reusing
// its backing array when it is large enough.
func resize(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// place assigns sym to slot pos and updates every counter in O(pairs).
func (s *state) place(pos, sym int) {
	s.slots[pos] = sym
	if sym != 0 {
		s.count[sym]++
		if s.count[sym] <= s.minCount[sym] {
			s.deficit--
		}
	}
	for i := range s.needs {
		rt := &s.needs[i]
		if !rt.active {
			continue
		}
		spec := rt.spec
		if spec.period == 0 {
			if pi := spec.pairOf[sym]; pi >= 0 {
				rt.win[pi]++
			}
			if pos >= spec.d {
				if pj := spec.pairOf[s.slots[pos-spec.d]]; pj >= 0 {
					rt.win[pj]--
				}
			}
		} else {
			r := pos % spec.period
			if r == 0 {
				copy(rt.snap[pos/spec.period], rt.cum)
			}
			if r < spec.d {
				if pi := spec.pairOf[sym]; pi >= 0 {
					rt.cum[pi]++
				}
			}
		}
	}
}

// unplace reverses place. Slots above pos must already be unplaced.
func (s *state) unplace(pos, sym int) {
	if sym != 0 {
		if s.count[sym] <= s.minCount[sym] {
			s.deficit++
		}
		s.count[sym]--
	}
	for i := range s.needs {
		rt := &s.needs[i]
		if !rt.active {
			continue
		}
		spec := rt.spec
		if spec.period == 0 {
			if pos >= spec.d {
				if pj := spec.pairOf[s.slots[pos-spec.d]]; pj >= 0 {
					rt.win[pj]++
				}
			}
			if pi := spec.pairOf[sym]; pi >= 0 {
				rt.win[pi]--
			}
		} else if pos%spec.period < spec.d {
			// the window-start snapshot needs no undo: it is rewritten
			// whenever the slot is re-placed
			if pi := spec.pairOf[sym]; pi >= 0 {
				rt.cum[pi]--
			}
		}
	}
}

// pruneOK applies the incremental necessary conditions after
// slots[pos] has been placed: remaining capacity must cover the count
// deficit, and every fully-determined deadline window inside the
// prefix must carry enough capacity. For asynchronous constraints
// every window of length d ending at pos+1 applies; for periodic
// constraints only the anchored windows [jp, jp+d) do.
func (s *state) pruneOK(pos int) bool {
	if s.deficit > s.n-pos-1 {
		return false
	}
	for i := range s.needs {
		rt := &s.needs[i]
		if !rt.active {
			continue
		}
		spec := rt.spec
		if pos+1 < spec.d {
			continue
		}
		if spec.period == 0 {
			for pi, pr := range spec.pairs {
				if rt.win[pi] < pr.k {
					return false
				}
			}
		} else {
			if (pos+1-spec.d)%spec.period != 0 {
				continue
			}
			snap := rt.snap[(pos+1-spec.d)/spec.period]
			for pi, pr := range spec.pairs {
				if rt.cum[pi]-snap[pi] < pr.k {
					return false
				}
			}
		}
	}
	return true
}

// contigPrefixOK prunes prefixes that already break contiguity:
// placing a different symbol at pos interrupts the run ending at
// pos−1, which is only legal when that run is a whole number of
// executions. A run touching slot 0 is exempt (it may be the wrapped
// tail of the cycle's final execution; the leaf check decides).
func (s *state) contigPrefixOK(pos int) bool {
	if pos == 0 {
		return true
	}
	prev := s.slots[pos-1]
	if prev == s.slots[pos] || prev == 0 {
		return true
	}
	w := s.p.weights[prev]
	if w <= 1 {
		return true
	}
	run := 0
	i := pos - 1
	for ; i >= 0 && s.slots[i] == prev; i-- {
		run++
	}
	if i < 0 {
		return true // run reaches slot 0: may wrap
	}
	return run%w == 0
}

// wrapOK checks the sliding deadline windows that wrap past the
// cycle end, which pruneOK never sees: the windows starting at
// n−d+1 … n−1. Each is the window before it slid by one slot, so the
// rolling counters of the last in-prefix window [n−d, n) are copied
// and slid in O(d·pairs). A window short of demand proves the
// candidate infeasible, so this only rejects candidates the Checker
// would reject too.
func (s *state) wrapOK() bool {
	for i := range s.needs {
		rt := &s.needs[i]
		// at d = n every wrapped window holds the whole cycle, which
		// pruneOK already checked as [0, n)
		if !rt.active || rt.spec.period != 0 || rt.spec.d == s.n {
			continue
		}
		spec := rt.spec
		copy(rt.wrap, rt.win)
		for out := s.n - spec.d; out < s.n-1; out++ {
			if pi := spec.pairOf[s.slots[out]]; pi >= 0 {
				rt.wrap[pi]--
			}
			if pi := spec.pairOf[s.slots[out+spec.d-s.n]]; pi >= 0 {
				rt.wrap[pi]++
			}
			for pi, pr := range spec.pairs {
				if rt.wrap[pi] < pr.k {
					return false
				}
			}
		}
	}
	return true
}

// leafCheck evaluates the complete assignment: the wrapped-window
// filter first, then the Checker on the slot ids themselves. Only the
// winning candidate is spelled out as a schedule of element names.
func (s *state) leafCheck() *sched.Schedule {
	if !s.wrapOK() {
		return nil
	}
	if s.p.contiguous && !s.ck.ContiguousIDs(s.slots, s.alpha) {
		return nil
	}
	if !s.ck.FeasibleIDs(s.slots, s.alpha) {
		return nil
	}
	return s.names()
}

// names spells the current assignment out as a schedule of element
// names, owning its own memory.
func (s *state) names() *sched.Schedule {
	names := make([]string, s.n)
	for i, id := range s.slots {
		names[i] = s.p.syms[id]
	}
	return &sched.Schedule{Slots: names}
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
