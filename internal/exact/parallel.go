package exact

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"rtm/internal/sched"
)

// Parallel search (Workers > 1). One pool serves the whole search:
//
//   - The search runs on the calling goroutine in exactly the
//     sequential visiting order. Helpers join only once the caller has
//     visited joinAfterNodes nodes, so a small search never pays for
//     fan-out. At most Workers−1 helpers start per search; each builds
//     its Checker and state once and resets them at every length.
//   - An idle worker posts a request. The first busy worker to see it
//     hands over the lex-latest half of the untried sibling range at
//     its shallowest open level, and keeps the lex-earlier half. The
//     unit of work is therefore a slot-path prefix plus a sibling
//     range below it: a contiguous interval of the lexicographic
//     (= depth-first) order, disjoint from every other worker's.
//   - Determinism: the sequential search returns the lex-first
//     feasible schedule. A hit cancels only work whose paths are
//     lex-later than it, and the lex-least hit wins, so the winner is
//     exactly the sequential result. Budget aborts (MaxCandidates)
//     stop everything and are the one documented source of
//     nondeterminism: a hit found before the abort is still returned.
//   - Every node is counted by exactly one worker, so an exhaustive
//     search reports the sequential NodesExplored and Candidates. A
//     leaf draws candidates from the shared budget in batches of
//     budgetBatch, so leaves write no shared cache line.
//
// The pruners run in every worker. Each worker probes and stores its
// own memo table, and all of them read the seeded set; the tables are
// merged when the search ends if a snapshot was asked for. Under
// Workers > 1 the pruner Stats are lower bounds: memo hits depend on
// which worker explored what, and a worker that handed part of a
// subtree away never memoizes that subtree.

// joinAfterNodes is how many nodes the caller visits before helpers
// join. At the serving budget, 95% of the decided searches of the
// seed-1 layered corpus (BenchmarkExactCorpus's "decided" group in
// internal/service) visit fewer than about 700 nodes, at roughly
// 0.2 µs per node: a search of under about 100 µs finishes before any
// helper starts. Before the join the caller does not poll its context
// (the cancellation hook starts with the helpers), so the join must
// come no later than the sequential search's first poll, at node 1024.
const joinAfterNodes = 512

// stealMinRemaining keeps a worker from handing over a sibling range
// with fewer than this many slots left below it: so near the leaves,
// the range is done sooner than it is handed over. On 2 vCPUs the
// budget-exhausting classes of the layered corpus ran at 0.57 of the
// sequential time with it and at 0.60 without (4 alternating runs).
const stealMinRemaining = 4

// idleSpin is how long an idle worker polls for work before it parks.
const idleSpin = 200 * time.Microsecond

// budgetBatch is how many candidates a worker draws from the shared
// budget at a time. A budget abort may therefore leave up to
// (Workers−1)·budgetBatch drawn candidates unchecked.
const budgetBatch = 16

// testEager, set only by tests, makes helpers join at the first node,
// waits for them to ask for work, and hands over work at every chance,
// so that small models exercise the splitting.
var testEager bool

// testHelpers, set only by tests, is called when a search ends with
// the number of helpers it started.
var testHelpers func(int)

// pruneTally accumulates one worker's pruner cuts; merged into Stats
// when the search ends.
type pruneTally struct {
	sym, memo, seeded, bound int
}

// task is a unit of stolen work: the slots of path[:len(path)-1] are
// placed, and symbols path[len(path)-1] ≤ sym < hi are to be tried at
// slot len(path)-1.
type task struct {
	path []int
	hi   int
}

// pool is the shared state of one parallel search.
type pool struct {
	_ [64]byte
	// signal and hungry are read at every node once helpers run;
	// they stay off the cache lines the counters below are written on.
	signal  atomic.Uint32 // bumped on every new best hit and on stop
	hungry  atomic.Int32  // idle workers minus queued tasks
	stopped atomic.Bool   // budget exhausted or context done
	_       [64]byte
	drawn   atomic.Int64 // candidates drawn from the budget
	_       [64]byte
	wake    atomic.Uint32 // bumped when a task is queued, a length ends or the pool closes
	_       [64]byte

	ctx     context.Context
	p       *problem
	mt      *memoTable // the caller's table, which the snapshot reads
	merge   bool       // merge the helpers' tables into mt for the snapshot
	workers int
	joinAt  int
	minSize int // stealMinRemaining, or 0 under testEager
	caller  *worker
	helpers []*worker
	wg      sync.WaitGroup
	unhook  func() bool // removes the cancellation hook

	mu   sync.Mutex
	cond sync.Cond
	// the current length, written by the caller between lengths
	n        int
	minCount []int
	totalMin int
	// guarded by mu
	tasks       []task
	waiting     int // idle workers in take
	outstanding int // tasks of this length not yet finished
	closed      bool
	stopErr     error
	best        []int // slots of the lex-least hit
	bestSched   *sched.Schedule
}

// worker is one goroutine's search: its state, Checker and counters.
type worker struct {
	ps    *pool
	s     *state
	ck    *sched.Checker
	hi    []int      // per slot: the exclusive end of this worker's sibling range
	gave  []bool     // per slot: part of the range was handed over
	base  int        // slot of the current task's range
	mt    *memoTable // this worker's table; nil when memoization is off
	seen  uint32     // the last signal observed
	allow int        // drawn candidates not yet used

	pollAt int // node count at which to poll next
	nodes  int
	cands  int
	tally  pruneTally
	_      [64]byte // keeps the counters off the next worker's cache lines
}

func newPool(ctx context.Context, p *problem, workers int, ck *sched.Checker, mt *memoTable, maxLen int, snapshot bool) *pool {
	ps := &pool{
		ctx:     ctx,
		p:       p,
		mt:      mt,
		workers: workers,
		merge:   snapshot && mt != nil,
		joinAt:  joinAfterNodes,
		minSize: stealMinRemaining,
	}
	if testEager {
		ps.joinAt, ps.minSize = 1, 0
	}
	ps.cond.L = &ps.mu
	ps.caller = ps.newWorker(ck, maxLen)
	ps.caller.mt = mt
	ps.caller.pollAt = ps.joinAt
	return ps
}

func (ps *pool) newWorker(ck *sched.Checker, maxLen int) *worker {
	return &worker{ps: ps, ck: ck, hi: make([]int, maxLen), gave: make([]bool, maxLen)}
}

// searchLength explores cycle length n with the pool; the caller's
// goroutine runs the root and then helps until every task is done.
func (ps *pool) searchLength(n int, st *Stats) (*sched.Schedule, error) {
	p := ps.p
	minCount, totalMin := p.minCounts(n)
	if totalMin > n {
		if p.bounds {
			st.PrunedByBound++
		}
		return nil, nil // capacity bound already unsatisfiable at this length
	}
	if p.bounds && p.refuteLength(n, minCount, totalMin) {
		st.PrunedByBound++
		return nil, nil // exact-cover certificate: no descent needed
	}
	ps.mu.Lock()
	ps.n, ps.minCount, ps.totalMin = n, minCount, totalMin
	ps.outstanding = 1
	ps.mu.Unlock()

	w := ps.caller
	w.target()
	w.base = 0
	w.node(0)
	ps.finish()
	for {
		t, ok := ps.take(true)
		if !ok {
			break
		}
		w.run(t)
		ps.finish()
	}

	ps.mu.Lock()
	defer ps.mu.Unlock()
	switch {
	case ps.stopErr != nil && ps.stopErr != ErrBudget:
		// a canceled search may have stopped before the lex-earlier
		// work finished, so a hit is unreliable: report only that
		return nil, ps.stopErr
	case ps.bestSched != nil:
		return ps.bestSched, nil
	}
	return nil, ps.stopErr
}

// join starts the helpers and the search's one cancellation hook.
func (ps *pool) join() {
	ps.unhook = context.AfterFunc(ps.ctx, func() { ps.stop(ps.ctx.Err()) })
	ps.helpers = make([]*worker, ps.workers-1)
	ps.wg.Add(len(ps.helpers))
	for i := range ps.helpers {
		w := ps.newWorker(nil, len(ps.caller.hi))
		if ps.mt != nil {
			w.mt = ps.mt.sibling()
		}
		ps.helpers[i] = w
		go w.help()
	}
	if testEager {
		// let every helper post its request before the caller moves on
		for ps.hungry.Load() < int32(len(ps.helpers)) {
			runtime.Gosched()
		}
	}
}

// close stops the helpers, waits for them and merges every worker's
// counters into st.
func (ps *pool) close(st *Stats) {
	if ps.helpers != nil {
		ps.unhook()
		ps.mu.Lock()
		ps.closed = true
		ps.wake.Add(1)
		ps.cond.Broadcast()
		ps.mu.Unlock()
		ps.wg.Wait()
	}
	if testHelpers != nil {
		testHelpers(len(ps.helpers))
	}
	for _, w := range append([]*worker{ps.caller}, ps.helpers...) {
		st.NodesExplored += w.nodes
		st.Candidates += w.cands
		st.PrunedBySymmetry += w.tally.sym
		st.PrunedByMemo += w.tally.memo
		st.PrunedBySeededMemo += w.tally.seeded
		st.PrunedByBound += w.tally.bound
		if w.s != nil {
			w.s.releaseSigbuf()
		}
		if ps.merge && w != ps.caller {
			ps.mt.absorb(w.mt)
		}
	}
}

// stop ends the search: err is ErrBudget or the context's error.
func (ps *pool) stop(err error) {
	ps.mu.Lock()
	if ps.stopErr == nil {
		ps.stopErr = err
	}
	ps.mu.Unlock()
	ps.stopped.Store(true)
	ps.signal.Add(1)
}

// take blocks until a task is queued and returns it. It returns false
// when the search closes, or, for the caller, when every task of the
// length is done. An idle worker counts as hungry. It spins for up to
// idleSpin before it parks: waking a parked goroutine costs about
// 100 µs on a 2-vCPU virtual machine, longer than many handed-over
// ranges take, while the next request or length usually comes within
// microseconds.
func (ps *pool) take(caller bool) (task, bool) {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	idle, parked := false, false
	defer func() {
		if idle {
			ps.waiting--
			ps.hungry.Store(int32(ps.waiting - len(ps.tasks)))
		}
	}()
	for {
		if len(ps.tasks) > 0 {
			t := ps.tasks[0]
			ps.tasks = ps.tasks[1:]
			ps.hungry.Store(int32(ps.waiting - len(ps.tasks)))
			return t, true
		}
		if ps.closed || caller && ps.outstanding == 0 {
			return task{}, false
		}
		if !idle {
			idle = true
			ps.waiting++
			ps.hungry.Store(int32(ps.waiting - len(ps.tasks)))
		}
		if parked {
			ps.cond.Wait()
			continue
		}
		// spin until something happens; park only after idleSpin of
		// nothing
		seen := ps.wake.Load()
		ps.mu.Unlock()
		end := time.Now().Add(idleSpin)
		for ps.wake.Load() == seen && !parked {
			runtime.Gosched()
			parked = time.Now().After(end)
		}
		ps.mu.Lock()
	}
}

// finish marks one task of the length done.
func (ps *pool) finish() {
	ps.mu.Lock()
	ps.outstanding--
	if ps.outstanding == 0 {
		ps.wake.Add(1)
		ps.cond.Broadcast()
	}
	ps.mu.Unlock()
}

// offer records a hit at slots if it is lex-less than the best so far.
func (ps *pool) offer(slots []int, sc *sched.Schedule) {
	ps.mu.Lock()
	if ps.best == nil || slices.Compare(slots, ps.best) < 0 {
		ps.best = slices.Clone(slots)
		ps.bestSched = sc
		ps.signal.Add(1)
	}
	ps.mu.Unlock()
}

// beaten reports whether the best hit is lex-less than every path
// extending path: then no work below path can win.
func (ps *pool) beaten(path []int) bool {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return ps.best != nil && slices.Compare(ps.best[:len(path)], path) < 0
}

// help is a helper's loop: take a task, run it, until the search ends.
func (w *worker) help() {
	defer w.ps.wg.Done()
	ck, err := sched.NewChecker(w.ps.p.m)
	if err != nil {
		return // cannot happen: the caller's Checker built from the same model
	}
	w.ck = ck
	for {
		t, ok := w.ps.take(false)
		if !ok {
			return
		}
		w.run(t)
		w.ps.finish()
	}
}

// target resets the worker's state to the pool's current length.
func (w *worker) target() {
	ps := w.ps
	if w.s == nil {
		w.s = newState(ps.p, ps.n, ps.minCount, ps.totalMin, w.ck)
	} else if w.s.n != ps.n {
		w.s.reset(ps.n, ps.minCount, ps.totalMin)
	}
}

// run explores one stolen task unless a stop or a lex-earlier hit
// already made it moot.
func (w *worker) run(t task) {
	ps := w.ps
	w.seen = ps.signal.Load()
	if ps.stopped.Load() || ps.beaten(t.path) {
		return
	}
	w.target()
	at := len(t.path) - 1
	for i, sym := range t.path[:at] {
		w.s.place(i, sym)
	}
	w.base = at
	w.pollAt = w.nodes + 1
	w.children(at, t.path[at], t.hi)
	for i := at - 1; i >= 0; i-- {
		w.s.unplace(i, t.path[i])
	}
}

// node visits the node whose slots below pos are placed, exactly as
// searchLength's rec does. It returns (cont, leafFree): cont=false
// aborts the task; leafFree licenses memoizing the node as empty.
func (w *worker) node(pos int) (bool, bool) {
	w.nodes++
	if w.nodes >= w.pollAt && !w.poll(pos) {
		return false, false
	}
	s, ps := w.s, w.ps
	if pos == s.n {
		return w.leaf(), false
	}
	mt := w.mt
	memoable := mt != nil && s.memoEligible(pos)
	if memoable {
		switch mt.probe(s.buildSig(pos)) {
		case memoHitDerived:
			w.tally.memo++
			return true, true
		case memoHitSeeded:
			w.tally.seeded++
			return true, true
		}
	}
	cont, leafFree := w.children(pos, 0, len(ps.p.syms))
	if leafFree && memoable {
		mt.store(s.buildSig(pos))
	}
	return cont, leafFree
}

// children tries the symbols lo ≤ sym < hi at slot pos. The end of
// the range shrinks when part of it is handed to another worker.
func (w *worker) children(pos, lo, hi int) (bool, bool) {
	s, p := w.s, w.ps.p
	w.hi[pos] = hi
	leafFree := true
	for sym := lo; sym < w.hi[pos]; sym++ {
		if p.breakRotations && pos > 0 && sym < s.slots[0] {
			continue
		}
		if p.orbitPrev != nil {
			if op := p.orbitPrev[sym]; op >= 0 && s.count[op] == 0 {
				w.tally.sym++
				continue
			}
		}
		s.place(pos, sym)
		ok := s.pruneOK(pos) && (!p.contiguous || s.contigPrefixOK(pos))
		if ok && p.bounds && !s.boundOK(pos) {
			w.tally.bound++
			ok = false
		}
		cont := true
		if ok {
			var lf bool
			cont, lf = w.node(pos + 1)
			leafFree = leafFree && lf
		}
		s.unplace(pos, sym)
		if !cont {
			w.gave[pos] = false
			return false, false
		}
	}
	s.slots[pos] = 0
	if w.gave[pos] {
		// part of this node's subtree was searched elsewhere
		w.gave[pos] = false
		leafFree = false
	}
	return true, leafFree
}

// leaf checks one complete candidate against the budget and the
// Checker. It returns false when the task must end: on a hit (the
// rest of the task is lex-later) or when the budget runs out.
func (w *worker) leaf() bool {
	ps := w.ps
	w.cands++
	if limit := int64(ps.p.maxCand); limit > 0 {
		if w.allow == 0 {
			end := ps.drawn.Add(budgetBatch)
			if start := end - budgetBatch; start < limit {
				w.allow = int(min(budgetBatch, limit-start))
			} else {
				ps.stop(ErrBudget)
				return false
			}
		}
		w.allow--
	}
	if sc := w.s.leafCheck(); sc != nil {
		ps.offer(w.s.slots, sc)
		return false
	}
	return true
}

// poll runs when the node count reaches pollAt. Before the join only
// the caller searches, and it polls once, to start the helpers; after
// it every worker polls at every node. It returns false when the task
// must end.
func (w *worker) poll(pos int) bool {
	ps := w.ps
	w.pollAt = w.nodes + 1
	if ps.helpers == nil {
		ps.join()
	}
	if g := ps.signal.Load(); g != w.seen {
		w.seen = g
		if ps.stopped.Load() || ps.beaten(w.s.slots[:pos]) {
			return false
		}
	}
	if ps.hungry.Load() > 0 {
		w.share(pos)
	}
	return true
}

// share hands the lex-latest half of the untried siblings at the
// shallowest open level to a hungry worker. pos is the depth of the
// node being visited, so slots below it hold the current path.
func (w *worker) share(pos int) {
	s, ps := w.s, w.ps
	at := -1
	for l := w.base; l < pos && s.n-l >= ps.minSize; l++ {
		if s.slots[l]+1 < w.hi[l] {
			at = l
			break
		}
	}
	if at < 0 {
		return
	}
	ps.mu.Lock()
	if ps.waiting <= len(ps.tasks) {
		ps.mu.Unlock()
		return // another worker served the request
	}
	untried := w.hi[at] - s.slots[at] - 1
	lo := w.hi[at] - (untried+1)/2
	path := append(slices.Clone(s.slots[:at]), lo)
	ps.tasks = append(ps.tasks, task{path: path, hi: w.hi[at]})
	ps.outstanding++
	ps.hungry.Store(int32(ps.waiting - len(ps.tasks)))
	w.hi[at] = lo
	w.gave[at] = true
	ps.wake.Add(1)
	ps.cond.Signal()
	ps.mu.Unlock()
	if testEager {
		// let the thief start before this worker moves on
		for ps.queued() {
			runtime.Gosched()
		}
	}
}

// queued reports whether a handed-over task waits to be taken.
func (ps *pool) queued() bool {
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return len(ps.tasks) > 0
}
