package exact

import (
	"context"
	"math"
	"sync"
	"sync/atomic"

	"rtm/internal/sched"
)

// Parallel subtree fan-out. One schedule length is explored by
// enumerating every pruned prefix of a small fixed depth in the
// sequential visiting order, then dispatching the prefixes — tagged
// with their position in that order — to a worker pool. Each worker
// finishes the depth-first search below its prefix with its own state
// and Checker.
//
// Determinism: the sequential search returns the first feasible
// schedule in depth-first (= lexicographic) order, so the parallel
// search keeps, per subtree, the subtree's own lex-first hit and lets
// the lowest prefix index win overall. A found schedule cancels only
// subtrees with HIGHER prefix indices (they cannot beat it); lower
// ones run to completion, so the winner is exactly the sequential
// result. Budget aborts (MaxCandidates) cancel everything and are the
// one documented source of nondeterminism under Workers > 1.
//
// The pruners run in the workers too. Every worker probes and stores
// the one shared memo table (striped locks). The per-pruner Stats are
// lower bounds: cancelled speculative subtrees lose their tallies,
// and memo hits depend on timing.

// pruneTally accumulates one worker's pruner cuts; merged into Stats
// after the pool drains.
type pruneTally struct {
	sym, memo, seeded, bound int64
}

// searchLengthParallel explores one cycle length with the given
// worker count. splitDepth 0 auto-picks the smallest depth whose
// worst-case prefix count reaches 4 × workers.
func searchLengthParallel(ctx context.Context, p *problem, n, workers, splitDepth int, mt *memoTable, st *Stats) (*sched.Schedule, error) {
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
	depth := splitDepth
	if depth <= 0 {
		depth = autoSplitDepth(len(p.syms), n, workers)
	}
	if depth > n-1 {
		depth = n - 1
	}
	if depth < 1 {
		// nothing to fan out (n == 1): the sequential search is exact
		// and cheap.
		ck, err := sched.NewChecker(p.m)
		if err != nil {
			return nil, err
		}
		return searchLength(ctx, p, n, ck, mt, st)
	}

	prefixes, enumNodes := enumPrefixes(p, n, minCount, totalMin, depth, mt, st)
	st.NodesExplored += enumNodes
	if len(prefixes) == 0 {
		return nil, nil
	}

	var (
		stop      atomic.Bool  // budget exhausted: cancel everything
		budgetHit atomic.Bool  //
		candTotal atomic.Int64 // global candidate count (budget is global)
		nodeTotal atomic.Int64 //
		bestIdx   atomic.Int64 // lowest prefix index that found a schedule
		mu        sync.Mutex   // guards best
		best      *sched.Schedule
	)
	bestIdx.Store(math.MaxInt64)
	// the candidate budget spans all lengths tried, so the counter
	// continues from the shorter lengths' tally
	candTotal.Store(int64(st.Candidates))

	if workers > len(prefixes) {
		workers = len(prefixes)
	}
	tallies := make([]pruneTally, workers)
	// cancellation hook: a done context trips the same stop flag the
	// budget abort uses, draining the pool promptly
	watcherDone := make(chan struct{})
	defer close(watcherDone)
	go func() {
		select {
		case <-ctx.Done():
			stop.Store(true)
		case <-watcherDone:
		}
	}()
	work := make(chan int)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			ck, err := sched.NewChecker(p.m)
			if err != nil {
				stop.Store(true) // cannot happen after the seq checker built
				return
			}
			ls := newState(p, n, minCount, totalMin, ck)
			defer ls.releaseSigbuf()
			var nodes int64
			defer func() { nodeTotal.Add(nodes) }()
			for idx := range work {
				if stop.Load() || int64(idx) > bestIdx.Load() {
					continue
				}
				pfx := prefixes[idx]
				for i, sym := range pfx {
					ls.place(i, sym)
				}
				searchSubtree(ls, idx, len(pfx), &nodes, &tallies[w], mt, &stop, &budgetHit, &candTotal, &bestIdx, &mu, &best)
				for i := len(pfx) - 1; i >= 0; i-- {
					ls.unplace(i, pfx[i])
				}
			}
		}(w)
	}
	for idx := range prefixes {
		work <- idx
	}
	close(work)
	wg.Wait()

	st.NodesExplored += int(nodeTotal.Load())
	st.Candidates = int(candTotal.Load())
	for w := range tallies {
		st.PrunedBySymmetry += int(tallies[w].sym)
		st.PrunedByMemo += int(tallies[w].memo)
		st.PrunedBySeededMemo += int(tallies[w].seeded)
		st.PrunedByBound += int(tallies[w].bound)
	}
	if err := ctx.Err(); err != nil {
		// a canceled search may have been stopped before the
		// lowest-index subtree finished, so any speculative hit is
		// unreliable: report only the cancellation
		return nil, err
	}
	if best != nil {
		return best, nil
	}
	if budgetHit.Load() {
		return nil, ErrBudget
	}
	return nil, nil
}

// autoSplitDepth picks the smallest prefix depth whose worst-case
// prefix count (syms^depth) is at least 4 × workers, so the pool
// stays busy even when pruning trims entire subtrees. Capped so the
// prefix table stays small.
func autoSplitDepth(syms, n, workers int) int {
	if syms < 2 {
		return 1
	}
	target := 4 * workers
	depth, count := 1, syms
	for count < target && depth < n-1 && depth < 12 {
		depth++
		count *= syms
	}
	return depth
}

// enumPrefixes walks the pruned search tree down to the split depth
// in sequential visiting order, returning every surviving prefix
// (index order = lexicographic order) and the number of internal
// nodes visited on the way. It applies the same pruners as the
// workers — probe-only for the memo table (its subtrees are not
// exhausted here, so nothing may be stored) — and tallies cuts
// directly into st: this phase is sequential.
func enumPrefixes(p *problem, n int, minCount []int, totalMin, depth int, mt *memoTable, st *Stats) ([][]int, int) {
	s := newState(p, n, minCount, totalMin, nil) // leafCheck never reached
	defer s.releaseSigbuf()
	var prefixes [][]int
	nodes := 0
	var rec func(pos int)
	rec = func(pos int) {
		if pos == depth {
			prefixes = append(prefixes, append([]int(nil), s.slots[:depth]...))
			return
		}
		nodes++
		if mt != nil && s.memoEligible(pos) {
			switch mt.probe(s.buildSig(pos)) {
			case memoHitDerived:
				st.PrunedByMemo++
				return
			case memoHitSeeded:
				st.PrunedBySeededMemo++
				return
			}
		}
		for sym := 0; sym < len(p.syms); sym++ {
			if p.breakRotations && pos > 0 && sym < s.slots[0] {
				continue
			}
			if p.orbitPrev != nil {
				if op := p.orbitPrev[sym]; op >= 0 && s.count[op] == 0 {
					st.PrunedBySymmetry++
					continue
				}
			}
			s.place(pos, sym)
			ok := s.pruneOK(pos) && (!p.contiguous || s.contigPrefixOK(pos))
			if ok && p.bounds && !s.boundOK(pos) {
				st.PrunedByBound++
				ok = false
			}
			if ok {
				rec(pos + 1)
			}
			s.unplace(pos, sym)
		}
		s.slots[pos] = 0
	}
	rec(0)
	return prefixes, nodes
}

// searchSubtree finishes the depth-first search below one prefix. It
// records the subtree's lexicographically first feasible schedule
// into best when it improves on bestIdx, and aborts early when a
// lower-indexed subtree has already won or the budget tripped.
func searchSubtree(ls *state, idx, from int, nodes *int64, tally *pruneTally, mt *memoTable,
	stop, budgetHit *atomic.Bool, candTotal, bestIdx *atomic.Int64, mu *sync.Mutex, best **sched.Schedule) {

	p := ls.p
	// rec returns (cont, leafFree): cont=false aborts the whole
	// subtree; leafFree licenses memoizing the node as empty (see
	// searchLength — aborts and leaves both poison it).
	var rec func(pos int) (bool, bool)
	rec = func(pos int) (bool, bool) {
		if stop.Load() || int64(idx) > bestIdx.Load() {
			return false, false
		}
		*nodes++
		if pos == ls.n {
			tot := candTotal.Add(1)
			if p.maxCand > 0 && tot > int64(p.maxCand) {
				budgetHit.Store(true)
				stop.Store(true)
				return false, false
			}
			if cand := ls.leafCheck(); cand != nil {
				mu.Lock()
				if int64(idx) < bestIdx.Load() {
					*best = cand
					bestIdx.Store(int64(idx))
				}
				mu.Unlock()
				return false, false // lex-first within this subtree: done here
			}
			return true, false
		}
		memoable := mt != nil && ls.memoEligible(pos)
		if memoable {
			switch mt.probe(ls.buildSig(pos)) {
			case memoHitDerived:
				tally.memo++
				return true, true
			case memoHitSeeded:
				tally.seeded++
				return true, true
			}
		}
		leafFree := true
		for sym := 0; sym < len(p.syms); sym++ {
			if p.breakRotations && pos > 0 && sym < ls.slots[0] {
				continue
			}
			if p.orbitPrev != nil {
				if op := p.orbitPrev[sym]; op >= 0 && ls.count[op] == 0 {
					tally.sym++
					continue
				}
			}
			ls.place(pos, sym)
			ok := ls.pruneOK(pos) && (!p.contiguous || ls.contigPrefixOK(pos))
			if ok && p.bounds && !ls.boundOK(pos) {
				tally.bound++
				ok = false
			}
			cont := true
			if ok {
				var lf bool
				cont, lf = rec(pos + 1)
				leafFree = leafFree && lf
			}
			ls.unplace(pos, sym)
			if !cont {
				return false, false
			}
		}
		ls.slots[pos] = 0
		if leafFree && memoable {
			mt.store(ls.buildSig(pos))
		}
		return true, leafFree
	}
	rec(from)
}
