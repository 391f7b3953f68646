package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"rtm/internal/service"
)

// selectSearchLimit bounds the reference search of a candidate class
// for a hit-path workload: a class that needs longer is far past
// hitMaxNodes and would not be chosen anyway.
const selectSearchLimit = time.Second

// computeRefs fills in the reference verdict of every class, on one
// goroutine per CPU, each search cut at selectSearchLimit. It runs
// before any timing.
func computeRefs(cfg config, cs []*class) error {
	errs := make([]error, len(cs))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				ctx, cancel := context.WithTimeout(context.Background(), selectSearchLimit)
				cs[i].ref, errs[i] = reference(ctx, cs[i].model, cfg)
				cancel()
				cs[i].refDone = errs[i] == nil
			}
		}()
	}
	for i := range cs {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("reference verdict of %s: %w", cs[i].name, err)
		}
	}
	return nil
}

// hitMaxNodes bounds the exact-search nodes a class of a hit-path
// workload may take to decide. Such classes are decided far inside
// the candidate budget, so the parallel searcher in the daemon decides
// them too, and the heavy tail of search times stays out of set-up.
const hitMaxNodes = 1000

// decidedClasses draws classes in the regime mix until it has
// nFeasible feasible and nInfeasible infeasible classes that the
// reference decides within hitMaxNodes exact-search nodes. Selection
// follows draw order, so it depends only on the seed.
func decidedClasses(cfg config, seed int64, prefix string, nFeasible, nInfeasible int) ([]*class, error) {
	d := newDrawer(seed, prefix)
	var out []*class
	feas, infeas := 0, 0
	for draws := 0; feas < nFeasible || infeas < nInfeasible; {
		if draws > 20*(nFeasible+nInfeasible)+1000 {
			return nil, fmt.Errorf("only %d feasible and %d infeasible decided classes in %d draws", feas, infeas, draws)
		}
		batch := make([]*class, 64)
		for i := range batch {
			c, err := d.draw()
			if err != nil {
				return nil, err
			}
			batch[i] = c
			draws++
		}
		if err := computeRefs(cfg, batch); err != nil {
			return nil, err
		}
		for _, c := range batch {
			if !c.ref.decided || c.ref.nodes > hitMaxNodes {
				continue
			}
			switch {
			case c.ref.feasible && feas < nFeasible:
				feas++
			case !c.ref.feasible && infeas < nInfeasible:
				infeas++
			default:
				continue
			}
			out = append(out, c)
		}
	}
	rand.New(rand.NewSource(seed^0x2545f491)).Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, nil
}

// delta is the change of every service counter between two snapshots.
func delta(before, after map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// tierSum checks the pipeline invariant: every pipeline run (cache
// miss) is decided by exactly one tier or counted as an executed
// exact search.
func tierSum(snap map[string]int64) error {
	sum := snap["analysis_solved"] + snap["analysis_refuted"] + snap["heuristic_solved"] + snap["searches"]
	if sum != snap["cache_misses"] {
		return fmt.Errorf("tier-sum invariant: analysis %d+%d + heuristic %d + searches %d = %d, cache misses %d",
			snap["analysis_solved"], snap["analysis_refuted"], snap["heuristic_solved"], snap["searches"], sum, snap["cache_misses"])
	}
	return nil
}

// checkDaemon asserts the tier-sum invariant on a daemon's service.
func (r *run) checkDaemon(svc *service.Service) {
	if err := tierSum(svc.Snapshot()); err != nil {
		r.fails.add(err)
	}
}

// serviceRatios sets the service.* and sched.* counts of a phase from
// its counter delta; feasibleReqs is how many requests sent to the
// service were for feasible classes (each costs one sched.Check
// unless the verified-hit memo serves it).
func (r *run) serviceRatios(d map[string]int64, feasibleReqs int64) {
	req := d["requests"]
	r.set("service.cache_hit_ratio", ratio(d["cache_hits"], req))
	r.set("service.memo_hit_ratio", ratio(d["memo_hits"], d["cache_hits"]+d["store_hits"]))
	r.set("service.evictions_per_kreq", 1000*ratio(d["evictions"], req))
	r.set("service.queue_wait_ms_total", float64(d["queue_wait_ns_total"])/1e6)
	r.set("service.undecided_frac", ratio(d["undecided"], req))
	r.set("sched.checks_per_req", ratio(feasibleReqs-d["memo_hits"], req))
	r.set("exact.searches", float64(d["searches"]))
}
