package main

import (
	"fmt"
	"math/rand"
)

// hot_mix: decided classes that fit the default cache, served by
// closed-loop clients. Most requests repeat a class's own spec text
// byte for byte (verified-hit memo + response body cache); a fixed
// share sends one of the class's renamed isomorphic surfaces, drawn
// from a pool far larger than the memo's slots, so it almost always
// takes remap + sched.Check + memo insert. Exact search never runs.
const (
	hotFeasible   = 64
	hotInfeasible = 64
	hotSurfaces   = 64  // renamed surfaces per class
	hotRenamed    = 0.2 // share of requests with a renamed surface
)

func runHot(r *run) error {
	cs, err := decidedClasses(r.cfg, r.seed, "hot", hotFeasible, hotInfeasible)
	if err != nil {
		return err
	}
	t, err := newHitTarget(r, cs, hotSurfaces)
	if err != nil {
		return err
	}
	j := newJudge(r.cfg)

	// set-up: construct the daemon and prime it
	if err := r.timeSetup(setupRepeats, 1, nil, func() error { return t.prime(r) }); err != nil {
		return fmt.Errorf("priming: %w", err)
	}
	t.learn(r, j, 1)
	for _, c := range cs {
		c.model, c.text = nil, ""
	}

	var feasibleReqs [hitClients]int64
	rngs := make([]*rand.Rand, hitClients)
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(r.seed*131 + int64(i)))
	}
	op := func(c *client, _ int) {
		rng := rngs[c.id]
		i, s := rng.Intn(len(cs)), 0
		if rng.Float64() < hotRenamed {
			s = 1 + rng.Intn(hotSurfaces)
		}
		if cs[i].ref.feasible {
			feasibleReqs[c.id]++
		}
		t.serve(c, j, i, s)
	}
	_, err = r.hitPhases(t, op, func() int64 { return feasibleReqs[0] + feasibleReqs[1] })
	return err
}
