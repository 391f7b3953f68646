package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"rtm/internal/core"
	"rtm/internal/sched"
	"rtm/internal/service"
	"rtm/internal/spec"
	"rtm/internal/store"
)

// store_spill: a store built before timing from eight times as many
// decided classes as the default cache holds; the daemon is reopened
// on it (store.Open replays the log: the set-up) and serves a uniform
// stream, so most requests take store.Get → remap → sched.Check →
// promote/evict. No search runs.
const (
	spillFeasible   = 1024
	spillInfeasible = 1024
)

// storeOptions opens stores without fsync: building 2 048 records
// with an fsync each would take most of a run and time the disk, not
// the store.
func (cfg config) storeOptions() store.Options {
	return store.Options{NoSync: true}
}

func runSpill(r *run) error {
	cs, err := decidedClasses(r.cfg, r.seed, "spill", spillFeasible, spillInfeasible)
	if err != nil {
		return err
	}
	dir := filepath.Join(r.out, "work", fmt.Sprintf("spill-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	storeDir := filepath.Join(dir, "store")
	if err := buildStore(r.cfg, storeDir, cs); err != nil {
		return err
	}
	t, err := newHitTarget(r, cs, 0)
	if err != nil {
		return err
	}
	j := newJudge(r.cfg)

	// learn both answers of every class from a daemon on the store:
	// the first request is a store hit, the second a cache hit
	st, err := store.Open(storeDir, r.cfg.storeOptions())
	if err != nil {
		return err
	}
	t.svc = r.cfg.newService(st)
	t.h = r.cfg.newDaemon(t.svc, nil)
	t.learn(r, j, 2)
	if err := st.Close(); err != nil {
		return err
	}
	for _, c := range cs {
		c.model, c.text = nil, ""
	}

	// set-up: reopen the store (log replay) and build the daemon
	var opens []float64
	err = r.timeSetup(setupRepeats, 1, func() { st.Close() }, func() error {
		t0 := time.Now()
		if st, err = store.Open(storeDir, r.cfg.storeOptions()); err != nil {
			return err
		}
		opens = append(opens, float64(time.Since(t0))/1e6)
		t.svc = r.cfg.newService(st)
		t.h = r.cfg.newDaemon(t.svc, nil)
		return nil
	})
	if err != nil {
		return fmt.Errorf("reopening the store: %w", err)
	}
	defer func() {
		if st != nil {
			st.Close()
		}
	}()
	if st.Len() != len(cs) {
		r.fails.add(fmt.Errorf("store holds %d records, want %d", st.Len(), len(cs)))
	}
	r.set("store.open_ms", median(opens))
	r.set("store.log_bytes_per_record", ratio(st.Bytes(), int64(st.Len())))

	// store.put is timed on a scratch store opened the same way: one
	// put of each class the traced client touches
	scratch, err := store.Open(filepath.Join(dir, "scratch"), r.cfg.storeOptions())
	if err != nil {
		return err
	}
	defer scratch.Close()
	put := make([]bool, len(cs))
	t.replay = func(c *client, root int, body []byte) {
		replaySpill(c, root, t.svc, st, body)
		i := int(c.ops) % len(cs)
		if c.id != 0 || put[i] {
			return
		}
		put[i] = true
		if rec, ok := st.Get(cs[i].fp); ok {
			s := c.tr.begin("store.put", root, int64(c.ops))
			if err := scratch.Put(rec); err != nil {
				c.fails.add(fmt.Errorf("scratch store put: %w", err))
			}
			c.tr.end(s)
		}
	}

	var feasibleReqs [hitClients]int64
	rngs := make([]*rand.Rand, hitClients)
	for i := range rngs {
		rngs[i] = rand.New(rand.NewSource(r.seed*977 + int64(i)))
	}
	op := func(c *client, _ int) {
		i := rngs[c.id].Intn(len(cs))
		if cs[i].ref.feasible {
			feasibleReqs[c.id]++
		}
		t.serve(c, j, i, 0)
	}
	// the store's index is daemon state: the heap is measured with it
	t.release = func() {
		st.Close()
		st = nil
	}
	d, err := r.hitPhases(t, op, func() int64 { return feasibleReqs[0] + feasibleReqs[1] })
	if err != nil {
		return err
	}
	r.set("service.store_hit_ratio", ratio(d["store_hits"], d["requests"]))
	return nil
}

// buildStore writes every class's decided outcome into a new store at
// dir through the daemon's own pipeline (write-through).
func buildStore(cfg config, dir string, cs []*class) error {
	st, err := store.Open(dir, cfg.storeOptions())
	if err != nil {
		return err
	}
	svc := cfg.newService(st)
	for _, c := range cs {
		res, err := svc.Schedule(context.Background(), c.model)
		if err != nil {
			st.Close()
			return fmt.Errorf("building the store: %s: %w", c.name, err)
		}
		if !res.Decided {
			st.Close()
			return fmt.Errorf("building the store: %s undecided", c.name)
		}
	}
	if n := svc.Snapshot()["store_puts"]; n != int64(len(cs)) {
		st.Close()
		return fmt.Errorf("building the store: %d puts for %d classes", n, len(cs))
	}
	return st.Close()
}

// replaySpill is the traced decomposition of one store-path request:
// parse, canonicalize, the store probe, the service (now a cache
// hit: the handler just promoted the class) and the schedule checker.
func replaySpill(c *client, root int, svc *service.Service, st *store.Store, body []byte) {
	req := int64(c.ops)
	s := c.tr.begin("spec.parse", root, req)
	sp, err := spec.Parse(string(body))
	c.tr.end(s)
	if err != nil {
		return
	}
	s = c.tr.begin("core.canonicalize", root, req)
	fp := core.Canonicalize(sp.Model).Fingerprint()
	c.tr.end(s)
	s = c.tr.begin("store.get", root, req)
	st.Get(fp)
	c.tr.end(s)
	s = c.tr.begin("service.hit", root, req)
	res, err := svc.Schedule(context.Background(), sp.Model)
	c.tr.end(s)
	if err != nil || res.Schedule == nil {
		return
	}
	s = c.tr.begin("sched.check", root, req)
	sched.Check(sp.Model, res.Schedule)
	c.tr.end(s)
}
