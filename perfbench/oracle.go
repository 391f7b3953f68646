package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"time"

	"rtm/internal/analysis"
	"rtm/internal/core"
	"rtm/internal/exact"
	"rtm/internal/heuristic"
	"rtm/internal/sched"
	"rtm/internal/spec"
)

// verdict is the oracle's reference outcome for one class, computed
// once per class outside timing by calling the decision tiers
// directly — no canonicalization, no cache, no handler — with the
// daemon's exact budget and length cap but a sequential searcher.
type verdict struct {
	decided  bool
	feasible bool
	tier     string // analysis, heuristic or exact
	// nodes and cands are the exact stage's node and candidate
	// counts (0 when an earlier tier decided).
	nodes, cands int
}

// reference decides m the way the daemon's pipeline is specified to:
// analytic tier, then the paper's heuristic, then budgeted exact
// search, which ends early (undecided) when ctx does.
func reference(ctx context.Context, m *core.Model, cfg config) (verdict, error) {
	fd, err := analysis.DecideFast(m)
	if err != nil {
		return verdict{}, fmt.Errorf("analysis: %w", err)
	}
	switch fd.Verdict {
	case analysis.Infeasible:
		return verdict{decided: true, tier: "analysis"}, nil
	case analysis.Feasible:
		return verdict{decided: true, feasible: true, tier: "analysis"}, nil
	}
	if _, err := heuristic.Schedule(m, heuristic.Options{MergeShared: true}); err == nil {
		return verdict{decided: true, feasible: true, tier: "heuristic"}, nil
	}
	_, st, err := exact.FindScheduleCtx(ctx, m, cfg.exactOptions(m, 1))
	v := verdict{tier: "exact"}
	if st != nil {
		v.nodes, v.cands = st.NodesExplored, st.Candidates
	}
	switch {
	case err == nil:
		v.decided, v.feasible = true, true
	case errors.Is(err, exact.ErrNotFound):
		v.decided = true
	case errors.Is(err, exact.ErrBudget), errors.Is(err, context.DeadlineExceeded):
	default:
		return v, fmt.Errorf("exact: %w", err)
	}
	return v, nil
}

// response is the part of a /schedule answer the oracle judges.
type response struct {
	System      string   `json:"system"`
	Fingerprint string   `json:"fingerprint"`
	Decided     bool     `json:"decided"`
	Feasible    bool     `json:"feasible"`
	Source      string   `json:"source"`
	CacheHit    bool     `json:"cacheHit"`
	Cycle       int      `json:"cycle"`
	Schedule    []string `json:"schedule"`
	Constraints []struct {
		Name string `json:"name"`
		OK   bool   `json:"ok"`
	} `json:"constraints"`
}

// elapsedKey is the last field of every answer; the only bytes that
// differ between two answers to the same surface follow it.
var elapsedKey = []byte(`"elapsedMicros":`)

// stable returns body without its per-request elapsed time.
func stable(body []byte) ([]byte, bool) {
	i := bytes.LastIndex(body, elapsedKey)
	if i < 0 {
		return nil, false
	}
	return body[:i+len(elapsedKey)], true
}

// judge checks answers. Answers to one surface are byte-identical up
// to the elapsed time, so each distinct answer is checked in full
// once and recognised afterwards by a hash of its stable bytes.
type judge struct {
	seed maphash.Seed
	cfg  config
}

func newJudge(cfg config) *judge { return &judge{seed: maphash.MakeSeed(), cfg: cfg} }

// sum hashes the stable bytes of an answer.
func (j *judge) sum(body []byte) (uint64, bool) {
	st, ok := stable(body)
	if !ok {
		return 0, false
	}
	return maphash.Bytes(j.seed, st), true
}

// parsed returns c's model, parsing the spec text when the class
// does not keep its model.
func (c *class) parsed() (*core.Model, error) {
	if c.model != nil {
		return c.model, nil
	}
	sp, err := spec.Parse(string(c.body))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", c.name, err)
	}
	return sp.Model, nil
}

// judgeSearchLimit bounds the sequential reference search the judge
// runs for an infeasible answer. A search cut short leaves the
// reference undecided, so that answer is not contradicted; it keeps a
// rare class that searches for tens of seconds from stalling the run.
const judgeSearchLimit = 10 * time.Second

// reference returns c's reference verdict, computing it on first use.
func (j *judge) reference(c *class) (verdict, error) {
	if !c.refDone {
		m, err := c.parsed()
		if err != nil {
			return verdict{}, err
		}
		ctx, cancel := context.WithTimeout(context.Background(), judgeSearchLimit)
		defer cancel()
		if c.ref, err = reference(ctx, m, j.cfg); err != nil {
			return verdict{}, fmt.Errorf("%s: reference verdict: %w", c.name, err)
		}
		c.refDone = true
	}
	return c.ref, nil
}

// check judges one answer in full. m is the model of the surface that
// was sent (nil: the class's own). A feasible answer is judged by its
// certificate: the served schedule must pass sched.Check against m.
// An infeasible answer must not contradict the reference verdict.
// mustDecide rejects every undecided answer: each class a hit-path
// workload sends is decided well inside the budget. Otherwise an
// undecided answer is judged by decidedWellInside.
func (j *judge) check(body []byte, c *class, m *core.Model, mustDecide bool) error {
	var r response
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("%s: answer is not JSON: %v", c.name, err)
	}
	if r.Fingerprint != c.fp {
		return fmt.Errorf("%s: fingerprint %.12s, reference %.12s", c.name, r.Fingerprint, c.fp)
	}
	if !r.Decided {
		if mustDecide {
			return fmt.Errorf("%s: undecided, reference decided by %s", c.name, c.ref.tier)
		}
		if r.Feasible || len(r.Schedule) > 0 {
			return fmt.Errorf("%s: undecided answer carries a schedule", c.name)
		}
		ref, err := j.reference(c)
		if err != nil {
			return err
		}
		if j.decidedWellInside(ref) {
			return fmt.Errorf("%s: undecided, reference decided by %s after %d of %d candidates", c.name, ref.tier, ref.cands, j.cfg.maxCand)
		}
		return nil
	}
	if !r.Feasible {
		if len(r.Schedule) > 0 {
			return fmt.Errorf("%s: infeasible answer carries a schedule", c.name)
		}
		ref, err := j.reference(c)
		if err != nil {
			return err
		}
		if ref.decided && ref.feasible {
			return fmt.Errorf("%s: infeasible, reference feasible (%s)", c.name, ref.tier)
		}
		return nil
	}
	if c.refDone && c.ref.decided && !c.ref.feasible {
		return fmt.Errorf("%s: feasible, reference infeasible (%s)", c.name, c.ref.tier)
	}
	if len(r.Schedule) == 0 || r.Cycle != len(r.Schedule) {
		return fmt.Errorf("%s: feasible answer with cycle %d and %d slots", c.name, r.Cycle, len(r.Schedule))
	}
	if m == nil {
		var err error
		if m, err = c.parsed(); err != nil {
			return err
		}
	}
	rep := sched.Check(m, sched.New(r.Schedule...))
	if !rep.Feasible {
		return fmt.Errorf("%s: served schedule fails sched.Check: %s", c.name, rep)
	}
	if len(r.Constraints) != len(m.Constraints) {
		return fmt.Errorf("%s: %d constraint reports for %d constraints", c.name, len(r.Constraints), len(m.Constraints))
	}
	for _, cr := range r.Constraints {
		if !cr.OK {
			return fmt.Errorf("%s: constraint %s reported violated in a feasible answer", c.name, cr.Name)
		}
	}
	return nil
}

// decidedWellInside reports whether the daemon must decide a class
// whose reference verdict is ref. The daemon runs the same tiers in
// the same order, so a class analysis or the heuristic decides is
// always decided. The daemon's parallel searcher shares one candidate
// budget among its workers and spends part of it on speculative
// subtrees the sequential search never enters, so it may run out
// where the sequential search did not; but a class the sequential
// search decides within a 2·workers-th of the budget leaves every
// worker room to spare, and an undecided answer for it means the
// daemon gave up early.
func (j *judge) decidedWellInside(ref verdict) bool {
	if !ref.decided {
		return false
	}
	if ref.tier != "exact" {
		return true
	}
	return j.cfg.maxCand > 0 && ref.cands <= j.cfg.maxCand/(2*j.cfg.workerCount())
}

// surfaceModel parses the text of surface k of c (k < 0: the class
// itself) — the model a renamed answer must satisfy.
func surfaceModel(c *class, k int) (*core.Model, error) {
	if k < 0 {
		return c.parsed()
	}
	sp, err := spec.Parse(c.surfaceText(k))
	if err != nil {
		return nil, fmt.Errorf("%s surface %d: %w", c.name, k, err)
	}
	return sp.Model, nil
}

// failures collects failed operations with the first few reasons.
type failures struct {
	n       int
	reasons []string
}

func (f *failures) add(err error) {
	f.n++
	if len(f.reasons) < 8 {
		f.reasons = append(f.reasons, err.Error())
	}
}

func (f *failures) merge(g *failures) {
	f.n += g.n
	for _, r := range g.reasons {
		if len(f.reasons) < 8 {
			f.reasons = append(f.reasons, r)
		}
	}
}
