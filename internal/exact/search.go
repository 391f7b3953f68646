// Package exact decides feasibility of a graph-based model by
// exhaustive search over static schedules. It realizes the paper's
// Theorem 1 (a feasible static schedule, when one exists, is finite
// and can be found in finite time) and serves as the exact comparator
// for the NP-hardness constructions of Theorem 2, whose exponential
// cost it exhibits empirically.
//
// The search is iterative deepening over the schedule length with
// three prunes: a rotation symmetry break, per-element capacity lower
// bounds derived from the deadline windows, and incremental window
// checks — rolling per-window, per-element counters updated in O(1)
// per placement — that reject a prefix as soon as some
// fully-determined deadline window lacks capacity for a constraint.
//
// With Options.Workers > 1 a large search is shared with helper
// goroutines that steal untried sibling ranges (see parallel.go). The
// result is deterministic — the lexicographically first feasible
// schedule wins, matching the sequential visiting order — although a
// search that finds one also counts the speculative work that ran
// before cancellation.
package exact

import (
	"context"
	"errors"
	"fmt"

	"rtm/internal/core"
	"rtm/internal/sched"
)

// Options tune the search.
type Options struct {
	// MinLen and MaxLen bound the schedule lengths tried. MinLen
	// defaults to 1. MaxLen must be positive.
	MinLen, MaxLen int
	// MaxCandidates aborts the search after this many complete
	// candidate schedules have been feasibility-checked (0 = no
	// limit). The abort surfaces as ErrBudget.
	MaxCandidates int
	// RequireContiguous restricts the search to schedules whose
	// executions are unpreempted blocks — the "cannot be pipelined"
	// regime of Theorem 2(ii).
	RequireContiguous bool
	// Workers sets the number of goroutines that search. 0 and 1 run
	// the classic sequential search, whose schedule AND Stats are
	// deterministic. Values > 1 start at most Workers−1 helpers per
	// search, and only once the search has visited a few hundred
	// nodes, so a small search runs alone on the calling goroutine.
	// Idle workers steal part of a busy worker's untried siblings (see
	// parallel.go). The returned schedule is still the sequential one
	// (lexicographically first); an exhaustive search reports the
	// sequential NodesExplored and Candidates, while a search that
	// finds a schedule also counts the speculative work that ran
	// before it. A budget abort (MaxCandidates) may trigger on a
	// different candidate than the sequential order would. Negative
	// values are rejected: callers that want all CPUs resolve
	// GOMAXPROCS themselves.
	Workers int
	// The three pruners (DESIGN.md §10) are ON by default; each can
	// be disabled independently. All of them preserve the verdict and
	// the lex-first witness exactly; with all three disabled the
	// search is bit-for-bit the seed engine, Stats included.
	DisableSymmetry bool // orbit symmetry breaking
	DisableMemo     bool // dominance memoization (transposition table)
	DisableBounds   bool // demand-bound cuts
	// SeedMemo pre-loads the transposition table with signatures
	// exported by a previous search (Stats.MemoSnapshot) of a problem
	// in the same memo class (MemoKey). Seeding is verdict-invisible
	// by the memo soundness contract: a signature matching no
	// reachable residual state is simply never probed, so corrupt or
	// foreign seeds cost memory, never correctness. Ignored when
	// memoization is off.
	SeedMemo [][]byte
	// SnapshotMemo asks the search to export the refutations it
	// derived (Stats.MemoSnapshot) when it returns — including on
	// ErrNotFound, whose snapshot is the valuable one: the complete
	// refutation of every length tried.
	SnapshotMemo bool
}

// BadOptionsError reports an Options field whose value is invalid.
type BadOptionsError struct {
	Field string
	Value int
}

func (e *BadOptionsError) Error() string {
	return fmt.Sprintf("exact: invalid Options.%s: %d", e.Field, e.Value)
}

// validate rejects malformed options with a typed error. Negative
// Workers are rejected rather than silently clamped: callers that
// want "all CPUs" must resolve GOMAXPROCS themselves.
func (opt Options) validate() error {
	if opt.MaxLen <= 0 {
		return &BadOptionsError{Field: "MaxLen", Value: opt.MaxLen}
	}
	if opt.Workers < 0 {
		return &BadOptionsError{Field: "Workers", Value: opt.Workers}
	}
	return nil
}

// Stats reports search effort. The three pruner counters are exact
// and deterministic when Workers ≤ 1; under a parallel search they
// are lower bounds (speculative subtrees may be cancelled before
// their cuts are tallied, and the shared memo table makes hit counts
// timing-dependent).
type Stats struct {
	NodesExplored int // partial assignments visited
	Candidates    int // complete schedules feasibility-checked
	LengthsTried  []int

	PrunedBySymmetry int // placements skipped by the orbit symmetry break
	PrunedByMemo     int // subtrees skipped by refutations derived this search
	PrunedByBound    int // demand-bound cuts (nodes and whole lengths)

	// MemoSeeded counts the signatures pre-loaded from
	// Options.SeedMemo; PrunedBySeededMemo counts the subtrees those
	// imported refutations cut (disjoint from PrunedByMemo).
	MemoSeeded         int
	PrunedBySeededMemo int
	// MemoSnapshot carries the derived (non-seeded) refutation
	// signatures when Options.SnapshotMemo is set, sorted descending —
	// deepest subtrees first — so truncation under a storage cap keeps
	// the most valuable entries.
	MemoSnapshot [][]byte
}

// ErrBudget is returned when MaxCandidates is exhausted before the
// search space is. A caller seeing ErrBudget knows nothing about
// feasibility: the instance may still admit a schedule the budget cut
// off.
var ErrBudget = errors.New("exact: candidate budget exhausted")

// ErrNotFound is returned when no feasible schedule of length at most
// MaxLen exists.
var ErrNotFound = errors.New("exact: no feasible static schedule within length bound")

// FindSchedule searches for a feasible static schedule. On success it
// returns the first schedule found (in canonical rotation) together
// with search statistics. It returns ErrNotFound (with stats) when
// the bounded space is exhausted, or ErrBudget when the candidate
// budget runs out.
func FindSchedule(m *core.Model, opt Options) (*sched.Schedule, *Stats, error) {
	return FindScheduleCtx(context.Background(), m, opt)
}

// FindScheduleCtx is FindSchedule under a context: the search polls
// ctx between node batches (sequential) and stops the workers
// (parallel) as soon as the context is done, returning ctx.Err()
// alongside whatever stats had accumulated. A canceled search says
// nothing about feasibility — like ErrBudget, the abort is an effort
// limit, not a verdict. This is the per-request cancellation hook the
// scheduling service uses to bound latencies of admitted searches.
func FindScheduleCtx(ctx context.Context, m *core.Model, opt Options) (*sched.Schedule, *Stats, error) {
	if err := opt.validate(); err != nil {
		return nil, nil, err
	}
	minLen := opt.MinLen
	if minLen < 1 {
		minLen = 1
	}
	workers := opt.Workers
	st := &Stats{}
	p := newProblem(m, opt)
	ck, err := sched.NewChecker(m)
	if err != nil {
		return nil, nil, fmt.Errorf("exact: %w", err)
	}
	// The transposition table is shared across the per-length restarts
	// of the iterative deepening: the signature carries every
	// length-dependent component, so a refutation derived at length n
	// prunes the matching residual states at length n+1 for free.
	var mt *memoTable
	if p.memoOK {
		mt = newMemoTable(workers)
		if len(opt.SeedMemo) > 0 {
			st.MemoSeeded = mt.Seed(opt.SeedMemo)
		}
		if opt.SnapshotMemo {
			// export on every exit path — ErrNotFound carries the
			// complete refutation, but a found schedule or an abort
			// still snapshots whatever was soundly derived
			defer func() { st.MemoSnapshot = mt.Snapshot() }()
		}
	}
	var ps *pool
	if workers > 1 {
		// one pool for every length; closed (helpers stopped, their
		// counts merged) before the memo snapshot above is taken
		ps = newPool(ctx, p, workers, ck, mt, opt.MaxLen, opt.SnapshotMemo)
		defer ps.close(st)
	}
	for n := minLen; n <= opt.MaxLen; n++ {
		if err := ctx.Err(); err != nil {
			return nil, st, err
		}
		st.LengthsTried = append(st.LengthsTried, n)
		var s *sched.Schedule
		var err error
		if ps != nil {
			s, err = ps.searchLength(n, st)
		} else {
			s, err = searchLength(ctx, p, n, ck, mt, st)
		}
		if err != nil {
			return nil, st, err
		}
		if s != nil {
			return s, st, nil
		}
	}
	return nil, st, ErrNotFound
}

// Feasible reports whether some static schedule of length ≤ maxLen
// meets every constraint. The stats are returned alongside. It is
// shorthand for FeasibleOpt with only MaxLen set; see FeasibleOpt for
// the error contract.
func Feasible(m *core.Model, maxLen int) (bool, *Stats, error) {
	return FeasibleOpt(m, Options{MaxLen: maxLen})
}

// FeasibleOpt decides feasibility under the full option set. The
// boolean is meaningful only when the error is nil: a false with a
// nil error is a proof of infeasibility within the length bound,
// while a false with ErrBudget merely means MaxCandidates ran out
// mid-search — callers must check errors.Is(err, ErrBudget) before
// treating the result as "infeasible".
func FeasibleOpt(m *core.Model, opt Options) (bool, *Stats, error) {
	s, st, err := FindSchedule(m, opt)
	if errors.Is(err, ErrNotFound) {
		return false, st, nil
	}
	if err != nil {
		return false, st, err
	}
	return s != nil, st, nil
}

// searchLength runs the classic sequential depth-first search at one
// cycle length. Its visiting order — and therefore the schedule found
// and every Stats field — is the determinism reference for the
// parallel fan-out.
func searchLength(ctx context.Context, p *problem, n int, ck *sched.Checker, mt *memoTable, st *Stats) (*sched.Schedule, error) {
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
	s := newState(p, n, minCount, totalMin, ck)
	defer s.releaseSigbuf()
	var found *sched.Schedule

	// rec explores the subtree below pos. leafFree reports that the
	// subtree was exhausted without ever reaching pos == n — the
	// precondition for memoizing it as empty (a leaf check depends on
	// the whole prefix; a prune-driven refutation only on the
	// residual-state signature).
	var rec func(pos int) (bool, error)
	rec = func(pos int) (bool, error) {
		if found != nil {
			return false, nil
		}
		st.NodesExplored++
		if st.NodesExplored&0x3ff == 0 {
			if err := ctx.Err(); err != nil {
				return false, err
			}
		}
		if pos == n {
			st.Candidates++
			if p.maxCand > 0 && st.Candidates > p.maxCand {
				return false, ErrBudget
			}
			found = s.leafCheck()
			return false, nil
		}
		memoable := mt != nil && s.memoEligible(pos)
		if memoable {
			switch mt.probe(s.buildSig(pos)) {
			case memoHitDerived:
				st.PrunedByMemo++
				return true, nil
			case memoHitSeeded:
				st.PrunedBySeededMemo++
				return true, nil
			}
		}
		leafFree := true
		for sym := 0; sym < len(p.syms); sym++ {
			// symmetry break: the minimal rotation of any string
			// begins with its minimal symbol, so every later slot
			// may be required to be ≥ the first (idle sorts first).
			// Each rotation class keeps a representative.
			if p.breakRotations && pos > 0 && sym < s.slots[0] {
				continue
			}
			// orbit symmetry break: a symbol whose smaller orbit-mate
			// has not appeared cannot start in the lex-first witness
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
				lf, err := rec(pos + 1)
				if err != nil {
					return false, err
				}
				leafFree = leafFree && lf
			}
			s.unplace(pos, sym)
			if found != nil {
				return false, nil
			}
		}
		s.slots[pos] = 0
		if leafFree && memoable {
			// the state is back to its probe-time value: rebuild the
			// signature (the scratch buffer was clobbered by children)
			mt.store(s.buildSig(pos))
		}
		return leafFree, nil
	}
	if _, err := rec(0); err != nil {
		return nil, err
	}
	return found, nil
}
