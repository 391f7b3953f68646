package exact

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"rtm/internal/core"
	"rtm/internal/nphard"
)

// e2TightModel builds the unit-density async deadline-set instances of
// experiment E2: one unit-weight element per deadline, Σ 1/d = 1.
func e2TightModel(ds []int) *core.Model { return density1Model(1, ds) }

// density1Model scales the E2 family by weight w: one weight-w element
// per deadline d, with period and deadline d·w, so Σ w/(d·w) = 1.
func density1Model(w int, ds []int) *core.Model {
	m := core.NewModel()
	for i, d := range ds {
		name := fmt.Sprintf("u%d", i)
		m.Comm.AddElement(name, w)
		m.AddConstraint(&core.Constraint{
			Name: "c" + name, Task: core.ChainTask(name),
			Period: d * w, Deadline: d * w, Kind: core.Asynchronous,
		})
	}
	return m
}

// e3Model encodes a 3-PARTITION instance with the experiment E3
// options (fixed length, contiguous, generous candidate budget).
func e3Model(t *testing.T, sizes []int, b int) (*core.Model, Options) {
	t.Helper()
	tp := nphard.ThreePartition{Sizes: sizes, B: b}
	m, err := nphard.EncodeThreePartition(tp)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	n := tp.M() * (b + 1)
	return m, Options{MinLen: n, MaxLen: n, RequireContiguous: true, MaxCandidates: 5_000_000}
}

// e4Model encodes the experiment E4 CYCLIC ORDERING core for n items
// with its options (one cycle of n+1 slots, contiguous).
func e4Model(t *testing.T, n int) (*core.Model, Options) {
	t.Helper()
	m, err := nphard.EncodeCyclicCore(n, 1)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return m, Options{MinLen: n + 1, MaxLen: n + 1, RequireContiguous: true}
}

// TestPrunedMatchesReferenceVerdicts is the pruners-ON half of the
// oracle parity contract: on the full equivalence suite the default
// (pruning) engine must return the identical error class, the
// identical lex-first witness, and try the identical lengths as the
// vendored seed oracle. Only the effort stats may differ.
func TestPrunedMatchesReferenceVerdicts(t *testing.T) {
	for _, tc := range equivalenceSuite() {
		refS, refSt, refErr := refFindSchedule(tc.m, tc.opt)
		for _, workers := range []int{0, 1} {
			opt := tc.opt
			opt.Workers = workers
			s, st, err := FindSchedule(tc.m, opt)
			if (err == nil) != (refErr == nil) || (err != nil && !errors.Is(err, refErr)) {
				t.Fatalf("%s workers=%d: err = %v, reference = %v", tc.name, workers, err, refErr)
			}
			if (s == nil) != (refS == nil) || (s != nil && !s.Equal(refS)) {
				t.Fatalf("%s workers=%d: schedule %v, reference %v", tc.name, workers, s, refS)
			}
			if !reflect.DeepEqual(st.LengthsTried, refSt.LengthsTried) {
				t.Fatalf("%s workers=%d: lengths %v, reference %v", tc.name, workers, st.LengthsTried, refSt.LengthsTried)
			}
			if st.NodesExplored > refSt.NodesExplored {
				t.Fatalf("%s workers=%d: pruned search explored MORE nodes: %d > %d",
					tc.name, workers, st.NodesExplored, refSt.NodesExplored)
			}
		}
	}
}

// TestPrunerNodeReduction pins the acceptance criterion: ≥ 5x fewer
// nodes on the refutation-heavy E2 tight rows and the E3 NO row, with
// verdicts unchanged; the feasible E2, E3 and E4 rows must return the
// reference's verdict and witness. The E2 infeasible rows are refuted
// at the root by the exact-cover certificate (zero nodes); the E3 NO
// row is cut down by the orbit of its five size-5 items plus the
// anchored in-window bound.
func TestPrunerNodeReduction(t *testing.T) {
	check := func(name string, m *core.Model, opt Options, wantFeasible bool) {
		t.Helper()
		refS, refSt, refErr := refFindSchedule(m, opt)
		if (refErr == nil) != wantFeasible {
			t.Fatalf("%s: reference err = %v, want feasible=%v", name, refErr, wantFeasible)
		}
		s, st, err := FindSchedule(m, opt)
		if (err == nil) != (refErr == nil) || (err != nil && !errors.Is(err, refErr)) {
			t.Fatalf("%s: err = %v, reference = %v", name, err, refErr)
		}
		if (s == nil) != (refS == nil) || (s != nil && !s.Equal(refS)) {
			t.Fatalf("%s: schedule %v, reference %v", name, s, refS)
		}
		if !wantFeasible && 5*st.NodesExplored > refSt.NodesExplored {
			t.Fatalf("%s: nodes %d vs reference %d — less than the required 5x reduction",
				name, st.NodesExplored, refSt.NodesExplored)
		}
		cuts := st.PrunedBySymmetry + st.PrunedByMemo + st.PrunedByBound
		if !wantFeasible && cuts == 0 {
			t.Fatalf("%s: infeasible instance decided with zero pruner cuts: %+v", name, st)
		}
	}

	check("e2-{2,3,6}", e2TightModel([]int{2, 3, 6}), Options{MaxLen: 6}, false)
	check("e2-{2,4,6,12}", e2TightModel([]int{2, 4, 6, 12}), Options{MaxLen: 12}, false)
	check("e2-{2,6,6,6}", e2TightModel([]int{2, 6, 6, 6}), Options{MaxLen: 6}, true)

	m, opt := e3Model(t, []int{7, 5, 5, 5, 5, 5}, 16)
	check("e3-NO", m, opt, false)
	m, opt = e3Model(t, []int{6, 5, 5, 6, 5, 5}, 16)
	check("e3-YES", m, opt, true)

	for _, n := range []int{6, 7} {
		m, opt := e4Model(t, n)
		check(fmt.Sprintf("e4-n%d", n), m, opt, true)
	}
}

// TestPrunerStatsDeterministic pins the Workers ≤ 1 determinism of the
// per-pruner counters: two identical runs must agree on every Stats
// field, including the cut tallies.
func TestPrunerStatsDeterministic(t *testing.T) {
	models := []struct {
		name string
		m    *core.Model
		opt  Options
	}{
		{"e2-tight", e2TightModel([]int{2, 3, 6}), Options{MaxLen: 6}},
		{"e2-feasible", e2TightModel([]int{2, 6, 6, 6}), Options{MaxLen: 6}},
	}
	m3, opt3 := e3Model(t, []int{7, 5, 5, 5, 5, 5}, 16)
	models = append(models, struct {
		name string
		m    *core.Model
		opt  Options
	}{"e3-NO", m3, opt3})

	for _, tc := range models {
		for _, workers := range []int{0, 1} {
			opt := tc.opt
			opt.Workers = workers
			_, st1, err1 := FindSchedule(tc.m, opt)
			_, st2, err2 := FindSchedule(tc.m, opt)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("%s workers=%d: errs %v vs %v", tc.name, workers, err1, err2)
			}
			if !reflect.DeepEqual(st1, st2) {
				t.Fatalf("%s workers=%d: stats not deterministic:\n  %+v\n  %+v", tc.name, workers, st1, st2)
			}
		}
	}
}

// TestMemoSharingModes runs the parallel search over the shared
// striped transposition table and pins the verdict and witness
// against the sequential search.
func TestMemoSharingModes(t *testing.T) {
	m3, opt3 := e3Model(t, []int{7, 5, 5, 5, 5, 5}, 16)
	cases := []struct {
		name string
		m    *core.Model
		opt  Options
	}{
		{"e3-NO", m3, opt3},
		{"e2-feasible", e2TightModel([]int{2, 6, 6, 6}), Options{MaxLen: 6}},
	}
	for _, tc := range cases {
		seq := tc.opt
		seq.Workers = 1
		wantS, _, wantErr := FindSchedule(tc.m, seq)
		opt := tc.opt
		opt.Workers = 4
		s, _, err := FindSchedule(tc.m, opt)
		if (err == nil) != (wantErr == nil) || (err != nil && !errors.Is(err, wantErr)) {
			t.Fatalf("%s: err = %v, sequential = %v", tc.name, err, wantErr)
		}
		if (s == nil) != (wantS == nil) || (s != nil && !s.Equal(wantS)) {
			t.Fatalf("%s: schedule %v, sequential %v", tc.name, s, wantS)
		}
	}
}

// TestBudgetContractWithPruners re-runs the documented FeasibleOpt
// ErrBudget contract with every pruner enabled (the default): a budget
// abort must still surface as ErrBudget, never as a silent
// "infeasible".
func TestBudgetContractWithPruners(t *testing.T) {
	m := asyncModel(asyncChain("A", 2, "a", "b"))
	ok, _, err := FeasibleOpt(m, Options{MaxLen: 6})
	if err != nil || ok {
		t.Fatalf("unbudgeted: ok=%v err=%v, want false/nil", ok, err)
	}
	ok, st, err := FeasibleOpt(m, Options{MaxLen: 6, MaxCandidates: 1})
	if !errors.Is(err, ErrBudget) || ok {
		t.Fatalf("budgeted: ok=%v err=%v, want false/ErrBudget", ok, err)
	}
	if st == nil || st.Candidates < 1 {
		t.Fatalf("budgeted: stats %+v", st)
	}
}

// TestDisableFlagsIndependent exercises each pruner alone: disabling
// any two must leave the third still sound (same verdicts as the
// oracle on a refutation-heavy instance).
func TestDisableFlagsIndependent(t *testing.T) {
	m := e2TightModel([]int{2, 3, 6})
	base := Options{MaxLen: 6}
	_, _, refErr := refFindSchedule(m, base)
	if !errors.Is(refErr, ErrNotFound) {
		t.Fatalf("reference: %v", refErr)
	}
	for mask := 0; mask < 8; mask++ {
		opt := base
		opt.DisableSymmetry = mask&1 != 0
		opt.DisableMemo = mask&2 != 0
		opt.DisableBounds = mask&4 != 0
		_, _, err := FindSchedule(m, opt)
		if !errors.Is(err, ErrNotFound) {
			t.Fatalf("mask=%03b: err = %v, want ErrNotFound", mask, err)
		}
	}
}
