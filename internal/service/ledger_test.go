package service

import (
	"context"
	"errors"
	"slices"
	"testing"

	"rtm/internal/exact"
)

// TestColdPathLedger gates the cold path's work on counts, which
// repeat exactly with a sequential exact search, where wall time on a
// shared host does not. It serves a fixed slice of the seed-1 layered
// corpus under the serving budget (20,000 candidates, length cap 24,
// Workers: 1) and pins how many classes each tier decides, how many
// searches run and end undecided, and the nodes they explore. A count
// above its ledger entry fails the test; one below it is logged, and
// the entry should be lowered in the same change. The tier tallies sum
// to the slice size, so a class that moves between tiers raises one of
// them: such a change must restate the ledger.
func TestColdPathLedger(t *testing.T) {
	const classes = 600
	ledger := []struct {
		name string
		want int64
	}{
		{"analysis_solved", 135},
		{"analysis_refuted", 229},
		{"heuristic_solved", 55},
		{"searches", 181},
		{"exact_solved", 135},
		{"exact_refuted", 34},
		{"undecided", 12},
		{"exact_nodes_total", 678_284},
	}
	svc := New(Options{
		SearchConcurrency: -1,
		MaxLenCap:         corpusMaxLenCap,
		Exact:             exact.Options{MaxCandidates: 20_000, Workers: 1},
	})
	for i, c := range layeredCorpus(t, 1, classes) {
		if _, err := svc.Schedule(context.Background(), c.m); err != nil {
			t.Fatalf("class %d (%s): %v", i, c.regime, err)
		}
	}
	got := svc.Metrics().Snapshot()
	for _, e := range ledger {
		switch g := got[e.name]; {
		case g > e.want:
			t.Errorf("%s = %d, above the ledger's %d", e.name, g, e.want)
		case g < e.want:
			t.Logf("%s = %d, below the ledger's %d; lower it", e.name, g, e.want)
		}
	}
}

// TestParallelDecidesWhatSequentialDecides pins the budget rule the
// serving benchmark's oracle applies to a parallel daemon: the
// parallel searcher shares one candidate budget among its workers and
// may spend part of it on work the sequential order never reaches, so
// it may run out where Workers: 1 did not; but a class that Workers: 1
// decides within a 2·workers-th of the budget must be decided by
// Workers: 2 as well, with the same verdict and the same schedule.
func TestParallelDecidesWhatSequentialDecides(t *testing.T) {
	const (
		classes = 600
		budget  = 20_000
		workers = 2
	)
	newSvc := func(w int) *Service {
		return New(Options{
			SearchConcurrency: -1,
			MaxLenCap:         corpusMaxLenCap,
			Exact:             exact.Options{MaxCandidates: budget, Workers: w},
		})
	}
	seq, par := newSvc(1), newSvc(workers)
	ctx := context.Background()
	checked := 0
	for i, c := range layeredCorpus(t, 1, classes) {
		want, err := seq.Schedule(ctx, c.m)
		if err != nil {
			t.Fatalf("class %d (%s): sequential: %v", i, c.regime, err)
		}
		got, err := par.Schedule(ctx, c.m)
		if err != nil {
			t.Fatalf("class %d (%s): parallel: %v", i, c.regime, err)
		}
		if !want.Decided {
			continue
		}
		if want.Source == "exact" {
			_, st, err := exact.FindSchedule(c.m, exact.Options{MaxLen: c.bound, MaxCandidates: budget, Workers: 1})
			if errors.Is(err, exact.ErrBudget) {
				t.Fatalf("class %d (%s): the service decided it but a direct search ran out of budget", i, c.regime)
			}
			if st.Candidates > budget/(2*workers) {
				continue
			}
			checked++
		}
		if !got.Decided || got.Feasible != want.Feasible || got.Source != want.Source {
			t.Fatalf("class %d (%s): parallel decided=%v feasible=%v source=%s, sequential decided=%v feasible=%v source=%s",
				i, c.regime, got.Decided, got.Feasible, got.Source, want.Decided, want.Feasible, want.Source)
		}
		if want.Feasible && !slices.Equal(got.Schedule.Slots, want.Schedule.Slots) {
			t.Fatalf("class %d (%s): parallel schedule %v, sequential %v", i, c.regime, got.Schedule.Slots, want.Schedule.Slots)
		}
	}
	if checked == 0 {
		t.Fatal("no exact search decided within the shared budget: the corpus does not exercise the rule")
	}
	t.Logf("%d exact searches decided within %d candidates agree", checked, budget/(2*workers))
}
