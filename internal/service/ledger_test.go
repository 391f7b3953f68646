package service

import (
	"context"
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
