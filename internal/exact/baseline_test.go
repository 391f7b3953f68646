package exact

import (
	"errors"
	"testing"

	"rtm/internal/core"
)

// TestSearchNodeBaselines gates the search's work on counts, which
// repeat exactly at Workers: 1, where wall time on a shared host does
// not. Each instance's NodesExplored and Candidates must not exceed
// the committed baseline, so a change that makes the search do more
// work on any of them fails here. When a change lowers a count, lower
// its baseline in the same change.
func TestSearchNodeBaselines(t *testing.T) {
	type instance struct {
		m   *core.Model
		opt Options
	}
	e3 := func(sizes []int, b int) instance {
		m, opt := e3Model(t, sizes, b)
		return instance{m, opt}
	}
	e4 := func(n int) instance {
		m, opt := e4Model(t, n)
		return instance{m, opt}
	}
	// burst is one class of the service's cold-burst workload, under
	// the service's exact options: MaxLen is the hyperperiod
	burst := func(w int, ds ...int) instance {
		m := density1Model(w, ds)
		return instance{m, Options{MaxLen: m.Hyperperiod(), MaxCandidates: 2_000_000}}
	}
	cases := []struct {
		name              string
		in                instance
		feasible          bool
		nodes, candidates int
	}{
		// the E2, E3 and E4 rows of EXPERIMENTS.md
		{"e2-{2,3,6}", instance{e2TightModel([]int{2, 3, 6}), Options{MaxLen: 6}}, false, 0, 0},
		{"e2-{2,6,6,6}", instance{e2TightModel([]int{2, 6, 6, 6}), Options{MaxLen: 6}}, true, 9, 1},
		{"e2-{2,4,6,12}", instance{e2TightModel([]int{2, 4, 6, 12}), Options{MaxLen: 12}}, false, 0, 0},
		{"e3-NO", e3([]int{7, 5, 5, 5, 5, 5}, 16), false, 105, 0},
		{"e3-YES", e3([]int{6, 5, 5, 6, 5, 5}, 16), true, 35, 1},
		{"e4-n6", e4(6), true, 8, 1},
		{"e4-n7", e4(7), true, 9, 1},

		// a 3-PARTITION NO instance (B=24, three frames) whose item 11
		// fits no frame
		{"B24-m2", e3([]int{7, 7, 7, 7, 7, 11, 8, 9, 9}, 24), false, 1756, 0},

		// the twelve cold-burst classes decided in milliseconds. The
		// burst's other four, w=3 over {2,4,6,12}, {2,3,9,18},
		// {3,4,4,6} and {2,5,5,10}, search 4.5M–89M nodes each:
		// the candidate budget does not bound the nodes explored
		// between candidates.
		{"burst-w2-{2,3,6}", burst(2, 2, 3, 6), false, 401, 42},
		{"burst-w2-{2,4,4}", burst(2, 2, 4, 4), false, 102, 21},
		{"burst-w2-{3,3,3}", burst(2, 3, 3, 3), false, 51, 16},
		{"burst-w2-{4,4,4,4}", burst(2, 4, 4, 4, 4), false, 318, 106},
		{"burst-w2-{2,4,6,12}", burst(2, 2, 4, 6, 12), false, 31580, 1222},
		{"burst-w2-{2,3,9,18}", burst(2, 2, 3, 9, 18), false, 16339, 241},
		{"burst-w2-{3,4,4,6}", burst(2, 3, 4, 4, 6), false, 6485, 282},
		{"burst-w2-{2,5,5,10}", burst(2, 2, 5, 5, 10), false, 8995, 531},
		{"burst-w3-{2,3,6}", burst(3, 2, 3, 6), false, 20775, 1820},
		{"burst-w3-{2,4,4}", burst(3, 2, 4, 4), false, 2546, 533},
		{"burst-w3-{3,3,3}", burst(3, 3, 3, 3), false, 928, 296},
		{"burst-w3-{4,4,4,4}", burst(3, 4, 4, 4, 4), false, 46491, 15506},
	}
	for _, c := range cases {
		opt := c.in.opt
		opt.Workers = 1
		s, st, err := FindSchedule(c.in.m, opt)
		if err != nil && !errors.Is(err, ErrNotFound) {
			t.Fatalf("%s: %v", c.name, err)
		}
		if (s != nil) != c.feasible {
			t.Fatalf("%s: feasible = %v, want %v", c.name, s != nil, c.feasible)
		}
		switch {
		case st.NodesExplored > c.nodes || st.Candidates > c.candidates:
			t.Errorf("%s: nodes %d, candidates %d exceed the baseline %d, %d",
				c.name, st.NodesExplored, st.Candidates, c.nodes, c.candidates)
		case st.NodesExplored < c.nodes || st.Candidates < c.candidates:
			t.Logf("%s: nodes %d, candidates %d are below the baseline %d, %d; lower it",
				c.name, st.NodesExplored, st.Candidates, c.nodes, c.candidates)
		}
	}
}
