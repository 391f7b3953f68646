package experiments

import (
	"runtime"
	"strings"
	"testing"

	"rtm/internal/core"
)

func TestTableRendering(t *testing.T) {
	tbl := &Table{ID: "T", Title: "demo", Columns: []string{"a", "bb"}}
	tbl.AddRow(1, 2.5)
	tbl.AddRow("xyz", "q")
	tbl.Notes = append(tbl.Notes, "a note")
	out := tbl.String()
	for _, want := range []string{"== T: demo ==", "a    bb", "2.500", "xyz", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table missing %q:\n%s", want, out)
		}
	}
}

func TestE1ExampleFeasibleDefaults(t *testing.T) {
	tbl := E1Example()
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// the default parameterization (row 0) must be feasible end to end
	last := tbl.Rows[0][len(tbl.Rows[0])-1]
	if last != "yes" {
		t.Fatalf("default example infeasible:\n%s", tbl)
	}
}

func TestExampleDemandSharedSavings(t *testing.T) {
	p := core.DefaultExampleParams()
	p.PY = p.PX
	before, after, err := ExampleDemand(p)
	if err != nil {
		t.Fatal(err)
	}
	if after >= before {
		t.Fatalf("merge saved nothing: %d -> %d", before, after)
	}
}

func TestE2Terminates(t *testing.T) {
	tbl := E2ExactSearch()
	if len(tbl.Rows) != 7 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		// columns: n, density, kind, found, len, nodes, candidates, time
		if row[3] != "yes" && row[3] != "no" {
			t.Fatalf("non-terminating row: %v", row)
		}
		if row[2] == "feasible" && row[3] != "yes" {
			t.Fatalf("feasible instance not found: %v", row)
		}
	}
	// at unit density, search — not capacity — decides: row 5
	// ({2,6,6,6}) packs, rows 4 ({2,3,6}) and 6 ({2,4,6,12}) do not
	if tbl.Rows[4][3] != "no" || tbl.Rows[5][3] != "yes" || tbl.Rows[6][3] != "no" {
		t.Fatalf("tight rows unexpected: %v / %v / %v", tbl.Rows[4], tbl.Rows[5], tbl.Rows[6])
	}
}

func TestE3ReductionCorrectness(t *testing.T) {
	tbl := E3ThreePartition()
	for _, row := range tbl.Rows {
		kind, solver, feasible := row[2], row[3], row[4]
		if kind == "YES" && (solver != "yes" || feasible != "yes") {
			t.Fatalf("YES row broken: %v", row)
		}
		if kind == "NO" && (solver != "no" || feasible != "no") {
			t.Fatalf("NO row broken: %v", row)
		}
		if feasible == "yes" && row[5] != "yes" {
			t.Fatalf("feasible schedule did not decode: %v", row)
		}
	}
}

func TestE4ArrangementsRecovered(t *testing.T) {
	tbl := E4CyclicOrdering()
	for _, row := range tbl.Rows {
		if row[2] != "yes" { // instances drawn consistent: solver must succeed
			t.Fatalf("consistent CO instance unsolved: %v", row)
		}
		if row[3] == "yes" && row[4] != "yes" {
			t.Fatalf("core schedule without arrangement: %v", row)
		}
	}
}

func TestE5TheoremHolds(t *testing.T) {
	tbl := E5Theorem3Sweep()
	for _, n := range tbl.Notes {
		if strings.HasPrefix(n, "VIOLATION") {
			t.Fatalf("Theorem 3 violated: %s", n)
		}
	}
	// below the bound: hypotheses-satisfying instances all construct
	for _, row := range tbl.Rows {
		if row[0] == "0.200" || row[0] == "0.350" || row[0] == "0.500" {
			if row[4] != "1.000" {
				t.Fatalf("sub-bound success rate %s at density %s", row[4], row[0])
			}
		}
	}
}

func TestE6PipeliningMonotone(t *testing.T) {
	tbl := E6PipeliningAblation()
	if len(tbl.Rows) != 4 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// latency must be non-increasing in stage count, and the finest
	// decomposition must meet the deadline while the coarsest misses.
	prev := 1 << 30
	for _, row := range tbl.Rows {
		lat := atoiOr(row[2], prev)
		if lat > prev {
			t.Fatalf("latency increased with more stages:\n%s", tbl)
		}
		prev = lat
	}
	if tbl.Rows[0][3] != "no" || tbl.Rows[len(tbl.Rows)-1][3] != "yes" {
		t.Fatalf("pipelining ablation shape wrong:\n%s", tbl)
	}
}

func TestE7RatioFalls(t *testing.T) {
	tbl := E7SharedOperations()
	if len(tbl.Rows) < 3 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	first := tbl.Rows[0][4]
	last := tbl.Rows[len(tbl.Rows)-1][4]
	if first != "1.000" {
		t.Fatalf("no-overlap ratio = %s, want 1.000", first)
	}
	if !(last < first) {
		t.Fatalf("full-overlap ratio %s not below %s", last, first)
	}
}

func TestE8AllFeasible(t *testing.T) {
	tbl := E8Multiprocessor()
	for _, row := range tbl.Rows {
		if !strings.HasPrefix(row[4], "yes") {
			t.Fatalf("processor count %s infeasible: %v", row[0], row)
		}
	}
}

func TestE9CrossoverShape(t *testing.T) {
	tbl := E9BaselineComparison()
	// columns: c_S, process-U, EDF, RM, merged-U, latency-sched, sim-ok
	latWins, baseWins := 0, 0
	for _, row := range tbl.Rows {
		if row[5] == "yes" {
			latWins++
			if row[6] != "yes" {
				t.Fatalf("latency schedule failed simulation: %v", row)
			}
		}
		if row[2] == "yes" || row[3] == "yes" {
			baseWins++
		}
	}
	if latWins <= baseWins {
		t.Fatalf("latency scheduling should strictly dominate:\n%s", tbl)
	}
	// the largest c_S must show the baseline over utilization 1 while
	// the merged model stays under
	last := tbl.Rows[len(tbl.Rows)-1]
	if !(last[1] > "1.0") {
		t.Fatalf("baseline never over-utilized: %v", last)
	}
	if last[5] != "yes" {
		t.Fatalf("graph-based failed where it should win: %v", last)
	}
}

func TestAllRuns(t *testing.T) {
	tables := All()
	if len(tables) != 14 {
		t.Fatalf("tables = %d", len(tables))
	}
	ids := map[string]bool{}
	for _, tbl := range tables {
		if tbl.ID == "" || len(tbl.Rows) == 0 {
			t.Fatalf("empty table %q", tbl.ID)
		}
		if ids[tbl.ID] {
			t.Fatalf("duplicate id %s", tbl.ID)
		}
		ids[tbl.ID] = true
	}
}

// TestSetExactWorkers pins the -workers flag's contract: -1 means all
// CPUs, zero falls back to one worker, positive values pass through.
func TestSetExactWorkers(t *testing.T) {
	defer SetExactWorkers(1)
	for _, tc := range []struct{ in, want int }{
		{-1, runtime.GOMAXPROCS(0)},
		{0, 1},
		{1, 1},
		{3, 3},
	} {
		SetExactWorkers(tc.in)
		if exactWorkers != tc.want {
			t.Fatalf("SetExactWorkers(%d): workers = %d, want %d", tc.in, exactWorkers, tc.want)
		}
	}
}

func atoiOr(s string, def int) int {
	n := 0
	for _, r := range s {
		if r < '0' || r > '9' {
			return def
		}
		n = n*10 + int(r-'0')
	}
	return n
}
