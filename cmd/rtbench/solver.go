package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"rtm/internal/core"
	"rtm/internal/exact"
	"rtm/internal/nphard"
)

// This file implements -solver: the exact-search pruner suite. Each
// refutation-heavy row from E2/E3/E4 is solved twice — pruners off
// (the seed engine) and pruners on (the PR-5 default) — and the node
// counts, per-pruner cut tallies and wall time land in
// DIR/BENCH_exact_prune.json. A Workers=4 row additionally runs the
// heaviest refutation over the shared striped transposition table.

// solverRow is one (instance, configuration) measurement.
type solverRow struct {
	Name             string `json:"name"`
	Pruners          string `json:"pruners"` // "on" | "off"
	Workers          int    `json:"workers"`
	Feasible         bool   `json:"feasible"`
	NodesExplored    int    `json:"nodes_explored"`
	Candidates       int    `json:"candidates"`
	PrunedBySymmetry int    `json:"pruned_by_symmetry"`
	PrunedByMemo     int    `json:"pruned_by_memo"`
	PrunedByBound    int    `json:"pruned_by_bound"`
	NsElapsed        int64  `json:"ns"`
}

// solverSuite is the BENCH_exact_prune.json document.
type solverSuite struct {
	Suite      string      `json:"suite"`
	GoMaxProcs int         `json:"gomaxprocs"`
	GoVersion  string      `json:"go_version"`
	Rows       []solverRow `json:"rows"`
}

// solverInstance is one named instance with its search options.
type solverInstance struct {
	name string
	m    *core.Model
	opt  exact.Options
}

func solverInstances() ([]solverInstance, error) {
	var out []solverInstance

	// E2 tight rows: unit density, feasibility decided purely by
	// window combinatorics
	for _, h := range []struct {
		ds     []int
		maxLen int
	}{
		{[]int{2, 3, 6}, 6},
		{[]int{2, 6, 6, 6}, 6},
		{[]int{2, 4, 6, 12}, 12},
	} {
		m := core.NewModel()
		for i, d := range h.ds {
			name := fmt.Sprintf("u%d", i)
			m.Comm.AddElement(name, 1)
			m.AddConstraint(&core.Constraint{
				Name: "c" + name, Task: core.ChainTask(name),
				Period: d, Deadline: d, Kind: core.Asynchronous,
			})
		}
		out = append(out, solverInstance{
			name: fmt.Sprintf("e2-tight-%v", h.ds),
			m:    m,
			opt:  exact.Options{MaxLen: h.maxLen},
		})
	}

	// E3 rows: the 3-PARTITION reduction, NO and YES at m=2
	for _, c := range []struct {
		kind  string
		sizes []int
		b     int
	}{
		{"NO", []int{7, 5, 5, 5, 5, 5}, 16},
		{"YES", []int{6, 5, 5, 6, 5, 5}, 16},
	} {
		tp := nphard.ThreePartition{Sizes: c.sizes, B: c.b}
		m, err := nphard.EncodeThreePartition(tp)
		if err != nil {
			return nil, err
		}
		n := tp.M() * (c.b + 1)
		out = append(out, solverInstance{
			name: "e3-" + c.kind,
			m:    m,
			opt: exact.Options{
				MinLen: n, MaxLen: n, RequireContiguous: true, MaxCandidates: 5_000_000,
			},
		})
	}

	// E4 rows: the CYCLIC ORDERING core encoding (factorial family)
	for _, n := range []int{6, 7} {
		m, err := nphard.EncodeCyclicCore(n, 1)
		if err != nil {
			return nil, err
		}
		cycle := n + 1
		out = append(out, solverInstance{
			name: fmt.Sprintf("e4-n%d", n),
			m:    m,
			opt:  exact.Options{MinLen: cycle, MaxLen: cycle, RequireContiguous: true},
		})
	}
	return out, nil
}

func solveRow(inst solverInstance, opt exact.Options, pruners string) (solverRow, error) {
	start := time.Now()
	s, st, err := exact.FindSchedule(inst.m, opt)
	elapsed := time.Since(start)
	if err != nil && err != exact.ErrNotFound {
		return solverRow{}, fmt.Errorf("%s (%s): %w", inst.name, pruners, err)
	}
	workers := opt.Workers
	if workers == 0 {
		workers = 1
	}
	return solverRow{
		Name:             inst.name,
		Pruners:          pruners,
		Workers:          workers,
		Feasible:         s != nil,
		NodesExplored:    st.NodesExplored,
		Candidates:       st.Candidates,
		PrunedBySymmetry: st.PrunedBySymmetry,
		PrunedByMemo:     st.PrunedByMemo,
		PrunedByBound:    st.PrunedByBound,
		NsElapsed:        elapsed.Nanoseconds(),
	}, nil
}

func writeSolverJSON(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	instances, err := solverInstances()
	if err != nil {
		return err
	}
	var rows []solverRow
	for _, inst := range instances {
		off := inst.opt
		off.DisableSymmetry, off.DisableMemo, off.DisableBounds = true, true, true
		rowOff, err := solveRow(inst, off, "off")
		if err != nil {
			return err
		}
		rowOn, err := solveRow(inst, inst.opt, "on")
		if err != nil {
			return err
		}
		if rowOff.Feasible != rowOn.Feasible {
			return fmt.Errorf("%s: verdict diverged between pruner configurations", inst.name)
		}
		rows = append(rows, rowOff, rowOn)
	}
	// the shared transposition table under a parallel search, on the
	// heaviest refutation row
	for _, inst := range instances {
		if inst.name != "e3-NO" {
			continue
		}
		opt := inst.opt
		opt.Workers = 4
		row, err := solveRow(inst, opt, "on")
		if err != nil {
			return err
		}
		rows = append(rows, row)
	}
	doc := solverSuite{
		Suite:      "exact_prune",
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Rows:       rows,
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "BENCH_exact_prune.json")
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d rows)\n", path, len(rows))
	return nil
}
