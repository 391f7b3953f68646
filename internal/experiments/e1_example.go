package experiments

import (
	"fmt"

	"rtm/internal/core"
	"rtm/internal/heuristic"
	"rtm/internal/sim"
)

// E1Example reproduces the paper's Figures 1–2 end to end: the
// example control system is synthesized at its default parameters and
// at a parameter sweep; for each point the table reports the heuristic
// schedule's cycle, utilization, per-constraint worst latency vs
// deadline, and the closed-loop simulation outcome under adversarial
// asynchronous arrivals.
func E1Example() *Table {
	t := &Table{
		ID:    "E1",
		Title: "Figure 1/2 example control system, synthesized and simulated",
		Columns: []string{
			"p_x", "p_y", "d_z", "cycle", "util",
			"lat(X)/d", "lat(Y)/d", "lat(Z)/d", "sim-misses", "sim-stale", "feasible",
		},
	}
	sweep := []core.ExampleParams{
		core.DefaultExampleParams(),
		{CX: 2, CY: 3, CZ: 1, CS: 4, CK: 2, PX: 20, PY: 20, DZ: 30, PZ: 100},
		{CX: 2, CY: 3, CZ: 1, CS: 4, CK: 2, PX: 25, PY: 50, DZ: 40, PZ: 100},
		{CX: 1, CY: 1, CZ: 1, CS: 2, CK: 1, PX: 10, PY: 20, DZ: 15, PZ: 50},
	}
	for _, p := range sweep {
		m := core.ExampleSystem(p)
		res, err := heuristic.Schedule(m, heuristic.Options{MergeShared: true})
		if err != nil {
			t.AddRow(p.PX, p.PY, p.DZ, "-", "-", "-", "-", "-", "-", "-", "no")
			continue
		}
		lat := map[string]string{}
		for _, cr := range res.Report.Constraints {
			lat[cr.Name] = fmt.Sprintf("%d/%d", cr.Latency, cr.Deadline)
		}
		run := sim.Run(m, res.Schedule, sim.Options{Adversarial: true})
		t.AddRow(p.PX, p.PY, p.DZ, res.Schedule.Len(),
			res.Schedule.Utilization(),
			lat["X"], lat["Y"], lat["Z"],
			run.MissCount, run.StaleCount, yesNo(res.Report.Feasible && run.AllMet))
	}
	t.Notes = append(t.Notes,
		"latency/deadline per constraint; sim drives adversarial async arrivals through the VM")
	return t
}

// ExampleDemand compares per-hyperperiod processor demand of the
// graph-based (merged) implementation against the process-based one
// for the p_x = p_y case the paper calls out ("there is no reason why
// f_S should be executed twice per period"). Used by E1's companion
// rows and tested directly.
func ExampleDemand(p core.ExampleParams) (processBased, graphBased int, err error) {
	m := core.ExampleSystem(p)
	_, rep, err := core.MergePeriodic(m)
	if err != nil {
		return 0, 0, err
	}
	return rep.DemandBefore, rep.DemandAfter, nil
}

func yesNo(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}
