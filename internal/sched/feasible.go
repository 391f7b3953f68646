package sched

import (
	"fmt"
	"strings"

	"rtm/internal/core"
)

// ConstraintReport records how one constraint fares under a schedule.
type ConstraintReport struct {
	Name     string
	Kind     core.Kind
	Deadline int
	// Latency is the worst-case completion span. For asynchronous
	// constraints it is the latency of the schedule (worst over all
	// invocation instants). For periodic constraints it is the worst
	// response time over all invocations in the schedule/period
	// alignment window.
	Latency int
	OK      bool
}

// Report is the outcome of checking one schedule against a model.
type Report struct {
	Feasible    bool
	Constraints []ConstraintReport
}

// String renders a one-line-per-constraint summary.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "feasible=%v\n", r.Feasible)
	for _, c := range r.Constraints {
		lat := fmt.Sprint(c.Latency)
		if c.Latency == Infinite {
			lat = "∞"
		}
		fmt.Fprintf(&b, "  %-12s %-12s latency=%-6s deadline=%-6d ok=%v\n",
			c.Name, c.Kind, lat, c.Deadline, c.OK)
	}
	return b.String()
}

// Check verifies a static schedule against every constraint of the
// model and returns a full report.
//
// Asynchronous constraints (C, p, d): the schedule must have latency
// ≤ d with respect to C — then an invocation at any instant t finds
// an execution of C inside [t, t+d], regardless of the separation p
// (the adversary controls invocation times).
//
// Periodic constraints (C, p, d): invocations occur at t = 0, p, 2p,
// …; each needs an execution of C inside [t, t+d]. The check walks
// all invocation instants in one alignment window of the schedule
// cycle against the period. Invocations are checked independently,
// which is exact when d ≤ p.
func Check(m *core.Model, s *Schedule) *Report {
	a := AnalyzerFor(m, s)
	rep := &Report{Feasible: true}
	if len(m.Constraints) > 0 {
		rep.Constraints = make([]ConstraintReport, 0, len(m.Constraints))
	}
	for _, c := range m.Constraints {
		var worst int
		switch c.Kind {
		case core.Asynchronous:
			worst = a.Latency(c.Task)
		case core.Periodic:
			worst = a.PeriodicWorstResponse(c)
		}
		ok := worst <= c.Deadline
		if !ok {
			rep.Feasible = false
		}
		rep.Constraints = append(rep.Constraints, ConstraintReport{
			Name:     c.Name,
			Kind:     c.Kind,
			Deadline: c.Deadline,
			Latency:  worst,
			OK:       ok,
		})
	}
	return rep
}

// Feasible reports whether the schedule meets every constraint.
func Feasible(m *core.Model, s *Schedule) bool {
	return Check(m, s).Feasible
}

// PeriodicWorstResponse returns the worst completion span over all
// invocations t = 0, p, 2p, … of a periodic constraint, scanning one
// full alignment window of cycle length, parsing alignment and
// period.
func (a *Analyzer) PeriodicWorstResponse(c *core.Constraint) int {
	n := a.sched.Len()
	if n == 0 {
		return Infinite
	}
	// The trace's execution structure repeats every M = n*align
	// slots, so ect(t+M) = ect(t)+M and only t mod M matters. The
	// invocation instants {kp mod M} are exactly the multiples of
	// gcd(p, M), so scanning those inside [0, M) covers every
	// invocation without leaving the analyzer's horizon.
	task, ok := a.flatten(c.Task)
	if !ok {
		return Infinite
	}
	m := n * a.align
	step := gcd(c.Period, m)
	worst := 0
	for t := 0; t < m; t += step {
		f := a.earliestCompletion(task, t)
		if f == Infinite {
			return Infinite
		}
		if f-t > worst {
			worst = f - t
		}
	}
	return worst
}
