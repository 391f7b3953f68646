package rtm

// One benchmark per experiment of DESIGN.md's per-experiment index
// (E1–E9). Each benchmark regenerates the corresponding table of
// EXPERIMENTS.md; the table-shape assertions live in
// internal/experiments' tests, so the benchmarks focus on cost.
// Sub-benchmarks expose the scaling parameter (instance size,
// overlap, stage count) so `go test -bench=.` prints the series the
// paper's claims predict — most prominently the exponential growth of
// exact feasibility testing (Theorem 2).

import (
	"fmt"
	"math/rand"
	"testing"

	"rtm/internal/core"
	"rtm/internal/exact"
	"rtm/internal/experiments"
	"rtm/internal/heuristic"
	"rtm/internal/nphard"
	"rtm/internal/pipeline"
	"rtm/internal/process"
	"rtm/internal/sched"
	"rtm/internal/sim"
	"rtm/internal/workload"
)

// BenchmarkE1ExampleSynthesis regenerates E1: heuristic synthesis and
// verification of the paper's example system.
func BenchmarkE1ExampleSynthesis(b *testing.B) {
	m := core.ExampleSystem(core.DefaultExampleParams())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := heuristic.Schedule(m, heuristic.Options{MergeShared: true})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Report.Feasible {
			b.Fatal("infeasible")
		}
	}
}

// BenchmarkE1ExampleSimulation prices the closed loop: VM run plus
// adversarial invocation checking.
func BenchmarkE1ExampleSimulation(b *testing.B) {
	m := core.ExampleSystem(core.DefaultExampleParams())
	res, err := heuristic.Schedule(m, heuristic.Options{MergeShared: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := sim.Run(m, res.Schedule, sim.Options{Adversarial: true})
		if !r.AllMet {
			b.Fatal("misses")
		}
	}
}

// BenchmarkE2ExactSearch regenerates E2: exact search cost versus
// constraint count (exponential growth is the expected shape).
func BenchmarkE2ExactSearch(b *testing.B) {
	for _, n := range []int{2, 3, 4, 5} {
		b.Run(fmt.Sprintf("constraints=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(21))
			m := workload.AsyncOnly(rng, n, 0.7)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, _, err := exact.FindSchedule(m, exact.Options{MaxLen: 8})
				if err != nil && err != exact.ErrNotFound {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE3ThreePartition regenerates E3: encoded 3-PARTITION
// feasibility via exhaustive search, by m.
func BenchmarkE3ThreePartition(b *testing.B) {
	cases := []nphard.ThreePartition{
		{Sizes: []int{3, 2, 2}, B: 7},
		{Sizes: []int{6, 5, 5, 6, 5, 5}, B: 16},
		{Sizes: []int{3, 2, 2, 3, 2, 2, 3, 2, 2}, B: 7},
	}
	for _, tp := range cases {
		b.Run(fmt.Sprintf("m=%d_B=%d", tp.M(), tp.B), func(b *testing.B) {
			model, err := nphard.EncodeThreePartition(tp)
			if err != nil {
				b.Fatal(err)
			}
			n := tp.M() * (tp.B + 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, _, err := exact.FindSchedule(model, exact.Options{
					MinLen: n, MaxLen: n, RequireContiguous: true,
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE4CyclicOrdering regenerates E4: factorial growth of the
// cyclic-ordering solver.
func BenchmarkE4CyclicOrdering(b *testing.B) {
	for _, n := range []int{5, 6, 7, 8} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(int64(n)))
			// consistent instance from a hidden arrangement
			perm := rng.Perm(n)
			pos := make([]int, n)
			for i, v := range perm {
				pos[v] = i
			}
			co := nphard.CyclicOrdering{N: n}
			for len(co.Triples) < n {
				x, y, z := rng.Intn(n), rng.Intn(n), rng.Intn(n)
				if x == y || y == z || x == z {
					continue
				}
				pb := (pos[y] - pos[x] + n) % n
				pc := (pos[z] - pos[x] + n) % n
				if pb < pc {
					co.Triples = append(co.Triples, [3]int{x, y, z})
				} else {
					co.Triples = append(co.Triples, [3]int{x, z, y})
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, ok := co.Solve(); !ok {
					b.Fatal("consistent instance unsolved")
				}
			}
		})
	}
}

// BenchmarkE5Theorem3Sweep regenerates E5: cost of the constructive
// Theorem 3 scheduler on hypothesis-satisfying instances.
func BenchmarkE5Theorem3Sweep(b *testing.B) {
	rng := rand.New(rand.NewSource(55))
	var models []*core.Model
	for len(models) < 8 {
		if m := workload.Theorem3Instance(rng, 4, 0.5); m != nil {
			models = append(models, m)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := models[i%len(models)]
		if _, err := heuristic.Theorem3Schedule(m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE6PipeliningAblation regenerates E6: latency computation
// across pipeline stage counts.
func BenchmarkE6PipeliningAblation(b *testing.B) {
	for _, k := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("stages=%d", k), func(b *testing.B) {
			m := core.NewModel()
			m.Comm.AddElement("heavy", 8)
			m.Comm.AddElement("light", 1)
			m.AddConstraint(&core.Constraint{
				Name: "H", Task: core.ChainTask("heavy"),
				Period: 40, Deadline: 40, Kind: core.Asynchronous,
			})
			m.AddConstraint(&core.Constraint{
				Name: "L", Task: core.ChainTask("light"),
				Period: 4, Deadline: 4, Kind: core.Asynchronous,
			})
			pm, err := pipeline.Decompose(m, "heavy", k)
			if err != nil {
				b.Fatal(err)
			}
			res, err := heuristic.Schedule(pm, heuristic.Options{})
			if err != nil {
				b.Fatal(err)
			}
			task := pm.ConstraintByName("L").Task
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if sched.Latency(pm.Comm, res.Schedule, task) > 4 {
					b.Fatal("light op missed")
				}
			}
		})
	}
}

// BenchmarkE7SharedOperations regenerates E7: merge analysis across
// overlap degrees.
func BenchmarkE7SharedOperations(b *testing.B) {
	for _, overlap := range []int{0, 3, 6} {
		b.Run(fmt.Sprintf("overlap=%d", overlap), func(b *testing.B) {
			m, err := workload.SharedPair(6, overlap, 64)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := core.MergePeriodic(m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE8Multiprocessor regenerates E8: partition + per-processor
// synthesis + bus scheduling.
func BenchmarkE8Multiprocessor(b *testing.B) {
	p := core.DefaultExampleParams()
	p.PX, p.PY, p.DZ = 40, 80, 60
	m := core.ExampleSystem(p)
	for _, k := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("procs=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := DeployMultiprocessor(m, k); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE9BaselineComparison regenerates E9: process-based
// analyses versus latency scheduling on the shared-f_S system.
func BenchmarkE9BaselineComparison(b *testing.B) {
	p := core.ExampleParams{CX: 2, CY: 3, CZ: 1, CS: 6, CK: 2, PX: 20, PY: 20, DZ: 80, PZ: 100}
	m := core.ExampleSystem(p)
	b.Run("process-analysis", func(b *testing.B) {
		ts, err := process.FromModel(m)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			process.EDFDemandTest(ts)
			process.RMSchedulable(ts)
		}
	})
	b.Run("latency-scheduling", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := heuristic.Schedule(m, heuristic.Options{MergeShared: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAllExperimentTables prices regenerating the whole
// EXPERIMENTS.md table set (what cmd/rtbench does).
func BenchmarkAllExperimentTables(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tables := experiments.All(); len(tables) != 14 {
			b.Fatal("table count")
		}
	}
}

// BenchmarkE10Kernelized regenerates E10: kernelized-monitor analysis
// plus simulation across section bounds.
func BenchmarkE10Kernelized(b *testing.B) {
	ts := process.TaskSet{
		{Name: "tight", C: 1, T: 8, D: 3},
		{Name: "shared", C: 3, T: 12, D: 12, CriticalSections: []int{2}},
		{Name: "bulk", C: 4, T: 24, D: 24, CriticalSections: []int{2}},
	}
	for _, q := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("q=%d", q), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				process.KernelizedEDFTest(ts, q)
				process.SimulateKernelized(ts, q, 0)
			}
		})
	}
}

// BenchmarkE11FaultTolerance regenerates E11: value interpretation
// with relations, injection and TMR masking.
func BenchmarkE11FaultTolerance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := experiments.E11FaultTolerance()
		if len(tbl.Rows) != 2 {
			b.Fatal("rows")
		}
	}
}

// BenchmarkE12HardwareSynthesis regenerates E12: netlist compilation
// plus cycle-accurate settling measurement.
func BenchmarkE12HardwareSynthesis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := experiments.E12HardwareSynthesis()
		if len(tbl.Rows) != 3 {
			b.Fatal("rows")
		}
	}
}

// BenchmarkE13Distributed regenerates E13: decomposition, distributed
// execution and end-to-end invocation checking.
func BenchmarkE13Distributed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := experiments.E13Distributed()
		if len(tbl.Rows) != 3 {
			b.Fatal("rows")
		}
	}
}

// BenchmarkE14Modes regenerates E14: per-mode compilation plus
// mode-change latency measurement.
func BenchmarkE14Modes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbl := experiments.E14Modes()
		if len(tbl.Rows) != 2 {
			b.Fatal("rows")
		}
	}
}
