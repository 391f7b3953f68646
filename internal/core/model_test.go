package core

import (
	"strings"
	"testing"
)

func TestCommGraphValidate(t *testing.T) {
	c := NewCommGraph()
	c.AddElement("a", 2)
	c.AddPath("a", "b") // b gets weight 0
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	c.Weight["a"] = -1
	if err := c.Validate(); err == nil {
		t.Fatal("negative weight accepted")
	}
	c.Weight["a"] = 2
	c.Weight["ghost"] = 1
	if err := c.Validate(); err == nil {
		t.Fatal("dangling weight entry accepted")
	}
}

func TestCommGraphClone(t *testing.T) {
	c := NewCommGraph()
	c.AddElement("a", 2)
	c.AddPath("a", "b")
	d := c.Clone()
	d.AddElement("c", 5)
	d.Weight["a"] = 99
	if c.G.HasNode("c") || c.WeightOf("a") != 2 {
		t.Fatal("clone mutation leaked")
	}
}

func TestChainTask(t *testing.T) {
	task := ChainTask("fx", "fs", "fk")
	if got := task.G.NumNodes(); got != 3 {
		t.Fatalf("nodes = %d, want 3", got)
	}
	if !task.G.HasEdge("fx", "fs") || !task.G.HasEdge("fs", "fk") {
		t.Fatal("chain edges missing")
	}
	if task.ElementOf("fs") != "fs" {
		t.Fatal("identity mapping broken")
	}
}

func TestComputationTime(t *testing.T) {
	c := NewCommGraph()
	c.AddElement("a", 2)
	c.AddElement("b", 3)
	c.AddPath("a", "b")
	task := ChainTask("a", "b")
	if got := task.ComputationTime(c); got != 5 {
		t.Fatalf("ComputationTime = %d, want 5", got)
	}
}

func TestTaskValidateCompatibility(t *testing.T) {
	c := NewCommGraph()
	c.AddElement("a", 1)
	c.AddElement("b", 1)
	c.AddPath("a", "b")
	good := ChainTask("a", "b")
	if err := good.Validate(c); err != nil {
		t.Fatal(err)
	}
	bad := ChainTask("b", "a") // b->a is not a communication path
	if err := bad.Validate(c); err == nil {
		t.Fatal("incompatible task graph accepted")
	}
	cyc := NewTaskGraph()
	cyc.AddStep("a", "a")
	cyc.AddStep("b", "b")
	cyc.AddPrec("a", "b")
	cyc.AddPrec("b", "a")
	if err := cyc.Validate(c); err == nil {
		t.Fatal("cyclic task graph accepted")
	}
}

func TestTaskGraphRepeatedElement(t *testing.T) {
	c := NewCommGraph()
	c.AddElement("f", 1)
	c.AddPath("f", "f") // self-loop path permits f -> f transmission
	task := NewTaskGraph()
	task.AddStep("f1", "f")
	task.AddStep("f2", "f")
	task.AddPrec("f1", "f2")
	if err := task.Validate(c); err != nil {
		t.Fatal(err)
	}
	if got := task.ComputationTime(c); got != 2 {
		t.Fatalf("ComputationTime = %d, want 2", got)
	}
	if singleExec(task) {
		t.Fatal("singleExec true for repeated element")
	}
}

func TestModelValidate(t *testing.T) {
	m := ExampleSystem(DefaultExampleParams())
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestModelValidateRejects(t *testing.T) {
	base := func() *Model { return ExampleSystem(DefaultExampleParams()) }

	m := base()
	m.Constraints[0].Period = 0
	if err := m.Validate(); err == nil {
		t.Fatal("zero period accepted")
	}

	m = base()
	m.Constraints[0].Deadline = 0
	if err := m.Validate(); err == nil {
		t.Fatal("zero deadline accepted")
	}

	m = base()
	m.Constraints[1].Name = m.Constraints[0].Name
	if err := m.Validate(); err == nil {
		t.Fatal("duplicate names accepted")
	}

	m = base()
	m.Constraints[0].Deadline = 1 // computation time is 8
	if err := m.Validate(); err == nil {
		t.Fatal("deadline below computation time accepted")
	}

	m = base()
	m.Constraints[0].Task = NewTaskGraph()
	if err := m.Validate(); err == nil {
		t.Fatal("empty task graph accepted")
	}

	m = base()
	m.Constraints[0].Name = ""
	if err := m.Validate(); err == nil {
		t.Fatal("empty name accepted")
	}
}

func TestExampleStructure(t *testing.T) {
	m := ExampleSystem(DefaultExampleParams())
	if len(m.Periodic()) != 2 || len(m.Asynchronous()) != 1 {
		t.Fatalf("kinds: periodic=%d async=%d", len(m.Periodic()), len(m.Asynchronous()))
	}
	z := m.ConstraintByName("Z")
	if z == nil || z.Kind != Asynchronous {
		t.Fatal("Z constraint missing or wrong kind")
	}
	if m.ConstraintByName("nope") != nil {
		t.Fatal("unknown name returned a constraint")
	}
	// f_S and f_K are shared; feedback edge fK->fS must exist.
	shared := m.SharedElements()
	if len(shared) != 2 || shared[0] != "fK" || shared[1] != "fS" {
		t.Fatalf("SharedElements = %v, want [fK fS]", shared)
	}
	if !m.Comm.G.HasEdge("fK", "fS") {
		t.Fatal("feedback path missing")
	}
	used := m.ElementsUsed()
	if len(used) != 5 {
		t.Fatalf("ElementsUsed = %v", used)
	}
}

func TestUtilizationAndDensity(t *testing.T) {
	p := DefaultExampleParams()
	m := ExampleSystem(p)
	// X: (2+4+2)/20, Y: (3+4+2)/40, Z: (1+4)/100
	wantU := 8.0/20 + 9.0/40 + 5.0/100
	if got := m.Utilization(); !close(got, wantU) {
		t.Fatalf("Utilization = %v, want %v", got, wantU)
	}
	wantD := 8.0/20 + 9.0/40 + 5.0/30
	if got := m.DeadlineDensity(); !close(got, wantD) {
		t.Fatalf("DeadlineDensity = %v, want %v", got, wantD)
	}
}

func close(a, b float64) bool {
	d := a - b
	return d < 1e-9 && d > -1e-9
}

func TestHyperperiod(t *testing.T) {
	m := ExampleSystem(DefaultExampleParams())
	if h := m.Hyperperiod(); h != 200 { // lcm(20,40,100)
		t.Fatalf("Hyperperiod = %d, want 200", h)
	}
	if h := NewModel().Hyperperiod(); h != 1 {
		t.Fatalf("empty hyperperiod = %d, want 1", h)
	}
}

func TestCloneDeep(t *testing.T) {
	m := ExampleSystem(DefaultExampleParams())
	n := m.Clone()
	n.Constraints[0].Period = 999
	n.Comm.AddElement("extra", 1)
	if m.Constraints[0].Period == 999 || m.Comm.G.HasNode("extra") {
		t.Fatal("clone mutation leaked")
	}
}

func TestMergePeriodicEqualPeriods(t *testing.T) {
	p := DefaultExampleParams()
	p.PY = p.PX // make the periods equal: fS, fK become mergeable
	m := ExampleSystem(p)
	merged, rep, err := MergePeriodic(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := merged.Validate(); err != nil {
		t.Fatalf("merged model invalid: %v", err)
	}
	// X and Y merge into one constraint; Z passes through.
	if len(merged.Constraints) != 2 {
		t.Fatalf("constraints after merge = %d, want 2", len(merged.Constraints))
	}
	xy := merged.ConstraintByName("X+Y")
	if xy == nil {
		t.Fatalf("merged constraint not found: %+v", merged.Constraints)
	}
	// merged task: fX, fY, fS, fK (fS and fK shared) = 2+3+4+2 = 11
	if got := xy.ComputationTime(merged.Comm); got != 11 {
		t.Fatalf("merged computation time = %d, want 11", got)
	}
	if rep.SharedOpsSave <= 0 {
		t.Fatalf("expected positive savings, got %d", rep.SharedOpsSave)
	}
	// per hyperperiod (lcm(20,100)=100): before X=8*5 + Y=9*5 + Z=5*1 = 90
	// after XY=11*5 + Z=5 = 60 -> save 30
	if rep.DemandBefore != 90 || rep.DemandAfter != 60 {
		t.Fatalf("demand before/after = %d/%d, want 90/60", rep.DemandBefore, rep.DemandAfter)
	}
}

func TestMergePeriodicDistinctPeriodsNoop(t *testing.T) {
	m := ExampleSystem(DefaultExampleParams()) // p_x=20 != p_y=40
	merged, rep, err := MergePeriodic(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.Constraints) != 3 {
		t.Fatalf("constraints = %d, want 3", len(merged.Constraints))
	}
	if rep.SharedOpsSave != 0 {
		t.Fatalf("savings = %d, want 0", rep.SharedOpsSave)
	}
}

func TestMergeDeadlineIsMin(t *testing.T) {
	m := NewModel()
	m.Comm.AddElement("a", 1)
	m.Comm.AddElement("b", 1)
	m.Comm.AddPath("a", "b")
	m.AddConstraint(&Constraint{Name: "c1", Task: ChainTask("a", "b"), Period: 10, Deadline: 10, Kind: Periodic})
	m.AddConstraint(&Constraint{Name: "c2", Task: ChainTask("a"), Period: 10, Deadline: 4, Kind: Periodic})
	merged, _, err := MergePeriodic(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.Constraints) != 1 {
		t.Fatalf("constraints = %d, want 1", len(merged.Constraints))
	}
	if merged.Constraints[0].Deadline != 4 {
		t.Fatalf("merged deadline = %d, want 4", merged.Constraints[0].Deadline)
	}
	if !strings.Contains(merged.Constraints[0].Name, "c1") {
		t.Fatalf("merged name = %q", merged.Constraints[0].Name)
	}
}

func TestMergeLeavesAsyncAlone(t *testing.T) {
	m := NewModel()
	m.Comm.AddElement("a", 1)
	m.AddConstraint(&Constraint{Name: "a1", Task: ChainTask("a"), Period: 10, Deadline: 5, Kind: Asynchronous})
	m.AddConstraint(&Constraint{Name: "a2", Task: ChainTask("a"), Period: 10, Deadline: 5, Kind: Asynchronous})
	merged, _, err := MergePeriodic(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.Constraints) != 2 {
		t.Fatalf("async constraints were merged: %d", len(merged.Constraints))
	}
}

func TestKindString(t *testing.T) {
	if Periodic.String() != "periodic" || Asynchronous.String() != "asynchronous" {
		t.Fatal("Kind.String wrong")
	}
	if Kind(9).String() == "" {
		t.Fatal("unknown kind empty")
	}
}

func TestLcmGcd(t *testing.T) {
	if lcm(4, 6) != 12 || lcm(7, 7) != 7 || lcm(1, 9) != 9 {
		t.Fatal("lcm wrong")
	}
	if gcd(12, 18) != 6 {
		t.Fatal("gcd wrong")
	}
}

// TestValidateAllocFree pins the served path's validation cost: a
// request's model is validated twice (in spec.Parse and again in the
// service), so a valid model must pass Model.Validate, and each task
// graph TaskGraph.Validate, without allocating.
func TestValidateAllocFree(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation changes allocation counts")
	}
	m := ExampleSystem(DefaultExampleParams())
	if n := testing.AllocsPerRun(100, func() {
		if err := m.Validate(); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("Model.Validate: %.0f allocs, want 0", n)
	}
	for _, c := range m.Constraints {
		if n := testing.AllocsPerRun(100, func() {
			if err := c.Task.Validate(m.Comm); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("constraint %s: TaskGraph.Validate: %.0f allocs, want 0", c.Name, n)
		}
	}
}
