package spec

import (
	"strings"
	"testing"

	"rtm/internal/core"
)

const exampleSpec = `
# the paper's Figure 1/2 control system
system control
element fX weight 2
element fY weight 3
element fZ weight 1
element fS weight 4
element fK weight 2
path fX -> fS
path fY -> fS
path fZ -> fS
path fS -> fK
path fK -> fS

periodic X period 20 deadline 20 { fX -> fS -> fK }
periodic Y period 40 deadline 40 { fY -> fS -> fK }
sporadic Z separation 100 deadline 30 { fZ -> fS }
`

func TestParseExample(t *testing.T) {
	sp, err := Parse(exampleSpec)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Name != "control" {
		t.Fatalf("name = %q", sp.Name)
	}
	m := sp.Model
	if len(m.Constraints) != 3 {
		t.Fatalf("constraints = %d", len(m.Constraints))
	}
	// must be structurally identical to the programmatic example
	ref := core.ExampleSystem(core.DefaultExampleParams())
	if !m.Comm.G.Equal(ref.Comm.G) {
		t.Fatalf("communication graph differs:\n%s\nvs\n%s", m.Comm.G, ref.Comm.G)
	}
	for _, name := range []string{"X", "Y", "Z"} {
		a, b := m.ConstraintByName(name), ref.ConstraintByName(name)
		if a == nil {
			t.Fatalf("constraint %s missing", name)
		}
		if a.Period != b.Period || a.Deadline != b.Deadline || a.Kind != b.Kind {
			t.Fatalf("%s: %+v vs %+v", name, a, b)
		}
		if !a.Task.G.Equal(b.Task.G) {
			t.Fatalf("%s task graph differs", name)
		}
	}
}

func TestParseMultilineBody(t *testing.T) {
	text := `
element a weight 1
element b weight 1
path a -> b
periodic P period 5 deadline 5 {
  a -> b
}
`
	sp, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	c := sp.Model.ConstraintByName("P")
	if c == nil || c.Task.G.NumNodes() != 2 {
		t.Fatalf("constraint = %+v", c)
	}
}

func TestParseNodeColonElem(t *testing.T) {
	text := `
element f weight 1
path f -> f
periodic P period 9 deadline 9 { first:f -> second:f }
`
	sp, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	task := sp.Model.ConstraintByName("P").Task
	if task.G.NumNodes() != 2 {
		t.Fatalf("nodes = %v", task.Nodes())
	}
	if task.ElementOf("first") != "f" || task.ElementOf("second") != "f" {
		t.Fatal("elem mapping wrong")
	}
}

func TestParseBranchingTask(t *testing.T) {
	text := `
element s weight 1
element l weight 1
element r weight 1
element t weight 1
path s -> l
path s -> r
path l -> t
path r -> t
periodic P period 9 deadline 9 { s -> l -> t; s -> r -> t }
`
	sp, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	g := sp.Model.ConstraintByName("P").Task.G
	if g.NumNodes() != 4 || g.NumEdges() != 4 {
		t.Fatalf("task graph = %s", g)
	}
}

// parseErrorCases are inputs Parse must reject; the differential
// oracle also runs over them.
var parseErrorCases = []struct {
	name, text string
}{
	{"unknown directive", "frobnicate"},
	{"bad element", "element x"},
	{"bad weight", "element x weight two"},
	{"negative weight", "element x weight -1"},
	{"path unknown elem", "path a -> b"},
	{"bad path arrow", "element a weight 1\nelement b weight 1\npath a to b"},
	{"missing brace", "element a weight 1\nperiodic P period 5 deadline 5 a"},
	{"unclosed body", "element a weight 1\nperiodic P period 5 deadline 5 { a"},
	{"bad period", "element a weight 1\nperiodic P period x deadline 5 { a }"},
	{"bad deadline", "element a weight 1\nperiodic P period 5 deadline y { a }"},
	{"empty body", "element a weight 1\nperiodic P period 5 deadline 5 { }"},
	{"empty step", "element a weight 1\nperiodic P period 5 deadline 5 { a -> }"},
	{"bad colon step", "element a weight 1\nperiodic P period 5 deadline 5 { :a }"},
	{"invalid model", "element a weight 9\nperiodic P period 5 deadline 5 { a }"},
	{"sporadic keyword", "element a weight 1\nsporadic S period 5 deadline 5 { a }"},
}

func TestParseErrors(t *testing.T) {
	for _, c := range parseErrorCases {
		if _, err := Parse(c.text); err == nil {
			t.Errorf("%s: error expected", c.name)
		}
	}
}

func TestParseErrorLineNumbers(t *testing.T) {
	_, err := Parse("element a weight 1\nbogus line here")
	pe, ok := err.(*ParseError)
	if !ok {
		t.Fatalf("err = %T %v", err, err)
	}
	if pe.Line != 2 {
		t.Fatalf("line = %d, want 2", pe.Line)
	}
	if !strings.Contains(pe.Error(), "line 2") {
		t.Fatalf("Error() = %s", pe.Error())
	}
}

func TestPrintParseRoundTrip(t *testing.T) {
	ref := core.ExampleSystem(core.DefaultExampleParams())
	text := Print("control", ref)
	sp, err := Parse(text)
	if err != nil {
		t.Fatalf("round trip parse failed: %v\n%s", err, text)
	}
	if !sp.Model.Comm.G.Equal(ref.Comm.G) {
		t.Fatal("round trip lost communication graph")
	}
	if len(sp.Model.Constraints) != len(ref.Constraints) {
		t.Fatal("round trip lost constraints")
	}
	for _, rc := range ref.Constraints {
		pc := sp.Model.ConstraintByName(rc.Name)
		if pc == nil || !pc.Task.G.Equal(rc.Task.G) ||
			pc.Period != rc.Period || pc.Deadline != rc.Deadline || pc.Kind != rc.Kind {
			t.Fatalf("round trip changed constraint %s", rc.Name)
		}
	}
	// second round trip is a fixed point
	if Print("control", sp.Model) != text {
		t.Fatal("print not idempotent after one round trip")
	}
}

func TestPrintIsolatedStep(t *testing.T) {
	m := core.NewModel()
	m.Comm.AddElement("solo", 1)
	m.AddConstraint(&core.Constraint{
		Name: "S", Task: core.ChainTask("solo"),
		Period: 4, Deadline: 4, Kind: core.Periodic,
	})
	text := Print("", m)
	if !strings.Contains(text, "{ solo }") {
		t.Fatalf("isolated step rendering:\n%s", text)
	}
	if _, err := Parse(text); err != nil {
		t.Fatal(err)
	}
}

func TestCommentsAndBlankLines(t *testing.T) {
	text := "# leading comment\n\nelement a weight 1 # trailing\n\nperiodic P period 3 deadline 3 { a } # done\n"
	if _, err := Parse(text); err != nil {
		t.Fatal(err)
	}
}

func TestPipelineDirective(t *testing.T) {
	text := `
element big weight 4
element out weight 1
path big -> out
periodic P period 20 deadline 20 { big -> out }
pipeline big stages 2
`
	sp, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Model.Comm.G.HasNode("big") {
		t.Fatal("pipeline directive not applied")
	}
	if !sp.Model.Comm.G.HasNode("big#0") || sp.Model.Comm.WeightOf("big#0") != 2 {
		t.Fatalf("stages wrong: %v", sp.Model.Comm.Elements())
	}
}

func TestReplicateDirective(t *testing.T) {
	text := `
element in weight 1
element f weight 1
element out weight 1
path in -> f
path f -> out
periodic P period 20 deadline 20 { in -> f -> out }
replicate f copies 3
`
	sp, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	if sp.Model.Comm.G.HasNode("f") {
		t.Fatal("replicate directive not applied")
	}
	if !sp.Model.Comm.G.HasNode("f~vote") || !sp.Model.Comm.G.HasNode("f~r2") {
		t.Fatalf("replicas missing: %v", sp.Model.Comm.Elements())
	}
}

// transformErrorCases are specs whose pipeline or replicate directive
// Parse must reject; the differential oracle also runs over them.
var transformErrorCases = []string{
	"element a weight 3\nperiodic P period 9 deadline 9 { a }\npipeline a stages 2", // 3 % 2 != 0
	"element a weight 2\nperiodic P period 9 deadline 9 { a }\npipeline b stages 2", // unknown elem
	"element a weight 2\nperiodic P period 9 deadline 9 { a }\npipeline a stages x",
	"element a weight 2\nperiodic P period 9 deadline 9 { a }\nreplicate a copies 1",
	"element a weight 2\nperiodic P period 9 deadline 9 { a }\nreplicate b copies 3",
}

func TestTransformDirectiveErrors(t *testing.T) {
	for i, c := range transformErrorCases {
		if _, err := Parse(c); err == nil {
			t.Errorf("case %d: error expected", i)
		}
	}
}

func TestTransformOrderMatters(t *testing.T) {
	// replicate, then pipeline one of the replicas ('#' cannot appear
	// in a spec — it starts a comment — so chain the other way round)
	text := `
element f weight 4
periodic P period 40 deadline 40 { f }
replicate f copies 3
pipeline f~r0 stages 2
`
	sp, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	if !sp.Model.Comm.G.HasNode("f~r0#0") {
		t.Fatalf("chained transforms failed: %v", sp.Model.Comm.Elements())
	}
	if !sp.Model.Comm.G.HasNode("f~vote") {
		t.Fatalf("voter missing: %v", sp.Model.Comm.Elements())
	}
}
