package spec

import (
	"fmt"
	"math/rand"
	"testing"

	"rtm/internal/core"
)

// parseTraps are inputs on which a hand-written parser most easily
// drifts from the reference: fmt.Sscanf's %d rules (a sign, trailing
// bytes ignored, out-of-range values), strings.Fields' Unicode white
// space, where '#' starts a comment, and bodies over several lines.
var parseTraps = []string{
	"element a weight +5\nperiodic P period 9 deadline 9 { a }",
	"element a weight 5abc\nperiodic P period 9 deadline 9 { a }",
	"element a weight -0\nperiodic P period 9 deadline 9 { a }",
	"element a weight +\n",
	"element a weight --1\n",
	"element a weight 1_0\n",
	"element a weight 99999999999999999999\n",
	"element a weight 9223372036854775807\nperiodic P period 9 deadline 9 { a }",
	"element a weight 1\nperiodic P period 9223372036854775808 deadline 9 { a }",
	"element a weight 1\nperiodic P period -9223372036854775808 deadline 9 { a }",
	"element a weight 1\nperiodic P period +4x deadline 4y { a }",
	"element a weight 1\npipeline a stages 2z\nperiodic P period 9 deadline 9 { a }",
	"element\u00a0a weight 1\nperiodic P period 9 deadline 9 { a }",
	"element a\u2003weight\u30001\nperiodic\u0085P period 9 deadline 9 { a }",
	"element a weight 1\u200b\n",
	"element a\xffb weight 1\n",
	"element a#b weight 1\nperiodic P period 9 deadline 9 { a#b }",
	"element a weight 1\t# tab comment\nperiodic P period 9 deadline 9 { a } # done",
	"element a weight 1\v# not a comment\n",
	"element a weight 1\u00a0# not a comment either\n",
	"element a weight 1\r\nperiodic P period 9 deadline 9 { a }\r\n",
	"element a weight 1\nelement b weight 1\npath a -> b\nperiodic P period 9 deadline 9 {\n a ->\n # comment line\n b # c\n} trailing words",
	"element a weight 1\nelement b weight 1\npath a -> b\nperiodic P period 9 deadline 9 { a -\n> b }",
	"element a weight 1\nelement b weight 1\nperiodic P period 9 deadline 9 { a\n b }",
	"element a weight 1\nperiodic P period 9 deadline 9 {\n a\n",
	"element a weight 1\nperiodic P period 9 deadline 9{a}junk\nsystem s",
	"element a weight 1\nperiodic P period 9 deadline 9 { a; ; a }",
	"element a weight 1\nperiodic P period 9 deadline 9 { x:a -> y:a:b }",
	"element a weight 1\npath a -> a\nperiodic P period 9 deadline 9 { a -> a }",
	"system one\nsystem two\nelement a weight 1\nperiodic P period 9 deadline 9 { a }",
	"system\n",
	"periodic P period 9 deadline 9 { a } extra }",
}

// agreesWithReference asserts that Parse and the vendored reference
// parser agree on text: accept or reject, the error text (line number
// included), the system name, the Print output and the fingerprint.
func agreesWithReference(t *testing.T, text string) {
	t.Helper()
	got, gotErr := Parse(text)
	want, wantErr := refParse(text)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("accept/reject differs on %q: Parse err %v, reference err %v", text, gotErr, wantErr)
	}
	if wantErr != nil {
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("error differs on %q:\n  Parse:     %v\n  reference: %v", text, gotErr, wantErr)
		}
		return
	}
	if got.Name != want.Name {
		t.Fatalf("system name differs on %q: %q vs %q", text, got.Name, want.Name)
	}
	if g, w := Print(got.Name, got.Model), Print(want.Name, want.Model); g != w {
		t.Fatalf("Print differs on %q:\n--- Parse\n%s--- reference\n%s", text, g, w)
	}
	if core.Fingerprint(got.Model) != core.Fingerprint(want.Model) {
		t.Fatalf("fingerprint differs on %q", text)
	}
}

// TestParseMatchesReference runs the differential oracle over the
// traps, every other table input of this package and a seed-1 layered
// corpus.
func TestParseMatchesReference(t *testing.T) {
	inputs := append([]string{exampleSpec, ""}, parseTraps...)
	for _, c := range parseErrorCases {
		inputs = append(inputs, c.text)
	}
	inputs = append(inputs, transformErrorCases...)
	inputs = append(inputs, corpusTexts(t, 64)...)
	for _, text := range inputs {
		agreesWithReference(t, text)
	}
}

// FuzzParse checks that the parser never panics, that it agrees with
// the reference parser on every input, and that anything it accepts
// survives a Print/Parse round trip.
func FuzzParse(f *testing.F) {
	f.Add(exampleSpec)
	f.Add("element a weight 1\nperiodic P period 3 deadline 3 { a }")
	f.Add("sporadic S separation 5 deadline 5 { x }")
	f.Add("element f weight 4\nperiodic P period 30 deadline 30 { f }\npipeline f stages 2")
	f.Add("path a -> b\n# comment\nsystem x")
	f.Add("periodic P period 1 deadline 1 {")
	f.Add("element a weight 1\nperiodic P period 3 deadline 3 { a:b:c }")
	for _, text := range parseTraps {
		f.Add(text)
	}
	f.Fuzz(func(t *testing.T, text string) {
		agreesWithReference(t, text)
		sp, err := Parse(text)
		if err != nil {
			return
		}
		// accepted specs must round-trip
		printed := Print(sp.Name, sp.Model)
		back, err := Parse(printed)
		if err != nil {
			t.Fatalf("printed spec rejected: %v\ninput: %q\nprinted:\n%s", err, text, printed)
		}
		if len(back.Model.Constraints) != len(sp.Model.Constraints) {
			t.Fatalf("round trip changed constraint count: %q", text)
		}
	})
}

// FuzzFingerprint drives the canonical model fingerprint from the
// spec corpus: any model the parser accepts must fingerprint
// identically after a seed-driven element renaming, task-node
// renaming, and constraint permutation. This is the fuzz face of the
// property the schedule cache depends on (core.Canonicalize).
func FuzzFingerprint(f *testing.F) {
	seeds := []string{
		exampleSpec,
		"element a weight 1\nperiodic P period 3 deadline 3 { a }",
		"sporadic S separation 5 deadline 5 { x }",
		"element f weight 4\nperiodic P period 30 deadline 30 { f }\npipeline f stages 2",
		"element a weight 1\nelement b weight 1\npath a -> b\n" +
			"periodic P period 6 deadline 6 { a -> b }\nsporadic Q separation 4 deadline 4 { a }",
		"element a weight 1\nperiodic P period 3 deadline 3 { first:a -> second:a }",
	}
	for _, s := range seeds {
		f.Add(s, int64(1))
	}
	f.Fuzz(func(t *testing.T, text string, seed int64) {
		sp, err := Parse(text)
		if err != nil || sp.Model.Validate() != nil {
			return
		}
		m := sp.Model
		fp := core.Fingerprint(m)
		rng := rand.New(rand.NewSource(seed))
		ren := renameForFuzz(rng, m)
		if err := ren.Validate(); err != nil {
			t.Fatalf("renamed model invalid: %v\ninput: %q", err, text)
		}
		if got := core.Fingerprint(ren); got != fp {
			t.Fatalf("fingerprint not invariant under renaming (seed %d)\ninput: %q", seed, text)
		}
	})
}

// renameForFuzz rebuilds m under a random element/node renaming and a
// random constraint permutation.
func renameForFuzz(rng *rand.Rand, m *core.Model) *core.Model {
	elems := m.Comm.Elements()
	perm := rng.Perm(len(elems))
	ren := make(map[string]string, len(elems))
	for i, e := range elems {
		ren[e] = fmt.Sprintf("f%03d", perm[i])
	}
	out := core.NewModel()
	for _, i := range rng.Perm(len(elems)) {
		out.Comm.AddElement(ren[elems[i]], m.Comm.WeightOf(elems[i]))
	}
	for _, e := range m.Comm.G.Edges() {
		out.Comm.AddPath(ren[e.From], ren[e.To])
	}
	for _, ci := range rng.Perm(len(m.Constraints)) {
		c := m.Constraints[ci]
		task := core.NewTaskGraph()
		nodes := c.Task.Nodes()
		nren := make(map[string]string, len(nodes))
		for j, nd := range rng.Perm(len(nodes)) {
			nren[nodes[nd]] = fmt.Sprintf("m%d_%d", ci, j)
		}
		for _, nd := range nodes {
			task.AddStep(nren[nd], ren[c.Task.ElementOf(nd)])
		}
		for _, e := range c.Task.G.Edges() {
			task.AddPrec(nren[e.From], nren[e.To])
		}
		out.AddConstraint(&core.Constraint{
			Name: fmt.Sprintf("r%d", ci), Task: task,
			Period: c.Period, Deadline: c.Deadline, Kind: c.Kind,
		})
	}
	return out
}
