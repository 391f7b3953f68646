package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"strings"
	"testing"

	"rtm/internal/core"
	"rtm/internal/spec"
)

func testConfig() config {
	cfg := benchConfig
	cfg.workers = 1
	return cfg
}

// TestPercentileKeepsTenBeyond pins the tail rule: a reported
// percentile always has at least ten samples above it, and a sample
// set too small for that is refused rather than reported.
func TestPercentileKeepsTenBeyond(t *testing.T) {
	for n := 1; n <= 3000; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i)
		}
		v, err := percentile(xs, 0.99)
		if err != nil {
			if n >= 1100 {
				t.Fatalf("n=%d: p99 refused: %v", n, err)
			}
			continue
		}
		if beyond := n - 1 - int(v); beyond < minBeyond {
			t.Fatalf("n=%d: p99=%v leaves %d samples beyond it", n, v, beyond)
		}
	}
	if _, err := percentile(make([]float64, 999), 0.99); err == nil {
		t.Fatal("p99 of 999 samples reported with 9 beyond it")
	}
	if v, err := percentile([]float64{1, 2, 3}, 0.5); err != nil || v != 2 {
		t.Fatalf("median of 1,2,3 = %v, %v", v, err)
	}
}

// TestSameSeedSameFingerprints: inputs depend on the seed alone.
func TestSameSeedSameFingerprints(t *testing.T) {
	a, err := drawMix(7, "c", 80)
	if err != nil {
		t.Fatal(err)
	}
	b, err := drawMix(7, "c", 80)
	if err != nil {
		t.Fatal(err)
	}
	if classNames(a) != classNames(b) {
		t.Fatal("seed 7 drew two different corpora")
	}
	c, err := drawMix(8, "c", 80)
	if err != nil {
		t.Fatal(err)
	}
	if classNames(a) == classNames(c) {
		t.Fatal("seeds 7 and 8 drew the same corpus")
	}
	cfg := testConfig()
	d1, err := decidedClasses(cfg, 3, "h", 6, 6)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := decidedClasses(cfg, 3, "h", 6, 6)
	if err != nil {
		t.Fatal(err)
	}
	if classNames(d1) != classNames(d2) {
		t.Fatal("seed 3 selected two different decided sets")
	}
}

// TestRenamedSurfaceSameClass: a renamed surface parses, keeps the
// fingerprint and differs in text.
func TestRenamedSurfaceSameClass(t *testing.T) {
	cs, err := drawMix(11, "c", 20)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cs {
		text := c.surfaceText(42)
		if text == c.text {
			t.Fatalf("%s: surface 42 equals the class text", c.name)
		}
		sp, err := spec.Parse(text)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if core.Fingerprint(sp.Model) != c.fp {
			t.Fatalf("%s: renaming changed the fingerprint", c.name)
		}
	}
}

// TestOracleCatchesPlantedVerdict serves real answers, checks that
// the judge accepts them, then plants wrong verdicts and a broken
// schedule and checks that each is caught.
func TestOracleCatchesPlantedVerdict(t *testing.T) {
	cfg := testConfig()
	cs, err := decidedClasses(cfg, 5, "o", 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	h := cfg.newDaemon(cfg.newService(nil), nil)
	j := newJudge(cfg)
	rec := newRecorder()
	planted := 0
	for _, c := range cs {
		code, b := rec.post(h, []byte(c.text))
		if code != http.StatusOK {
			t.Fatalf("%s: HTTP %d", c.name, code)
		}
		body := append([]byte(nil), b...)
		if err := j.check(body, c, c.model, true); err != nil {
			t.Fatalf("correct answer rejected: %v", err)
		}
		var wrong []byte
		if c.ref.feasible {
			wrong = bytes.Replace(body, []byte(`"feasible":true`), []byte(`"feasible":false`), 1)
		} else {
			wrong = bytes.Replace(body, []byte(`"feasible":false`), []byte(`"feasible":true`), 1)
		}
		if err := j.check(wrong, c, c.model, true); err == nil {
			t.Fatalf("%s: planted verdict flip accepted", c.name)
		}
		planted++
		// an undecided answer for a class the reference decides well
		// inside the budget means the daemon gave up early, also where
		// undecided answers are otherwise allowed
		gaveUp := bytes.Replace(body, []byte(`"decided":true`), []byte(`"decided":false`), 1)
		if bytes.Equal(gaveUp, body) {
			t.Fatalf("%s: no decided field in %s", c.name, body)
		}
		if err := j.check(gaveUp, c, c.model, false); err == nil {
			t.Fatalf("%s: planted give-up accepted", c.name)
		}
		if c.ref.feasible {
			// a schedule with a slot dropped must fail sched.Check or
			// the cycle-length check
			i := bytes.Index(body, []byte(`"schedule":["`))
			k := bytes.Index(body[i+13:], []byte(`"`))
			broken := append(append([]byte(nil), body[:i+13]...), body[i+13+k:]...)
			if err := j.check(broken, c, c.model, true); err == nil {
				t.Fatalf("%s: broken schedule accepted", c.name)
			}
		}
		if sum1, _ := j.sum(body); func() bool { s, _ := j.sum(wrong); return s == sum1 }() {
			t.Fatalf("%s: a wrong answer hashes like the checked one", c.name)
		}
	}
	if planted != len(cs) {
		t.Fatalf("planted %d of %d", planted, len(cs))
	}
}

// TestUndecidedAllowedNearBudget: an undecided answer is allowed only
// where the reference search was undecided or used a large share of
// the candidate budget.
func TestUndecidedAllowedNearBudget(t *testing.T) {
	cfg := testConfig()
	cfg.workers = 2
	j := newJudge(cfg)
	for _, tc := range []struct {
		ref  verdict
		must bool
	}{
		{verdict{}, false},
		{verdict{decided: true, tier: "analysis"}, true},
		{verdict{decided: true, feasible: true, tier: "heuristic"}, true},
		{verdict{decided: true, tier: "exact", cands: 10}, true},
		{verdict{decided: true, tier: "exact", cands: cfg.maxCand / 4}, true},
		{verdict{decided: true, tier: "exact", cands: cfg.maxCand/4 + 1}, false},
		{verdict{decided: true, feasible: true, tier: "exact", cands: cfg.maxCand - 1}, false},
	} {
		if got := j.decidedWellInside(tc.ref); got != tc.must {
			t.Errorf("%+v: decidedWellInside %v, want %v", tc.ref, got, tc.must)
		}
	}
}

// TestTierSumCatchesDrift: the invariant rejects a counter set whose
// tiers do not add up to the pipelines run.
func TestTierSumCatchesDrift(t *testing.T) {
	ok := map[string]int64{"analysis_solved": 2, "analysis_refuted": 3, "heuristic_solved": 1, "searches": 4, "cache_misses": 10}
	if err := tierSum(ok); err != nil {
		t.Fatal(err)
	}
	ok["cache_misses"] = 11
	if err := tierSum(ok); err == nil {
		t.Fatal("tier-sum drift accepted")
	}
}

// TestSelfTimes: a span's self time excludes its children.
func TestSelfTimes(t *testing.T) {
	tr := &tracer{limit: 10, spans: []span{
		{name: "request", start: 0, end: 100, parent: -1},
		{name: "a", start: 10, end: 40, parent: 0},
		{name: "b", start: 50, end: 60, parent: 0},
	}}
	self := selfTimes([]*tracer{tr})
	if self["request"][0] != 60 || self["a"][0] != 30 || self["b"][0] != 10 {
		t.Fatalf("self times %v", self)
	}
}

// TestMetricListsMatchBenchmarkJSON keeps the metrics a run prints in
// step with the ones BENCHMARK.json declares.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark:", err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ name, unit string }, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, BENCHMARK.json has %d", what, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Fatalf("%s %d: %s %s, BENCHMARK.json has %s %s", what, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	same("end_to_end", endToEnd, doc.EndToEnd)
	same("per_layer", perLayer, doc.PerLayer)
}

// drawMix draws n distinct classes in the regime mix.
func drawMix(seed int64, prefix string, n int) ([]*class, error) {
	d := newDrawer(seed, prefix)
	out := make([]*class, 0, n)
	for i := 0; i < n; i++ {
		c, err := d.draw()
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

// classNames lists class names and fingerprints, one per line.
func classNames(cs []*class) string {
	var b strings.Builder
	for _, c := range cs {
		b.WriteString(c.name)
		b.WriteByte(' ')
		b.WriteString(c.fp)
		b.WriteByte('\n')
	}
	return b.String()
}
