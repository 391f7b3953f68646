package service

import (
	"context"
	"math/rand"
	"testing"

	"rtm/internal/core"
	"rtm/internal/exact"
	"rtm/internal/workload"
)

// corpusClass is one distinct isomorphism class of the layered corpus.
type corpusClass struct {
	m      *core.Model
	regime string
	bound  int // the exact stage's MaxLen for this model
}

// corpusMaxLenCap bounds the exact stage's automatic schedule length
// so a refutation-heavy draw cannot stall the test.
const corpusMaxLenCap = 24

// layeredCorpus draws n distinct classes from the layered random-DAG
// generator over four regimes. Tight draws mostly refute, loose draws
// mostly construct, and the middle band is where the verdict is in
// play. The anchored band (periodic-heavy, period well above deadline)
// holds windows that are each satisfiable but overloaded in aggregate,
// which the analytic tier's demand sum refutes without search.
func layeredCorpus(t testing.TB, seed int64, n int) []corpusClass {
	t.Helper()
	regimes := []struct {
		name                 string
		stretchLo, stretchHi float64
		periodLo, periodHi   float64
		asyncMax, share      float64
	}{
		{"tight", 1.0, 1.15, 1.0, 2.0, 1.0, 0.25},
		{"mid", 1.2, 1.8, 1.0, 2.0, 1.0, 0.3},
		{"loose", 2.0, 3.5, 1.0, 2.0, 1.0, 0.25},
		{"anchored", 1.0, 1.4, 2.5, 6.0, 0.15, 0.2},
	}
	seen := make(map[string]bool, n)
	classes := make([]corpusClass, 0, n)
	for ri, reg := range regimes {
		quota := int(float64(n) * reg.share)
		if ri == len(regimes)-1 {
			quota = n - len(classes) // absorb rounding in the last band
		}
		rng := rand.New(rand.NewSource(seed + int64(ri)*7919))
		for got, attempts := 0, 0; got < quota; attempts++ {
			if attempts > 200*quota+1000 {
				t.Fatalf("regime %s stalled at %d/%d distinct classes", reg.name, got, quota)
			}
			m, err := workload.Layered(rng, workload.LayeredParams{
				Layers:        1 + rng.Intn(3),
				Width:         1 + rng.Intn(3),
				Density:       0.3 + 0.4*rng.Float64(),
				MaxWeight:     1 + rng.Intn(3),
				Constraints:   1 + rng.Intn(4),
				ChainLen:      1 + rng.Intn(4),
				AsyncFrac:     reg.asyncMax * rng.Float64(),
				Stretch:       reg.stretchLo + (reg.stretchHi-reg.stretchLo)*rng.Float64(),
				PeriodStretch: reg.periodLo + (reg.periodHi-reg.periodLo)*rng.Float64(),
			})
			if err != nil {
				continue
			}
			fp := core.Fingerprint(m)
			if seen[fp] {
				continue
			}
			seen[fp] = true
			classes = append(classes, corpusClass{m: m, regime: reg.name, bound: min(m.Hyperperiod(), corpusMaxLenCap)})
			got++
		}
	}
	return classes
}

// TestCorpusAnalysisParity runs 200 layered-corpus classes through the
// pipeline with the analytic tier off and on, and checks the verdicts
// class by class. A disagreement is a soundness bug unless the exact
// bound explains it: an exact refutation proves only that no schedule
// exists up to MaxLen, so a verified witness longer than that bound is
// a bound artifact. An analytic refutation claims every length, so
// any verified witness against it fails the test.
func TestCorpusAnalysisParity(t *testing.T) {
	classes := layeredCorpus(t, 1, 200)
	type verdict struct {
		decided, feasible bool
		source            string
		witnessLen        int
	}
	run := func(analysis bool) []verdict {
		svc := New(Options{
			DisableAnalysis:   !analysis,
			SearchConcurrency: -1,
			MaxLenCap:         corpusMaxLenCap,
			Exact:             exact.Options{MaxCandidates: 20_000},
		})
		out := make([]verdict, len(classes))
		for i, c := range classes {
			res, err := svc.Schedule(context.Background(), c.m)
			if err != nil {
				t.Fatalf("class %d (%s): %v", i, c.regime, err)
			}
			out[i] = verdict{decided: res.Decided, feasible: res.Feasible, source: res.Source}
			if res.Schedule != nil {
				out[i].witnessLen = len(res.Schedule.Slots)
			}
		}
		return out
	}
	off, on := run(false), run(true)

	var agree, analysisDecided int
	for i, c := range classes {
		a, b := off[i], on[i]
		if b.source == "analysis" {
			analysisDecided++
		}
		if !a.decided || !b.decided {
			continue
		}
		if a.feasible == b.feasible {
			agree++
			continue
		}
		feas, infeas := a, b
		if b.feasible {
			feas, infeas = b, a
		}
		if infeas.source == "analysis" || feas.witnessLen <= c.bound {
			t.Fatalf("class %d (%s, %s): feasible via %s (witness length %d) but infeasible via %s (bound %d)",
				i, c.regime, core.Fingerprint(c.m), feas.source, feas.witnessLen, infeas.source, c.bound)
		}
	}
	if agree == 0 || analysisDecided == 0 {
		t.Fatalf("%d classes agree, %d decided by analysis: the corpus does not exercise the tier", agree, analysisDecided)
	}
}
