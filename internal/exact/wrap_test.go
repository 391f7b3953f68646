package exact

import (
	"fmt"
	"math/rand"
	"testing"

	"rtm/internal/sched"
	"rtm/internal/workload"
)

// TestWrapFilterSound checks the leaf's wrapped-window filter against
// the independent Analyzer. Over random small models it walks every
// complete candidate of length at most 6 that survives the prefix
// prunes (the leaves the search reaches), and asserts that each one
// the filter rejects is infeasible by sched.Check, and that the
// Checker's id entry point agrees with Check on every leaf.
func TestWrapFilterSound(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	models := 150
	if testing.Short() {
		models = 40
	}
	var leaves, rejected int
	for trial := 0; trial < models; trial++ {
		m, err := workload.Random(rng, workload.Params{
			Elements:    1 + rng.Intn(4),
			MaxWeight:   1 + rng.Intn(2),
			EdgeProb:    0.5,
			Constraints: 1 + rng.Intn(4),
			ChainLen:    1 + rng.Intn(3),
			AsyncFrac:   0.5 + 0.5*rng.Float64(),
			TargetUtil:  0.5 + 0.5*rng.Float64(),
		})
		if err != nil {
			continue
		}
		p := newProblem(m, Options{MaxLen: 6})
		ck := sched.MustChecker(m)
		for n := 1; n <= 6; n++ {
			minCount, totalMin := p.minCounts(n)
			if totalMin > n {
				continue
			}
			s := newState(p, n, minCount, totalMin, ck)
			budget := 3000 // leaves per length, so dense alphabets stay cheap
			var rec func(pos int)
			rec = func(pos int) {
				if budget == 0 {
					return
				}
				if pos == n {
					budget--
					leaves++
					label := fmt.Sprintf("trial %d, length %d", trial, n)
					cand := s.names()
					want := sched.Check(m, cand).Feasible
					if !s.wrapOK() {
						rejected++
						if want {
							t.Fatalf("%s: the filter rejects %v, which Check accepts", label, cand.Slots)
						}
					}
					if got := ck.FeasibleIDs(s.slots, s.alpha); got != want {
						t.Fatalf("%s: FeasibleIDs(%v) = %v, Check = %v", label, cand.Slots, got, want)
					}
					return
				}
				for sym := range p.syms {
					s.place(pos, sym)
					if s.pruneOK(pos) {
						rec(pos + 1)
					}
					s.unplace(pos, sym)
				}
			}
			rec(0)
			s.releaseSigbuf()
		}
	}
	if rejected == 0 || rejected == leaves {
		t.Fatalf("the filter rejected %d of %d leaves: the models do not exercise it", rejected, leaves)
	}
	t.Logf("the filter rejected %d of %d leaves", rejected, leaves)
}
