package service

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"rtm/internal/core"
	"rtm/internal/exact"
	"rtm/internal/nphard"
	"rtm/internal/store"
)

// TestServiceMemoSeedWarmRestart drives the durable refutation cache
// through the full pipeline: a cold exact refutation exports its
// transposition table to the store; after a restart, a near-miss
// variant of the class — different fingerprint (an extra communication
// path), same memo class — is seeded from disk, re-refuted with the
// same verdict, and write-back keeps accumulating.
func TestServiceMemoSeedWarmRestart(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	// density-1, weight-3: analysis cannot reject it, the heuristic
	// fails, and the exhaustion leaves a non-empty memo snapshot
	hard := density1Instance(3, []int{2, 3, 6})

	st1 := openStoreT(t, dir)
	svc1 := New(Options{Store: st1})
	res, err := svc1.Schedule(ctx, hard)
	if err != nil {
		t.Fatal(err)
	}
	if res.Feasible || !res.Decided || res.Source != "exact" {
		t.Fatalf("cold refute: %+v", res)
	}
	if got := svc1.Metrics().MemoSnapshotPuts.Load(); got != 1 {
		t.Fatalf("memo_snapshot_puts = %d, want 1", got)
	}
	if got := svc1.Metrics().MemoSeedHits.Load(); got != 0 {
		t.Fatalf("cold solve claims a seed hit: %d", got)
	}
	if st1.MemoLen() != 1 || st1.MemoSigs() == 0 {
		t.Fatalf("store memo tier after cold solve: classes=%d sigs=%d", st1.MemoLen(), st1.MemoSigs())
	}
	// the class's reverse index knows the solved fingerprint
	if _, ok := st1.MemoForFingerprint(core.Fingerprint(hard)); !ok {
		t.Fatal("solved fingerprint not in the memo reverse index")
	}
	if err := st1.Close(); err != nil {
		t.Fatal(err)
	}

	// restart + near miss: same structure, different fingerprint — the
	// verdict store cannot answer it, but the memo class can warm it
	variant := density1Instance(3, []int{2, 3, 6})
	variant.Comm.AddPath("u0", "u1")
	if core.Fingerprint(variant) == core.Fingerprint(hard) {
		t.Fatal("perturbation did not change the fingerprint")
	}
	if k1, _ := exact.MemoKey(hard, exact.Options{MaxLen: hard.Hyperperiod()}); true {
		k2, ok := exact.MemoKey(variant, exact.Options{MaxLen: variant.Hyperperiod()})
		if !ok || k1 != k2 {
			t.Fatalf("near miss left the memo class: %s vs %s", k1, k2)
		}
	}

	st2 := openStoreT(t, dir)
	svc2 := New(Options{Store: st2})
	res2, err := svc2.Schedule(ctx, variant)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Feasible || !res2.Decided || res2.Source != "exact" {
		t.Fatalf("warm near-miss refute: %+v", res2)
	}
	snap := svc2.Snapshot()
	if snap["memo_seed_hits"] != 1 || snap["memo_seed_sigs"] == 0 {
		t.Fatalf("seed metrics after warm solve: hits=%d sigs=%d",
			snap["memo_seed_hits"], snap["memo_seed_sigs"])
	}
	if snap["store_hits"] != 0 {
		t.Fatalf("near miss was served by the verdict store: %+v", snap)
	}
	// the variant's fingerprint joined the class; a THIRD fingerprint
	// would now seed from both solves' merged signatures
	if rec, ok := st2.MemoForFingerprint(core.Fingerprint(variant)); !ok || len(rec.Fingerprints) != 2 {
		t.Fatalf("variant fingerprint not merged into the class: ok=%v", ok)
	}
}

// TestServiceMemoSeedingVerdictInvisible cross-checks the seeded
// pipeline against a pruners-off oracle on both polarities: whatever
// the store has accumulated, verdicts must match a search that never
// saw a seed.
func TestServiceMemoSeedingVerdictInvisible(t *testing.T) {
	ctx := context.Background()
	models := []*core.Model{
		density1Instance(3, []int{2, 3, 6}),    // infeasible
		density1Instance(1, []int{2, 6, 6, 6}), // feasible
	}
	st := openStoreT(t, t.TempDir())
	svc := New(Options{Store: st, DisableHeuristic: true, DisableAnalysis: true})
	for round := 0; round < 2; round++ { // second round runs seeded
		for i, m := range models {
			// new fingerprint each round so the verdict store never
			// short-circuits the search
			v := renameModelKeepStructure(m, round)
			res, err := svc.Schedule(ctx, v)
			if err != nil {
				t.Fatal(err)
			}
			oracle, _, oerr := exact.FindSchedule(v, exact.Options{
				MaxLen:          v.Hyperperiod(),
				DisableSymmetry: true, DisableMemo: true, DisableBounds: true,
			})
			wantFeasible := oerr == nil
			if res.Feasible != wantFeasible {
				t.Fatalf("round %d model %d: service=%v oracle=%v", round, i, res.Feasible, wantFeasible)
			}
			if wantFeasible && oracle == nil {
				t.Fatalf("round %d model %d: oracle feasible without witness", round, i)
			}
		}
	}
}

// renameModelKeepStructure adds round comm paths between the first two
// elements' order — a structure-preserving, fingerprint-changing
// perturbation (comm topology is canonicalized, but does not enter the
// search problem).
func renameModelKeepStructure(m *core.Model, round int) *core.Model {
	out := core.NewModel()
	elems := m.Comm.Elements()
	for _, e := range elems {
		out.Comm.AddElement(e, m.Comm.WeightOf(e))
	}
	for _, e := range m.Comm.G.Edges() {
		out.Comm.AddPath(e.From, e.To)
	}
	for _, c := range m.Constraints {
		out.AddConstraint(c)
	}
	if round > 0 && len(elems) >= 2 {
		out.Comm.AddPath(elems[0], elems[1])
	}
	return out
}

// TestServiceMemoNearMissFloor pins the persistent refutation cache's
// payoff on two hard 3-PARTITION NO families. Item sizes lie strictly
// inside (B/4, B/2) and the 11 cannot complete a frame (it needs 13
// from two sizes ≥ 7), so every refutation explores all the
// near-feasible packings of the rest. A cold solve with a store
// attached writes the class's transposition table; after a restart,
// three near-miss variants (extra communication paths: a new
// fingerprint, the same memo class) must each be seeded from the store
// and refuted with at most half the nodes of a storeless cold solve.
// The verdict store must never answer a near miss, and the refutation
// must agree with a search that cannot use the seeds: pruners off on
// the small family, the memo off on the larger one.
func TestServiceMemoNearMissFloor(t *testing.T) {
	for _, fam := range []struct {
		name       string
		sizes      []int
		prunersOff bool // the oracle runs with every pruner off, not just the memo
	}{
		{"B24-m2", []int{7, 7, 7, 7, 7, 11, 8, 9, 9}, true},
		{"B24-m4", []int{7, 7, 7, 7, 7, 7, 11, 11, 8, 8, 8, 8}, false},
	} {
		t.Run(fam.name, func(t *testing.T) {
			ctx := context.Background()
			encode := func(extraPaths int) *core.Model {
				m, err := nphard.EncodeThreePartition(nphard.ThreePartition{Sizes: fam.sizes, B: 24})
				if err != nil {
					t.Fatal(err)
				}
				for j := 0; j < extraPaths; j++ {
					m.Comm.AddPath(nphard.ItemElem(j), nphard.ItemElem(j+1))
				}
				return m
			}
			n := len(fam.sizes) / 3 * 25
			exopt := exact.Options{MinLen: n, MaxLen: n, RequireContiguous: true, MaxCandidates: 5_000_000}
			newSvc := func(st *store.Store) *Service {
				return New(Options{Store: st, DisableAnalysis: true, DisableHeuristic: true, Exact: exopt})
			}
			// refute serves m and returns the nodes its search explored
			refute := func(svc *Service, m *core.Model, label string) int64 {
				t.Helper()
				before := svc.Snapshot()["exact_nodes_total"]
				res, err := svc.Schedule(ctx, m)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if res.Feasible || !res.Decided || res.Source != "exact" {
					t.Fatalf("%s: want an exact refutation, got %+v", label, res)
				}
				return svc.Snapshot()["exact_nodes_total"] - before
			}

			base := encode(0)
			key, ok := exact.MemoKey(base, exopt)
			if !ok {
				t.Fatal("no memo key for the family")
			}
			dir := t.TempDir()
			st1 := openStoreT(t, dir)
			svc1 := newSvc(st1)
			refute(svc1, base, "cold base")
			if puts := svc1.Snapshot()["memo_snapshot_puts"]; puts != 1 {
				t.Fatalf("memo_snapshot_puts = %d after the cold solve, want 1", puts)
			}
			if err := st1.Close(); err != nil {
				t.Fatal(err)
			}

			warm := newSvc(openStoreT(t, dir)) // the restart
			cold := newSvc(nil)
			seen := map[string]bool{core.Fingerprint(base): true}
			for i := 1; i <= 3; i++ {
				v := encode(i)
				fp := core.Fingerprint(v)
				if seen[fp] {
					t.Fatalf("variant %d: fingerprint unchanged", i)
				}
				seen[fp] = true
				if k, ok := exact.MemoKey(v, exopt); !ok || k != key {
					t.Fatalf("variant %d left the memo class", i)
				}
				preHits := warm.Snapshot()["memo_seed_hits"]
				warmNodes := refute(warm, v, fmt.Sprintf("warm variant %d", i))
				snap := warm.Snapshot()
				if snap["memo_seed_hits"] != preHits+1 {
					t.Fatalf("variant %d: the warm solve was not seeded", i)
				}
				if snap["store_hits"] != 0 {
					t.Fatalf("variant %d: a near miss was served by the verdict store", i)
				}
				coldNodes := refute(cold, v, fmt.Sprintf("cold variant %d", i))
				if warmNodes <= 0 || coldNodes < 2*warmNodes {
					t.Fatalf("variant %d: warm %d nodes vs cold %d, want at most half", i, warmNodes, coldNodes)
				}
			}

			oopt := exopt
			oopt.DisableMemo = true
			if fam.prunersOff {
				oopt.DisableSymmetry, oopt.DisableBounds = true, true
			}
			if _, _, err := exact.FindScheduleCtx(ctx, base, oopt); !errors.Is(err, exact.ErrNotFound) {
				t.Fatalf("oracle: %v, want a refutation", err)
			}
		})
	}
}
