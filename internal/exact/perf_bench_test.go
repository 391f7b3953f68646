package exact

import (
	"errors"
	"fmt"
	"testing"

	"rtm/internal/core"
	"rtm/internal/nphard"
)

// hardnessInstance is the deadline-density-1 infeasible instance the
// worker-sweep benchmark at the repo root uses: every length up to 24
// must be exhausted, so the run prices pure search throughput.
func hardnessInstance() *core.Model {
	m := core.NewModel()
	for i, d := range []int{2, 4, 8, 12, 24} {
		e := fmt.Sprintf("e%d", i)
		m.Comm.AddElement(e, 1)
		m.AddConstraint(&core.Constraint{
			Name: fmt.Sprintf("C%d", i), Task: core.ChainTask(e),
			Period: d, Deadline: d, Kind: core.Asynchronous,
		})
	}
	return m
}

// BenchmarkSearchSeed prices the vendored seed implementation
// (string-keyed state, per-slot window rescans, Analyzer re-derived
// per candidate) on the hardness instance.
func BenchmarkSearchSeed(b *testing.B) {
	m := hardnessInstance()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _, err := refFindSchedule(m, Options{MaxLen: 24})
		if !errors.Is(err, ErrNotFound) {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchRewritten prices the rewritten sequential engine
// (index-based state, O(1) incremental window counters, reused
// Checker) on the same instance. Node and candidate counts are pinned
// equal to the seed's by TestSequentialMatchesReference.
func BenchmarkSearchRewritten(b *testing.B) {
	m := hardnessInstance()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, _, err := FindSchedule(m, Options{MaxLen: 24})
		if !errors.Is(err, ErrNotFound) {
			b.Fatal(err)
		}
	}
}

// e3Sigs solves the E3 NO row once and returns its real memo
// signatures — benchmark inputs with production sizes and contents.
func e3Sigs(b *testing.B) [][]byte {
	b.Helper()
	m, opt := e3BenchModel(b, []int{7, 5, 5, 5, 5, 5}, 16)
	opt.SnapshotMemo = true
	_, stats, _ := FindSchedule(m, opt)
	if len(stats.MemoSnapshot) == 0 {
		b.Fatal("no signatures to benchmark with")
	}
	return stats.MemoSnapshot
}

// e3BenchModel is e3Model for benchmarks (testing.B has no t.Helper
// pairing with e3Model's *testing.T parameter).
func e3BenchModel(b *testing.B, sizes []int, bound int) (*core.Model, Options) {
	b.Helper()
	tp := nphard.ThreePartition{Sizes: sizes, B: bound}
	m, err := nphard.EncodeThreePartition(tp)
	if err != nil {
		b.Fatalf("encode: %v", err)
	}
	n := tp.M() * (bound + 1)
	return m, Options{MinLen: n, MaxLen: n, RequireContiguous: true, MaxCandidates: 5_000_000}
}

// BenchmarkMemoProbeStore prices the transposition-table hot path in
// isolation: a probe plus a store-if-miss per iteration over real
// signatures. Both map operations ride the compiler's string(sig)
// lookup elision, so the steady state (signature already present) is
// zero allocations — the point of the probe/store perf fix. A
// regression (a []byte→string conversion creeping back in) shows up
// directly in allocs/op.
func BenchmarkMemoProbeStore(b *testing.B) {
	sigs := e3Sigs(b)
	mt := newMemoTable(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sig := sigs[i%len(sigs)]
		if mt.probe(sig) == memoMiss {
			mt.store(sig)
		}
	}
}

// BenchmarkMemoSeededProbe prices a probe against a seeded set — the
// warm-restart read path. Seeded probes take no locks and must not
// allocate.
func BenchmarkMemoSeededProbe(b *testing.B) {
	sigs := e3Sigs(b)
	mt := newMemoTable(1)
	mt.Seed(sigs)
	sig := sigs[len(sigs)/2]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if mt.probe(sig) != memoHitSeeded {
			b.Fatal("seeded signature missed")
		}
	}
}
