package exact

import (
	"context"
	"errors"
	"testing"
	"time"

	"rtm/internal/core"
)

// cancelHardInstance scales the E2 density-1 hardness family
// ({2,3,6} deadlines, Σw/d = 1) by w: infeasible, so the search must
// exhaust a space that grows exponentially with w — long enough that
// a short deadline reliably interrupts it mid-run.
func cancelHardInstance(w int) *core.Model { return density1Model(w, []int{2, 3, 6}) }

// TestFindScheduleCtxPreCanceled: a context that is already done
// aborts before any length is tried, sequentially and in parallel.
func TestFindScheduleCtxPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		s, st, err := FindScheduleCtx(ctx, cancelHardInstance(2), Options{MaxLen: 12, Workers: workers})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if s != nil {
			t.Fatalf("workers=%d: got a schedule from a canceled search", workers)
		}
		if len(st.LengthsTried) != 0 {
			t.Fatalf("workers=%d: canceled search still tried lengths %v", workers, st.LengthsTried)
		}
	}
}

// TestFindScheduleCtxDeadline: a deadline interrupts the exhaustion of
// a hard infeasible instance mid-search (the w=4 instance takes
// hundreds of milliseconds to refute; the deadline is 10ms).
func TestFindScheduleCtxDeadline(t *testing.T) {
	for _, workers := range []int{1, 2} {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
		start := time.Now()
		_, _, err := FindScheduleCtx(ctx, cancelHardInstance(4), Options{MaxLen: 24, Workers: workers})
		elapsed := time.Since(start)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("workers=%d: err = %v, want context.DeadlineExceeded", workers, err)
		}
		if elapsed > 2*time.Second {
			t.Fatalf("workers=%d: cancellation took %v, polling is broken", workers, elapsed)
		}
	}
}

// TestFindScheduleCtxBackground: the context path is the plain path —
// results and stats under context.Background() match FindSchedule
// exactly (sequential determinism contract).
func TestFindScheduleCtxBackground(t *testing.T) {
	m := cancelHardInstance(2)
	s1, st1, err1 := FindSchedule(m, Options{MaxLen: 12})
	s2, st2, err2 := FindScheduleCtx(context.Background(), m, Options{MaxLen: 12})
	if (err1 == nil) != (err2 == nil) || (s1 == nil) != (s2 == nil) {
		t.Fatalf("context path diverged: (%v,%v) vs (%v,%v)", s1, err1, s2, err2)
	}
	if st1.NodesExplored != st2.NodesExplored || st1.Candidates != st2.Candidates {
		t.Fatalf("stats diverged: %+v vs %+v", st1, st2)
	}
}
