package workload

import (
	"math/rand"
	"testing"

	"rtm/internal/core"
)

func TestLayeredValidAndDeterministic(t *testing.T) {
	p := DefaultLayeredParams()
	a, err := Layered(rand.New(rand.NewSource(5)), p)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	b, err := Layered(rand.New(rand.NewSource(5)), p)
	if err != nil {
		t.Fatal(err)
	}
	fa, fb := core.Fingerprint(a), core.Fingerprint(b)
	if fa != fb {
		t.Fatalf("same seed drew different classes: %s vs %s", fa, fb)
	}
	c, err := Layered(rand.New(rand.NewSource(6)), p)
	if err != nil {
		t.Fatal(err)
	}
	if core.Fingerprint(c) == fa {
		t.Fatal("different seeds drew the same class (suspicious)")
	}
}

func TestLayeredShape(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	asyncSeen, periodicSeen := false, false
	for i := 0; i < 50; i++ {
		p := LayeredParams{
			Layers: 3, Width: 3, Density: 0.5, MaxWeight: 3,
			Constraints: 3, ChainLen: 4, AsyncFrac: 0.5,
			Stretch: 1.0 + 2*rng.Float64(), PeriodStretch: 1.5,
		}
		m, err := Layered(rng, p)
		if err != nil {
			t.Fatal(err)
		}
		if len(m.Constraints) != p.Constraints {
			t.Fatalf("draw %d: %d constraints, want %d", i, len(m.Constraints), p.Constraints)
		}
		for _, c := range m.Constraints {
			w := c.ComputationTime(m.Comm)
			if c.Deadline < w {
				t.Fatalf("draw %d: deadline %d below work %d", i, c.Deadline, w)
			}
			switch c.Kind {
			case core.Asynchronous:
				asyncSeen = true
			case core.Periodic:
				periodicSeen = true
			}
		}
	}
	if !asyncSeen || !periodicSeen {
		t.Fatalf("kind mix missing: async=%v periodic=%v", asyncSeen, periodicSeen)
	}
}

func TestLayeredRejectsBadParams(t *testing.T) {
	if _, err := Layered(rand.New(rand.NewSource(1)), LayeredParams{}); err == nil {
		t.Fatal("zero params accepted")
	}
}

func TestSmoothSnap(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{1, 1}, {2, 2}, {5, 6}, {7, 8}, {9, 12}, {100, 128}, {9999, 512},
	} {
		if got := smoothSnap(tc.in); got != tc.want {
			t.Fatalf("smoothSnap(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestLayeredCorpus(t *testing.T) {
	a := LayeredCorpus(1, 20, nil)
	b := LayeredCorpus(1, 20, nil)
	if len(a) != 20 || len(b) != 20 {
		t.Fatalf("corpus sizes %d, %d", len(a), len(b))
	}
	seen := map[string]bool{}
	for i := range a {
		fp := core.Fingerprint(a[i])
		if fp != core.Fingerprint(b[i]) {
			t.Fatalf("draw %d differs between runs of one seed", i)
		}
		if seen[fp] {
			t.Fatalf("draw %d repeats a class", i)
		}
		seen[fp] = true
	}
	async := LayeredCorpus(1, 5, func(m *core.Model) bool { return len(m.Asynchronous()) > 0 })
	for i, m := range async {
		if len(m.Asynchronous()) == 0 {
			t.Fatalf("draw %d was not kept by keep", i)
		}
	}
	if got := LayeredCorpus(1, 3, func(*core.Model) bool { return false }); len(got) != 0 {
		t.Fatalf("keep rejecting all returned %d models", len(got))
	}
}
