package workload

import (
	"fmt"
	"math/rand"

	"rtm/internal/core"
)

// LayeredParams control the layered random-DAG generator, the corpus
// workhorse: elements are arranged in layers, communication paths run
// between adjacent layers (every non-root element has at least one
// parent), and timing constraints are random downward chains. The
// deadline stretch is the tightness dial — Stretch near 1 yields
// borderline-to-infeasible instances, large Stretch yields instances
// the analytic tier should certify.
type LayeredParams struct {
	Layers    int     // number of layers (≥ 1)
	Width     int     // max elements per layer (≥ 1)
	Density   float64 // extra adjacent-layer edge probability
	MaxWeight int     // element weights drawn from [1, MaxWeight]

	Constraints int     // number of timing constraints (≥ 1)
	ChainLen    int     // max task-chain length (≥ 1)
	AsyncFrac   float64 // fraction of asynchronous constraints

	// Stretch sets deadline ≈ work × Stretch (clamped to ≥ work, which
	// model validation demands).
	Stretch float64
	// PeriodStretch sets a periodic constraint's period ≈ deadline ×
	// PeriodStretch, snapped up to a smooth menu so hyperperiods stay
	// representable. Values < 1 produce deadline > period constraints.
	PeriodStretch float64
}

// DefaultLayeredParams is a mid-size, mid-tightness draw.
func DefaultLayeredParams() LayeredParams {
	return LayeredParams{
		Layers: 3, Width: 3, Density: 0.4, MaxWeight: 3,
		Constraints: 3, ChainLen: 3, AsyncFrac: 0.4,
		Stretch: 1.6, PeriodStretch: 1.5,
	}
}

// Layered builds a validated random layered-DAG model. Generation is
// fully determined by rng, so a seeded corpus is reproducible.
func Layered(rng *rand.Rand, p LayeredParams) (*core.Model, error) {
	if p.Layers < 1 || p.Width < 1 || p.MaxWeight < 1 || p.Constraints < 1 || p.ChainLen < 1 {
		return nil, fmt.Errorf("workload: bad layered params %+v", p)
	}
	m := core.NewModel()
	// layers of elements, random widths in [1, Width]
	layers := make([][]string, p.Layers)
	for l := 0; l < p.Layers; l++ {
		width := 1 + rng.Intn(p.Width)
		for i := 0; i < width; i++ {
			name := fmt.Sprintf("L%dn%d", l, i)
			m.Comm.AddElement(name, 1+rng.Intn(p.MaxWeight))
			layers[l] = append(layers[l], name)
		}
	}
	// adjacent-layer paths: every non-root gets a parent, plus extra
	// edges with probability Density
	for l := 1; l < p.Layers; l++ {
		prev := layers[l-1]
		for _, v := range layers[l] {
			m.Comm.AddPath(prev[rng.Intn(len(prev))], v)
			for _, u := range prev {
				if rng.Float64() < p.Density {
					m.Comm.AddPath(u, v)
				}
			}
		}
	}

	// constraints: random downward chains, deadlines from the stretch
	all := m.Comm.Elements()
	for i := 0; i < p.Constraints; i++ {
		chain := []string{all[rng.Intn(len(all))]}
		for len(chain) < 1+rng.Intn(p.ChainLen) {
			succ := m.Comm.G.Succ(chain[len(chain)-1])
			if len(succ) == 0 {
				break
			}
			chain = append(chain, succ[rng.Intn(len(succ))])
		}
		task := core.ChainTask(chain...)
		w := task.ComputationTime(m.Comm)
		d := int(float64(w)*p.Stretch + 0.5)
		if d < w {
			d = w
		}
		kind := core.Periodic
		period := smoothSnap(int(float64(d)*p.PeriodStretch + 0.5))
		if rng.Float64() < p.AsyncFrac {
			kind = core.Asynchronous
			period = d // minimum separation; the analyses ignore it
		}
		if period < 1 {
			period = 1
		}
		m.AddConstraint(&core.Constraint{
			Name:     fmt.Sprintf("c%d", i),
			Task:     task,
			Period:   period,
			Deadline: d,
			Kind:     kind,
		})
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("workload: layered draw invalid: %w", err)
	}
	return m, nil
}

// smoothSnap rounds up to a menu of smooth numbers so that sets of
// periodic constraints keep small hyperperiods.
func smoothSnap(p int) int {
	menu := []int{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192, 256, 384, 512}
	for _, v := range menu {
		if p <= v {
			return v
		}
	}
	return menu[len(menu)-1]
}

// LayeredCorpus draws layered models with distinct canonical
// fingerprints from one seed, each with its own parameters over the
// serving corpus's ranges, until n of them pass keep (nil keeps
// every one). A fixed seed gives a fixed, varied slice: the
// micro-benchmarks of the serving path's stages run over one. It
// returns fewer than n models if 100·n draws do not yield them.
func LayeredCorpus(seed int64, n int, keep func(*core.Model) bool) []*core.Model {
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[string]bool, n)
	var out []*core.Model
	for draws := 0; len(out) < n && draws < 100*n; draws++ {
		m, err := Layered(rng, LayeredParams{
			Layers:        1 + rng.Intn(3),
			Width:         1 + rng.Intn(3),
			Density:       0.3 + 0.4*rng.Float64(),
			MaxWeight:     1 + rng.Intn(3),
			Constraints:   1 + rng.Intn(4),
			ChainLen:      1 + rng.Intn(4),
			AsyncFrac:     rng.Float64(),
			Stretch:       1 + 2.5*rng.Float64(),
			PeriodStretch: 1 + 5*rng.Float64(),
		})
		if err != nil {
			continue
		}
		fp := core.Fingerprint(m)
		if seen[fp] || keep != nil && !keep(m) {
			continue
		}
		seen[fp] = true
		out = append(out, m)
	}
	return out
}
