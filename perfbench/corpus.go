package main

import (
	"fmt"
	"math/rand"
	"regexp"
	"strconv"

	"rtm/internal/core"
	"rtm/internal/spec"
	"rtm/internal/workload"
)

// A class is one isomorphism class of the generated corpus together
// with everything the harness knows about it before any timing: its
// spec text (the only thing the program receives), its canonical
// fingerprint and, once computed, the oracle's reference verdict.
type class struct {
	name string // system name in the spec, unique per workload
	fp   string
	body []byte // the spec text as sent (in the run's arena for bulk corpora)

	// model and text are kept for classes served with renamed
	// surfaces or judged more than once; a bulk corpus drops them and
	// the judge parses body when it needs the model.
	model *core.Model
	text  string

	ref     verdict
	refDone bool
}

// regime is one band of the layered-corpus mix (the rtbench -corpus
// regimes): a deadline-tightness range, a period-to-deadline range
// and the asynchronous share of its constraints.
type regime struct {
	name                 string
	stretchLo, stretchHi float64
	periodLo, periodHi   float64
	asyncMax             float64
	share                float64
}

// regimes is the fixed tight/mid/loose/anchored mix. Tight draws
// mostly refute, loose draws mostly construct, and anchored draws
// (periodic-heavy, period ≫ deadline) are where aggregate demand
// decides what per-window cuts cannot.
var regimes = []regime{
	{name: "tight", stretchLo: 1.0, stretchHi: 1.15, periodLo: 1.0, periodHi: 2.0, asyncMax: 1.0, share: 0.25},
	{name: "mid", stretchLo: 1.2, stretchHi: 1.8, periodLo: 1.0, periodHi: 2.0, asyncMax: 1.0, share: 0.3},
	{name: "loose", stretchLo: 2.0, stretchHi: 3.5, periodLo: 1.0, periodHi: 2.0, asyncMax: 1.0, share: 0.25},
	{name: "anchored", stretchLo: 1.0, stretchHi: 1.4, periodLo: 2.5, periodHi: 6.0, asyncMax: 0.15, share: 0.2},
}

// quotas splits n across the regimes by share, the last regime taking
// the rounding remainder.
func quotas(n int) []int {
	q := make([]int, len(regimes))
	left := n
	for i, rg := range regimes {
		if i == len(regimes)-1 {
			q[i] = left
			break
		}
		q[i] = int(float64(n) * rg.share)
		left -= q[i]
	}
	return q
}

// regimeCycle interleaves the regimes in proportion to their shares
// (5 tight, 6 mid, 5 loose, 4 anchored per 20 draws), so every run of
// 20 consecutive classes has the corpus mix.
var regimeCycle = func() []regime {
	var out []regime
	for ri, q := range quotas(20) {
		for i := 0; i < q; i++ {
			out = append(out, regimes[ri])
		}
	}
	return out
}()

// drawer produces distinct classes from one seed, deduplicated on the
// canonical fingerprint, so the same seed always yields the same list.
type drawer struct {
	rng    *rand.Rand
	prefix string
	seen   map[string]bool
	next   int
}

func newDrawer(seed int64, prefix string) *drawer {
	return &drawer{rng: rand.New(rand.NewSource(seed)), prefix: prefix, seen: map[string]bool{}}
}

// draw returns the next distinct class; its regime follows the cycle.
func (d *drawer) draw() (*class, error) {
	rg := regimeCycle[d.next%len(regimeCycle)]
	for attempts := 0; attempts < 10000; attempts++ {
		p := workload.LayeredParams{
			Layers:        1 + d.rng.Intn(3),
			Width:         1 + d.rng.Intn(3),
			Density:       0.3 + 0.4*d.rng.Float64(),
			MaxWeight:     1 + d.rng.Intn(3),
			Constraints:   1 + d.rng.Intn(4),
			ChainLen:      1 + d.rng.Intn(4),
			AsyncFrac:     rg.asyncMax * d.rng.Float64(),
			Stretch:       rg.stretchLo + (rg.stretchHi-rg.stretchLo)*d.rng.Float64(),
			PeriodStretch: rg.periodLo + (rg.periodHi-rg.periodLo)*d.rng.Float64(),
		}
		m, err := workload.Layered(d.rng, p)
		if err != nil {
			continue
		}
		fp := core.Fingerprint(m)
		if d.seen[fp] {
			continue
		}
		d.seen[fp] = true
		c, err := newClass(fmt.Sprintf("%s%d", d.prefix, d.next), m, fp)
		if err != nil {
			return nil, err
		}
		d.next++
		return c, nil
	}
	return nil, fmt.Errorf("regime %s: no new distinct class in 10000 draws", rg.name)
}

// newClass prints m as spec text and checks the round trip: the text
// the daemon parses must be the class the oracle judges.
func newClass(name string, m *core.Model, fp string) (*class, error) {
	text := spec.Print(name, m)
	sp, err := spec.Parse(text)
	if err != nil {
		return nil, fmt.Errorf("class %s: printed spec does not parse: %w", name, err)
	}
	if got := core.Fingerprint(sp.Model); got != fp {
		return nil, fmt.Errorf("class %s: printed spec changes the fingerprint", name)
	}
	return &class{name: name, model: m, text: text, fp: fp, body: []byte(text)}, nil
}

// elemName matches the layered generator's element names (L<layer>n<i>),
// which are also the task node names in printed specs.
var elemName = regexp.MustCompile(`L[0-9]+n[0-9]+`)

// surfaceText returns the spec text of surface k of c: every element
// (and task node) name gets the prefix "v<k>_". The prefix is shared,
// so element names keep their relative order; the fingerprint is
// unchanged and the request digest differs for every k. Surface -1 is
// the class's own text.
func (c *class) surfaceText(k int) string {
	if k < 0 {
		return c.text
	}
	return elemName.ReplaceAllString(c.text, "v"+strconv.Itoa(k)+"_$0")
}
