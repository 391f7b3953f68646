// Package sched implements the execution-trace semantics of the
// graph-based model: static schedules (finite strings over V ∪ {φ}),
// the execution traces their round-robin repetition generates, the
// latency of a schedule with respect to a timing constraint, and
// feasibility checking of a schedule against a whole model.
package sched

import (
	"fmt"
	"strings"
)

// Idle is the φ symbol: the processor idles in that slot.
const Idle = ""

// Schedule is a static schedule: a finite string of symbols in
// V ∪ {φ}. A round-robin run-time scheduler repeats it forever, so
// slot t of the generated execution trace is Slots[t mod len(Slots)].
type Schedule struct {
	Slots []string
}

// New returns a schedule over the given slots (copied).
func New(slots ...string) *Schedule {
	s := make([]string, len(slots))
	copy(s, slots)
	return &Schedule{Slots: s}
}

// Len returns the schedule length (the cycle of the round-robin
// scheduler).
func (s *Schedule) Len() int { return len(s.Slots) }

// At returns the element executed in trace slot [t, t+1], i.e. the
// infinite periodic extension of the schedule.
func (s *Schedule) At(t int) string {
	if len(s.Slots) == 0 {
		return Idle
	}
	return s.Slots[t%len(s.Slots)]
}

// Unroll returns the first k slots of the generated execution trace.
func (s *Schedule) Unroll(k int) []string {
	out := make([]string, k)
	for i := 0; i < k; i++ {
		out[i] = s.At(i)
	}
	return out
}

// Remap returns a copy of the schedule with every non-idle slot
// renamed through f. Idle slots stay idle. It translates schedules
// between models that are identical up to element renaming — the
// canonical schedule cache stores one schedule per isomorphism class
// and remaps it into each requester's element names.
func (s *Schedule) Remap(f func(string) string) *Schedule {
	out := &Schedule{Slots: make([]string, len(s.Slots))}
	for i, x := range s.Slots {
		if x == Idle {
			continue
		}
		out.Slots[i] = f(x)
	}
	return out
}

// ToIndices converts the schedule to index form through index
// (element name → index): idle slots become -1, every other slot
// becomes its element's index. It errors on slots naming elements
// missing from the index. Index form is what the canonical schedule
// cache and the durable schedule store persist — one index-form
// schedule serves every model in an isomorphism class, each through
// its own canonical element order.
func (s *Schedule) ToIndices(index map[string]int) ([]int, error) {
	out := make([]int, len(s.Slots))
	for i, e := range s.Slots {
		if e == Idle {
			out[i] = -1
			continue
		}
		idx, ok := index[e]
		if !ok {
			return nil, fmt.Errorf("sched: slot %d executes %q, not in the element index", i, e)
		}
		out[i] = idx
	}
	return out, nil
}

// FromIndices is the inverse of ToIndices: it materializes an
// index-form schedule over the element order (slot value v ∈ [0,
// len(order)) executes order[v]; -1 idles). It errors on any other
// value — the bounds check that keeps untrusted index-form schedules
// (e.g. a record read back from disk) from panicking the caller.
func FromIndices(order []string, idx []int) (*Schedule, error) {
	out := &Schedule{Slots: make([]string, len(idx))}
	for i, v := range idx {
		switch {
		case v == -1:
			// idle
		case v >= 0 && v < len(order):
			out.Slots[i] = order[v]
		default:
			return nil, fmt.Errorf("sched: slot %d has index %d, want -1 or [0,%d)", i, v, len(order))
		}
	}
	return out, nil
}

// BusySlots returns the number of non-idle slots per cycle.
func (s *Schedule) BusySlots() int {
	n := 0
	for _, x := range s.Slots {
		if x != Idle {
			n++
		}
	}
	return n
}

// Utilization returns the fraction of non-idle slots.
func (s *Schedule) Utilization() float64 {
	if len(s.Slots) == 0 {
		return 0
	}
	return float64(s.BusySlots()) / float64(len(s.Slots))
}

// Count returns how many slots per cycle execute the given element.
func (s *Schedule) Count(elem string) int {
	n := 0
	for _, x := range s.Slots {
		if x == elem {
			n++
		}
	}
	return n
}

// Clone returns a copy of the schedule.
func (s *Schedule) Clone() *Schedule {
	return New(s.Slots...)
}

// Equal reports slot-wise equality.
func (s *Schedule) Equal(o *Schedule) bool {
	if len(s.Slots) != len(o.Slots) {
		return false
	}
	for i := range s.Slots {
		if s.Slots[i] != o.Slots[i] {
			return false
		}
	}
	return true
}

// CanonicalRotation returns the lexicographically least rotation of
// the schedule. Two schedules generating the same infinite trace up
// to phase share a canonical rotation, which the exact searcher uses
// to prune equivalent candidates.
func (s *Schedule) CanonicalRotation() *Schedule {
	n := len(s.Slots)
	if n == 0 {
		return s.Clone()
	}
	best := 0
	for cand := 1; cand < n; cand++ {
		for k := 0; k < n; k++ {
			a := s.Slots[(best+k)%n]
			b := s.Slots[(cand+k)%n]
			if a != b {
				if b < a {
					best = cand
				}
				break
			}
		}
	}
	out := make([]string, n)
	for k := 0; k < n; k++ {
		out[k] = s.Slots[(best+k)%n]
	}
	return &Schedule{Slots: out}
}

// String renders the schedule with φ for idle slots.
func (s *Schedule) String() string {
	parts := make([]string, len(s.Slots))
	for i, x := range s.Slots {
		if x == Idle {
			parts[i] = "φ"
		} else {
			parts[i] = x
		}
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// ParseString parses the String format back into a schedule; tokens
// are whitespace-separated, with φ, "-" or "_" meaning idle.
func ParseString(text string) (*Schedule, error) {
	text = strings.TrimSpace(text)
	text = strings.TrimPrefix(text, "[")
	text = strings.TrimSuffix(text, "]")
	if strings.TrimSpace(text) == "" {
		return New(), nil
	}
	fields := strings.Fields(text)
	slots := make([]string, len(fields))
	for i, f := range fields {
		switch f {
		case "φ", "-", "_":
			slots[i] = Idle
		default:
			slots[i] = f
		}
	}
	if len(slots) == 0 {
		return nil, fmt.Errorf("sched: empty schedule text %q", text)
	}
	return &Schedule{Slots: slots}, nil
}
