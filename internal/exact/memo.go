package exact

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sort"
	"sync"

	"rtm/internal/core"
)

// Durable transposition-table export/import (DESIGN.md §14). A memo
// signature is a pure function of the problem structure — symbol ids,
// weights, window demands, pruner configuration — never of element
// names or wall-clock state, so a leaf-free refutation derived in one
// process is byte-for-byte meaningful in any other process searching
// a problem with the identical structure. Snapshot exports the derived
// refutations after a search; Seed pre-loads them before the next one;
// MemoKey names the equivalence class inside which that transfer is
// sound.

// Seed pre-loads sigs as known-empty subtrees. It must be called
// before the search starts (the seeded set is probed without locking).
// Empty signatures are ignored; duplicates collapse. Returns the
// number of signatures loaded.
//
// Soundness does not depend on the caller: a signature that is not a
// possible buildSig output for this problem simply never matches a
// probe (probes compare exact bytes, not hashes), so a corrupt or
// foreign seed can waste memory but never change a verdict — the
// poisoned-seed differential test pins this.
func (t *memoTable) Seed(sigs [][]byte) int {
	if t.seeded == nil {
		t.seeded = make(map[string]struct{}, len(sigs))
	}
	for _, sig := range sigs {
		if len(sig) == 0 {
			continue
		}
		t.seeded[string(sig)] = struct{}{}
	}
	return len(t.seeded)
}

// Snapshot returns the signatures derived during the search — the
// seeded set is excluded, so a caller persisting snapshots never
// re-writes what it already stored. Signatures are sorted descending
// by bytes.Compare: the first encoded field is the remaining-slot
// count, so under a size cap the deepest (largest-subtree) refutations
// survive first, and the order is deterministic.
func (t *memoTable) Snapshot() [][]byte {
	out := make([][]byte, 0, len(t.m))
	for sig := range t.m {
		out = append(out, []byte(sig))
	}
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i], out[j]) > 0 })
	return out
}

// memoKeyVersion tags the signature format. Any change to buildSig,
// the orbit machinery, or the window extraction must bump it — a key
// mismatch only costs a cold start.
const memoKeyVersion = "rtm-memo-v1"

// MemoKey names the equivalence class of problems whose memo
// signatures are mutually transferable: a SHA-256 over the exact
// problem structure the signatures are defined in terms of — symbol
// count, per-symbol weights, every deadline-window demand spec, the
// rotation/contiguity regime, and the orbit symmetry-breaking chains
// (a refutation derived under orbit pruning claims emptiness only of
// the orbit-canonical subtree, so the orbit structure must match
// exactly for the claim to transfer). Element names are NOT part of
// the key: symbol ids come from the sorted element order, so a model
// differing only in a fingerprint-changing way that preserves this
// structure — renumbered precedence edges, rerouted comm paths, equal
// sorted names — lands in the same class and inherits its refutations.
//
// The second return is false when the problem is not memoizable
// (memoOK): there is then nothing to seed or snapshot.
func MemoKey(m *core.Model, opt Options) (string, bool) {
	p := newProblem(m, opt)
	if !p.memoOK {
		return "", false
	}
	h := sha256.New()
	var buf [binary.MaxVarintLen64]byte
	wInt := func(v int) {
		n := binary.PutVarint(buf[:], int64(v))
		h.Write(buf[:n])
	}
	h.Write([]byte(memoKeyVersion))
	wInt(len(p.syms))
	for _, w := range p.weights {
		wInt(w)
	}
	wInt(len(p.needs))
	for i := range p.needs {
		spec := &p.needs[i]
		wInt(spec.d)
		wInt(spec.period)
		wInt(len(spec.pairs))
		for _, pr := range spec.pairs {
			wInt(pr.sym)
			wInt(pr.k)
		}
	}
	flags := 0
	if p.breakRotations {
		flags |= 1
	}
	if p.contiguous {
		flags |= 2
	}
	if p.orbitPrev != nil {
		flags |= 4
	}
	wInt(flags)
	if p.orbitPrev != nil {
		for _, op := range p.orbitPrev {
			wInt(op)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), true
}

// sigPool recycles signature scratch buffers across the per-length
// state rebuilds of the iterative deepening and across searches: every
// buildSig appends into a pooled buffer instead of a fresh per-state
// allocation.
var sigPool = sync.Pool{New: func() any { b := make([]byte, 0, 256); return &b }}

// acquireSigbuf attaches a pooled scratch buffer to the state.
func (s *state) acquireSigbuf() {
	pb := sigPool.Get().(*[]byte)
	s.sigbuf = (*pb)[:0]
	s.sigpool = pb
}

// releaseSigbuf returns the scratch buffer (possibly regrown by
// buildSig) to the pool. The state must not build signatures after.
func (s *state) releaseSigbuf() {
	if s.sigpool == nil {
		return
	}
	*s.sigpool = s.sigbuf[:0]
	sigPool.Put(s.sigpool)
	s.sigpool = nil
	s.sigbuf = nil
}
