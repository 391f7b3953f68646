package store

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

func TestLeafOf(t *testing.T) {
	cases := map[string]int{
		"000abc": 0x000, "0abc": 0x0ab, "fff000": 0xfff, "a3f9": 0xa3f,
		"": 0, "zz": 0, "0z0": 0, "ab": 0,
	}
	for fp, want := range cases {
		if got := LeafOf(fp); got != want {
			t.Errorf("LeafOf(%q) = %#x, want %#x", fp, got, want)
		}
	}
}

func TestValidPrefix(t *testing.T) {
	for _, ok := range []string{"", "0", "a3", "fff"} {
		if !ValidPrefix(ok) {
			t.Errorf("ValidPrefix(%q) = false", ok)
		}
	}
	for _, bad := range []string{"ffff", "A3", "g", "a-"} {
		if ValidPrefix(bad) {
			t.Errorf("ValidPrefix(%q) = true", bad)
		}
	}
}

// randFp draws a uniformly random canonical-shape fingerprint, so
// records land in random leaves.
func randFp(rng *rand.Rand) string {
	const hexDigits = "0123456789abcdef"
	b := make([]byte, 64)
	for i := range b {
		b[i] = hexDigits[rng.Intn(16)]
	}
	return string(b)
}

func randRecord(rng *rand.Rand) *Record {
	fp := randFp(rng)
	if rng.Intn(2) == 0 {
		return &Record{Fingerprint: fp, Feasible: false, Elements: 2, Source: "exact"}
	}
	return &Record{Fingerprint: fp, Feasible: true, Elements: 2, Slots: []int{0, rng.Intn(2)}, Source: "exact"}
}

// refNode is one node of the reference tree: member count and raw
// digest.
type refNode struct {
	n   int
	sum []byte
}

// refTree recomputes the tree from scratch — leaves from the feasible
// records of the live index, each interior node as SHA-256 over its
// non-empty children's digests — as the oracle for the incrementally
// maintained leaf state. It returns the non-empty nodes at depths
// 1..MerkleDepth in the wire form Digests produces.
func refTree(s *Store) [][]PrefixDigest {
	s.mu.Lock()
	byLeaf := make(map[int][]string)
	for fp, r := range s.index {
		if r.Feasible {
			l := LeafOf(fp)
			byLeaf[l] = append(byLeaf[l], fp)
		}
	}
	s.mu.Unlock()
	v := make([]refNode, MerkleLeaves)
	for l := 0; l < MerkleLeaves; l++ {
		if fps := byLeaf[l]; len(fps) > 0 {
			sort.Strings(fps)
			h := sha256.New()
			for _, fp := range fps {
				h.Write([]byte(fp))
			}
			v[l] = refNode{len(fps), h.Sum(nil)}
		}
	}
	fold := func(level []refNode) []refNode {
		up := make([]refNode, len(level)/16)
		for i := range up {
			h := sha256.New()
			for _, c := range level[16*i : 16*i+16] {
				if c.n > 0 {
					up[i].n += c.n
					h.Write(c.sum)
				}
			}
			up[i].sum = h.Sum(nil)
		}
		return up
	}
	levels := make([][]PrefixDigest, MerkleDepth)
	for depth := MerkleDepth; depth >= 1; depth-- {
		width := DigestPrefixLen
		if depth == 1 {
			width = 2 * sha256.Size
		}
		for i := range v {
			if v[i].n > 0 {
				d := PrefixDigest{Prefix: fmt.Sprintf("%0*x", depth, i), Count: v[i].n, Digest: hex.EncodeToString(v[i].sum)[:width]}
				levels[depth-1] = append(levels[depth-1], d)
			}
		}
		v = fold(v)
	}
	return levels
}

func diffDigests(t *testing.T, step string, got, want []PrefixDigest) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d digest nodes, want %d", step, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: node %d: %+v != %+v", step, i, got[i], want[i])
		}
	}
}

// TestMerkleIncrementalMatchesRecompute is the digest-equivalence
// property test: after any randomized sequence of Put (feasible or
// NO, fresh or flipping an indexed verdict) / PutMemo / Drop /
// ImportFrames / Compact / reopen, the digests at every depth are
// byte-identical to a from-scratch recomputation of the tree over the
// feasible records. Memo writes and NOs never move it.
func TestMerkleIncrementalMatchesRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	dir := t.TempDir()
	s := openT(t, dir)

	// donor store whose exports feed the import ops
	donor := openT(t, t.TempDir())
	for i := 0; i < 40; i++ {
		if err := donor.Put(randRecord(rng)); err != nil {
			t.Fatal(err)
		}
	}

	check := func(step string) {
		t.Helper()
		want := refTree(s)
		for depth := 1; depth <= MerkleDepth; depth++ {
			got, err := s.Digests("", depth)
			if err != nil {
				t.Fatal(err)
			}
			diffDigests(t, fmt.Sprintf("%s depth %d", step, depth), got, want[depth-1])
		}
	}

	check("empty")
	for step := 0; step < 120; step++ {
		op := rng.Intn(11)
		switch {
		case op < 4: // Put
			if err := s.Put(randRecord(rng)); err != nil {
				t.Fatal(err)
			}
		case op < 5: // Put the opposite verdict over an indexed record
			if fps := s.Fingerprints(); len(fps) > 0 {
				rec := randRecord(rng)
				rec.Fingerprint = fps[rng.Intn(len(fps))]
				if old, _ := s.Get(rec.Fingerprint); old.Feasible == rec.Feasible {
					continue
				}
				if err := s.Put(rec); err != nil {
					t.Fatal(err)
				}
			}
		case op < 7: // PutMemo: fresh or merge into an existing class
			key := randFp(rng)
			if keys := s.MemoKeys(); len(keys) > 0 && rng.Intn(2) == 0 {
				key = keys[rng.Intn(len(keys))]
			}
			sig := make([]byte, 1+rng.Intn(12))
			rng.Read(sig)
			if err := s.PutMemo(key, []string{randFp(rng)}, [][]byte{sig}); err != nil {
				t.Fatal(err)
			}
		case op < 8: // Drop an existing record
			if fps := s.Fingerprints(); len(fps) > 0 {
				s.Drop(fps[rng.Intn(len(fps))])
			}
		case op < 9: // Import a donor subtree
			seg, _ := exportPrefix(t, donor, fmt.Sprintf("%x", rng.Intn(16)))
			if _, err := s.ImportFrames(seg); err != nil {
				t.Fatal(err)
			}
		case op < 10: // Compact
			if err := s.Compact(); err != nil {
				t.Fatal(err)
			}
		default: // reopen
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s = openT(t, dir)
		}
		check(fmt.Sprintf("step %d (op %d)", step, op))
	}
}

func TestDigestsValidation(t *testing.T) {
	s := openT(t, t.TempDir())
	for _, c := range []struct {
		prefix string
		depth  int
	}{{"zz", 1}, {"", 0}, {"", MerkleDepth + 1}, {"ab", 2}, {"fff", 4}} {
		if _, err := s.Digests(c.prefix, c.depth); err == nil {
			t.Errorf("Digests(%q, %d) accepted", c.prefix, c.depth)
		}
	}
	if _, err := s.LeafFingerprints("ab"); err == nil {
		t.Error("LeafFingerprints accepted a non-leaf prefix")
	}
}

// TestDigestsNarrowing pins the walk the syncer performs: a divergent
// top-level node narrows through depth 2 to exactly the leaves that
// differ.
func TestDigestsNarrowing(t *testing.T) {
	a := openT(t, t.TempDir())
	b := openT(t, t.TempDir())
	shared := []*Record{bucketRecord(4, 1), bucketRecord(4, 2), bucketRecord(9, 3)}
	for _, r := range shared {
		if err := a.Put(r); err != nil {
			t.Fatal(err)
		}
		if err := b.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	extra := bucketRecord(4, 9)
	extra.Fingerprint = "4a7" + extra.Fingerprint[3:]
	if err := a.Put(extra); err != nil {
		t.Fatal(err)
	}

	for depth := 1; depth <= MerkleDepth; depth++ {
		da, err := a.Digests("", depth)
		if err != nil {
			t.Fatal(err)
		}
		db, err := b.Digests("", depth)
		if err != nil {
			t.Fatal(err)
		}
		divergent := map[string]bool{}
		bm := map[string]PrefixDigest{}
		for _, d := range db {
			bm[d.Prefix] = d
		}
		for _, d := range da {
			if bm[d.Prefix] != d {
				divergent[d.Prefix] = true
			}
		}
		want := extra.Fingerprint[:depth]
		if len(divergent) != 1 || !divergent[want] {
			t.Fatalf("depth %d: divergent %v, want exactly %q", depth, divergent, want)
		}
	}

	peerFps, err := a.LeafFingerprints(extra.Fingerprint[:MerkleDepth])
	if err != nil {
		t.Fatal(err)
	}
	if len(peerFps) != 1 || peerFps[0] != extra.Fingerprint {
		t.Fatalf("leaf set = %v", peerFps)
	}
}

// TestExportRecordsSubset pins the delta-pull export: requested
// records round-trip through import, unknown fingerprints and
// duplicates are tolerated, and oversized requests are refused.
func TestExportRecordsSubset(t *testing.T) {
	src := openT(t, t.TempDir())
	var fps []string
	for i := 0; i < 6; i++ {
		r := bucketRecord(i%3, i)
		fps = append(fps, r.Fingerprint)
		if err := src.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	req := []string{fps[1], fps[4], fps[1], randFp(rand.New(rand.NewSource(1)))}
	seg, n, err := src.ExportRecords(req)
	if err != nil || n != 2 {
		t.Fatalf("export: n=%d err=%v", n, err)
	}
	dst := openT(t, t.TempDir())
	st, err := dst.ImportFrames(seg)
	if err != nil || st.Imported != 2 || st.Dropped {
		t.Fatalf("import: %+v err=%v", st, err)
	}
	for _, fp := range []string{fps[1], fps[4]} {
		if _, ok := dst.Get(fp); !ok {
			t.Fatalf("record %s missing after fetch import", fp)
		}
	}
	if _, _, err := src.ExportRecords(make([]string, maxFetchRecords+1)); err == nil {
		t.Fatal("oversized fetch accepted")
	}
}
