package store

import (
	"bytes"
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

// refTree recomputes both tiers' trees from scratch — leaves from the
// live indexes, each interior node as SHA-256 over its non-empty
// children's digests — as the oracle for the incrementally maintained
// leaf state. It returns the non-empty nodes at depths 1..MerkleDepth
// in the wire form Digests produces.
func refTree(s *Store) [][]PrefixDigest {
	s.mu.Lock()
	vByLeaf := make(map[int][]string)
	for fp := range s.index {
		l := LeafOf(fp)
		vByLeaf[l] = append(vByLeaf[l], fp)
	}
	mByLeaf := make(map[int][]*MemoRecord)
	for k, r := range s.memo {
		l := LeafOf(k)
		mByLeaf[l] = append(mByLeaf[l], r)
	}
	s.mu.Unlock()
	v, m := make([]refNode, MerkleLeaves), make([]refNode, MerkleLeaves)
	for l := 0; l < MerkleLeaves; l++ {
		if fps := vByLeaf[l]; len(fps) > 0 {
			sort.Strings(fps)
			h := sha256.New()
			for _, fp := range fps {
				h.Write([]byte(fp))
			}
			v[l] = refNode{len(fps), h.Sum(nil)}
		}
		if recs := mByLeaf[l]; len(recs) > 0 {
			sort.Slice(recs, func(i, j int) bool { return recs[i].Key < recs[j].Key })
			h := sha256.New()
			for _, r := range recs {
				writeMemoRecordDigest(h, r)
			}
			m[l] = refNode{len(recs), h.Sum(nil)}
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
			if v[i].n == 0 && m[i].n == 0 {
				continue
			}
			d := PrefixDigest{Prefix: fmt.Sprintf("%0*x", depth, i)}
			if v[i].n > 0 {
				d.Count, d.Digest = v[i].n, hex.EncodeToString(v[i].sum)[:width]
			}
			if m[i].n > 0 {
				d.MemoCount, d.MemoDigest = m[i].n, hex.EncodeToString(m[i].sum)[:width]
			}
			levels[depth-1] = append(levels[depth-1], d)
		}
		v, m = fold(v), fold(m)
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
// property test: after any randomized sequence of Put / PutMemo /
// Drop / ImportFrames / ImportMemoFrames / Compact / reopen, the
// digests at every depth are byte-identical to a from-scratch
// recomputation of the tree, for both tiers.
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
		if err := donor.PutMemo(randFp(rng), []string{randFp(rng)}, [][]byte{{byte(i), 1, 2}}); err != nil {
			t.Fatal(err)
		}
	}

	check := func(step string) {
		t.Helper()
		want := refTree(s)
		for depth := 1; depth <= MerkleDepth; depth++ {
			got, err := s.Digests("", depth, true, true)
			if err != nil {
				t.Fatal(err)
			}
			diffDigests(t, fmt.Sprintf("%s depth %d", step, depth), got, want[depth-1])
		}
	}

	check("empty")
	for step := 0; step < 120; step++ {
		op := rng.Intn(10)
		switch {
		case op < 4: // Put
			if err := s.Put(randRecord(rng)); err != nil {
				t.Fatal(err)
			}
		case op < 6: // PutMemo: fresh or merge into an existing class
			key := randFp(rng)
			if keys := s.MemoKeys(); len(keys) > 0 && rng.Intn(2) == 0 {
				key = keys[rng.Intn(len(keys))]
			}
			sig := make([]byte, 1+rng.Intn(12))
			rng.Read(sig)
			if err := s.PutMemo(key, []string{randFp(rng)}, [][]byte{sig}); err != nil {
				t.Fatal(err)
			}
		case op < 7: // Drop an existing record
			if fps := s.Fingerprints(); len(fps) > 0 {
				s.Drop(fps[rng.Intn(len(fps))])
			}
		case op < 8: // Import a donor subtree (both tiers)
			prefix := fmt.Sprintf("%x", rng.Intn(16))
			seg, _ := exportPrefix(t, donor, prefix)
			if _, err := s.ImportFrames(seg); err != nil {
				t.Fatal(err)
			}
			mseg, _, err := donor.ExportMemoPrefix(prefix)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.ImportMemoFrames(mseg); err != nil {
				t.Fatal(err)
			}
		case op < 9: // Compact
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
		if _, err := s.Digests(c.prefix, c.depth, true, true); err == nil {
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
	extra := &Record{Fingerprint: "4a7" + bucketRecord(4, 9).Fingerprint[3:], Feasible: false, Elements: 2, Source: "exact"}
	if err := a.Put(extra); err != nil {
		t.Fatal(err)
	}

	for depth := 1; depth <= MerkleDepth; depth++ {
		da, err := a.Digests("", depth, true, false)
		if err != nil {
			t.Fatal(err)
		}
		db, err := b.Digests("", depth, true, false)
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

// TestExportMemoPrefixMatchesBucket pins that concatenating a
// top-level node's leaf-level memo exports reproduces the node's own
// export byte for byte — leaf pulls and subtree pulls import the same
// records.
func TestExportMemoPrefixMatchesBucket(t *testing.T) {
	s := openT(t, t.TempDir())
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 30; i++ {
		key := "5" + randFp(rng)[1:]
		if err := s.PutMemo(key, nil, [][]byte{{byte(i), 9}}); err != nil {
			t.Fatal(err)
		}
	}
	nodeSeg, nn, err := s.ExportMemoPrefix("5")
	if err != nil || nn != 30 {
		t.Fatalf("node export: n=%d err=%v", nn, err)
	}
	var joined []byte
	ln := 0
	for v := 0; v < MerkleLeaves/16; v++ {
		prefix := fmt.Sprintf("5%0*x", MerkleDepth-1, v)
		seg, n, err := s.ExportMemoPrefix(prefix)
		if err != nil {
			t.Fatal(err)
		}
		joined = append(joined, seg...)
		ln += n
	}
	if ln != nn || !bytes.Equal(joined, nodeSeg) {
		t.Fatalf("leaf exports (%d recs) != node export (%d recs)", ln, nn)
	}
	if _, _, err := s.ExportMemoPrefix(""); err == nil {
		t.Fatal("root memo export accepted")
	}
}
