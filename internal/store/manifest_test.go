package store

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"rtm/internal/trace"
)

// bucketRecord builds a valid feasible record — the only kind the tree
// holds — pinned to a top-level tree node (one of the root's 16
// children) via the fingerprint's leading nibble.
func bucketRecord(bucket, i int) *Record {
	fp := fmt.Sprintf("%x%063x", bucket, i+1)
	return &Record{
		Fingerprint: fp, Feasible: true, Elements: 3,
		Slots: []int{0, -1, i % 3, 1}, Source: "heuristic", Unix: 1754_000_000,
	}
}

// exportPrefix seals every record under prefix through ExportRecords
// — the segment a delta fetch of the whole subtree moves.
func exportPrefix(t *testing.T, s *Store, prefix string) ([]byte, int) {
	t.Helper()
	var fps []string
	for _, fp := range s.Fingerprints() {
		if strings.HasPrefix(fp, prefix) {
			fps = append(fps, fp)
		}
	}
	seg, n, err := s.ExportRecords(fps)
	if err != nil {
		t.Fatal(err)
	}
	return seg, n
}

// TestManifestShape pins the top level of the tree — the root's
// children, which sync compares first: one node per non-empty leading
// nibble, with per-node counts and full-width digests. Deeper levels
// carry routing digests truncated to DigestPrefixLen.
func TestManifestShape(t *testing.T) {
	s := openT(t, t.TempDir())
	for _, b := range []int{0, 3, 3, 15} {
		if err := s.Put(bucketRecord(b, b*10+s.Len())); err != nil {
			t.Fatal(err)
		}
	}
	top, err := s.Digests("", 1)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{"0": 1, "3": 2, "f": 1}
	if len(top) != len(counts) {
		t.Fatalf("top level has %d nodes, want %d: %+v", len(top), len(counts), top)
	}
	for _, d := range top {
		if d.Count != counts[d.Prefix] {
			t.Fatalf("node %q count = %d, want %d", d.Prefix, d.Count, counts[d.Prefix])
		}
		if len(d.Digest) != 2*sha256.Size {
			t.Fatalf("node %q: %+v, want a full-width digest", d.Prefix, d)
		}
	}
	for depth := 2; depth <= MerkleDepth; depth++ {
		ds, err := s.Digests("", depth)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range ds {
			if len(d.Digest) != DigestPrefixLen {
				t.Fatalf("depth %d node %q: digest %q, want %d hex chars", depth, d.Prefix, d.Digest, DigestPrefixLen)
			}
		}
	}
}

// TestManifestDigestStableAcrossOrderings pins that every node digest
// is a pure function of the fingerprint set: inserting the same
// records in different orders (and via different code paths —
// Put vs ImportFrames) yields identical digests at every depth.
func TestManifestDigestStableAcrossOrderings(t *testing.T) {
	recs := make([]*Record, 0, 12)
	for i := 0; i < 12; i++ {
		recs = append(recs, bucketRecord(i%4, i))
	}

	treeOf := func(order []int, viaImport bool) [][]PrefixDigest {
		t.Helper()
		s := openT(t, t.TempDir())
		for _, i := range order {
			if viaImport {
				payload, err := trace.EncodeStoreRecord(recs[i])
				if err != nil {
					t.Fatal(err)
				}
				frame, err := Frame(payload)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := s.ImportFrames(frame); err != nil {
					t.Fatal(err)
				}
			} else if err := s.Put(recs[i]); err != nil {
				t.Fatal(err)
			}
		}
		var levels [][]PrefixDigest
		for depth := 1; depth <= MerkleDepth; depth++ {
			ds, err := s.Digests("", depth)
			if err != nil {
				t.Fatal(err)
			}
			levels = append(levels, ds)
		}
		return levels
	}

	base := treeOf([]int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, false)
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 4; trial++ {
		order := rng.Perm(len(recs))
		got := treeOf(order, trial%2 == 1)
		for depth := range base {
			diffDigests(t, fmt.Sprintf("trial %d depth %d (order %v)", trial, depth+1, order), got[depth], base[depth])
		}
	}
}

// TestExportImportByteExact pins the round trip: export → import into
// an empty store → re-export is byte-identical, and a second import is
// fully deduplicated.
func TestExportImportByteExact(t *testing.T) {
	src := openT(t, t.TempDir())
	for i := 0; i < 9; i++ {
		if err := src.Put(bucketRecord(i%2, i)); err != nil {
			t.Fatal(err)
		}
	}
	for b := 0; b < 16; b++ {
		prefix := fmt.Sprintf("%x", b)
		seg, n := exportPrefix(t, src, prefix)
		if b > 1 {
			if n != 0 || len(seg) != 0 {
				t.Fatalf("prefix %s: expected empty export, got %d records", prefix, n)
			}
			continue
		}

		dstDir := t.TempDir()
		dst := openT(t, dstDir)
		st, err := dst.ImportFrames(seg)
		if err != nil {
			t.Fatal(err)
		}
		if st.Imported != n || st.Unchanged != 0 || st.Dropped {
			t.Fatalf("prefix %s import: %+v, want %d imported", prefix, st, n)
		}
		back, n2 := exportPrefix(t, dst, prefix)
		if n2 != n || !bytes.Equal(back, seg) {
			t.Fatalf("prefix %s: re-export differs (%d vs %d records)", prefix, n2, n)
		}
		// idempotence: importing again changes nothing
		st2, err := dst.ImportFrames(seg)
		if err != nil {
			t.Fatal(err)
		}
		if st2.Imported != 0 || st2.Unchanged != n || st2.Dropped {
			t.Fatalf("prefix %s re-import: %+v, want %d unchanged", prefix, st2, n)
		}

		// imported records survive a restart through the local log
		if err := dst.Close(); err != nil {
			t.Fatal(err)
		}
		re := openT(t, dstDir)
		if re.Len() != n || re.CorruptSkipped() != 0 {
			t.Fatalf("prefix %s reopen after import: len=%d corrupt=%d", prefix, re.Len(), re.CorruptSkipped())
		}
	}
}

// TestImportCorruptSegmentSkippedNotServed flips every byte of a small
// sealed segment and asserts the import path never errors, never
// panics, and never indexes a record that was not in the original set
// — a corrupt segment degrades to missing records, not wrong ones.
func TestImportCorruptSegmentSkippedNotServed(t *testing.T) {
	src := openT(t, t.TempDir())
	want := map[string]*Record{}
	for i := 0; i < 3; i++ {
		r := bucketRecord(5, i)
		want[r.Fingerprint] = r
		if err := src.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	seg, n := exportPrefix(t, src, "5")
	if n != 3 {
		t.Fatalf("export: n=%d, want 3", n)
	}

	var sawDrop, sawPartial bool
	for off := 0; off < len(seg); off++ {
		for _, delta := range []byte{0x01, 0xff} {
			mut := append([]byte(nil), seg...)
			mut[off] ^= delta
			dst := openT(t, t.TempDir())
			st, err := dst.ImportFrames(mut)
			if err != nil {
				t.Fatalf("offset %d: import errored: %v", off, err)
			}
			if st.Dropped {
				sawDrop = true
			}
			if st.Imported < n {
				sawPartial = true
			}
			// whatever survived must be a subset of the originals,
			// byte-for-byte
			for _, fp := range dst.Fingerprints() {
				orig, ok := want[fp]
				if !ok {
					t.Fatalf("offset %d: imported unknown fingerprint %s", off, fp)
				}
				got, _ := dst.Get(fp)
				if !sameRecord(got, orig) {
					t.Fatalf("offset %d: record %s mutated in flight", off, fp)
				}
			}
			dst.Close()
		}
	}
	if !sawDrop || !sawPartial {
		t.Fatalf("corruption sweep never tripped the drop path (drop=%v partial=%v)", sawDrop, sawPartial)
	}
}

// TestImportFirstWriteWins pins the conflict rule: a record for an
// already-indexed fingerprint is skipped, keeping the local verdict.
func TestImportFirstWriteWins(t *testing.T) {
	local := openT(t, t.TempDir())
	mine := &Record{Fingerprint: bucketRecord(2, 0).Fingerprint, Feasible: true, Elements: 2, Slots: []int{0, 1}, Source: "exact"}
	if err := local.Put(mine); err != nil {
		t.Fatal(err)
	}

	remote := openT(t, t.TempDir())
	theirs := &Record{Fingerprint: mine.Fingerprint, Feasible: true, Elements: 2, Slots: []int{1, 0}, Source: "heuristic"}
	if err := remote.Put(theirs); err != nil {
		t.Fatal(err)
	}
	seg, _ := exportPrefix(t, remote, "2")

	st, err := local.ImportFrames(seg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Imported != 0 || st.Unchanged != 1 {
		t.Fatalf("import: %+v, want 1 unchanged", st)
	}
	got, _ := local.Get(mine.Fingerprint)
	if !sameRecord(got, mine) {
		t.Fatalf("import overwrote the local record: %+v", got)
	}
}

// TestNoRecordsStayLocal pins the replication trust rule in the store:
// a NO is served from the node that decided it but never enters the
// Merkle tree, a fetch, or — from a peer — the index, whatever its
// Source. A fingerprint held as a NO still counts as present, so a
// peer's feasible record for it is not fetched round after round.
func TestNoRecordsStayLocal(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir)
	yes := bucketRecord(6, 1)
	no := &Record{Fingerprint: bucketRecord(6, 2).Fingerprint, Elements: 3, Source: "exact"}
	for _, r := range []*Record{yes, no} {
		if err := s.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	unknown := bucketRecord(6, 3).Fingerprint
	tree := func(step string, want ...string) {
		t.Helper()
		ds, err := s.Digests("", 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(ds) != 1 || ds[0].Count != len(want) {
			t.Fatalf("%s: top level %+v, want one node of %d", step, ds, len(want))
		}
		leaf, err := s.LeafFingerprints(yes.Fingerprint[:MerkleDepth])
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(leaf) != fmt.Sprint(want) {
			t.Fatalf("%s: leaf holds %v, want %v", step, leaf, want)
		}
		if _, n, err := s.ExportRecords([]string{no.Fingerprint, yes.Fingerprint}); err != nil || n != len(want) {
			t.Fatalf("%s: exported %d records (%v), want %d", step, n, err, len(want))
		}
	}
	tree("put", yes.Fingerprint)
	if got, ok := s.Get(no.Fingerprint); !ok || got.Feasible {
		t.Fatalf("local NO not served: %+v", got)
	}
	if got := s.Missing([]string{no.Fingerprint, unknown, yes.Fingerprint}); fmt.Sprint(got) != fmt.Sprint([]string{unknown}) {
		t.Fatalf("Missing = %v, want only the unknown fingerprint", got)
	}

	// a verdict that flips moves the fingerprint in and out of the tree
	flipped := bucketRecord(6, 2)
	if err := s.Put(flipped); err != nil {
		t.Fatal(err)
	}
	tree("flip to feasible", yes.Fingerprint, no.Fingerprint)
	if err := s.Put(no); err != nil {
		t.Fatal(err)
	}
	tree("flip back to NO", yes.Fingerprint)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s = openT(t, dir)
	tree("reopen", yes.Fingerprint)

	// from a peer, every NO is refused whatever its Source
	var seg []byte
	for _, r := range []*Record{
		{Fingerprint: unknown, Elements: 3, Source: "analysis"},
		{Fingerprint: bucketRecord(6, 4).Fingerprint, Elements: 3, Source: "exact"},
		bucketRecord(6, 5),
	} {
		payload, err := trace.EncodeStoreRecord(r)
		if err != nil {
			t.Fatal(err)
		}
		seg = append(seg, mustFrame(t, payload)...)
	}
	st, err := s.ImportFrames(seg)
	if err != nil || st.Imported != 1 || st.Refused != 2 || st.Dropped {
		t.Fatalf("import: %+v (%v), want 1 imported and 2 refused", st, err)
	}
	if s.Len() != 3 {
		t.Fatalf("store holds %d records after the import, want 3", s.Len())
	}
}
