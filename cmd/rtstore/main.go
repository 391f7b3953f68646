// Command rtstore inspects and maintains a durable schedule store
// (internal/store) — the on-disk L2 tier behind rtserved's schedule
// cache.
//
// Usage:
//
//	rtstore -dir DIR ls                 list records (fingerprint, verdict, slots, source) and memo classes
//	rtstore -dir DIR stat               store totals (records, bytes, memo classes/sigs, corrupt skipped)
//	rtstore -dir DIR get <fingerprint>  print one record as JSON
//	rtstore -dir DIR memo <fingerprint> refutation-cache summary for a fingerprint's memo class
//	rtstore -dir DIR compact            rewrite both logs to the live indexes (atomic rename)
//	rtstore -dir DIR verify             replay the logs and report integrity
//	rtstore -dir DIR [-depth N] manifest   per-prefix counts and digests of the feasible records
//	rtstore -dir DIR [-depth N] diff DIR2  compare two stores' digests, list one-sided records
//
// manifest prints the same digests rtserved exposes at
// /cluster/digests/, so an operator can compare a node's disk state
// against the fleet by hand. They cover the feasible records only, the
// set that replicates: NOs and the memo tier stay on the node that
// wrote them. -depth widens the view from the default
// top level of the Merkle tree (depth 1, full-width digests) down to
// its leaves (depth 3) — the same levels the syncer walks. diff exits non-zero when
// the stores differ, so it doubles as a replication-convergence probe.
//
// Opening a store performs recovery: a torn or corrupt tail is
// truncated to the clean prefix (the same recovery rtserved performs
// at startup). verify exits non-zero when it had to discard anything,
// so it doubles as a CI/cron health probe.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"rtm/internal/store"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "rtstore: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("rtstore", flag.ContinueOnError)
	dir := fs.String("dir", "", "schedule store directory")
	depth := fs.Int("depth", 1, fmt.Sprintf("digest depth for manifest/diff: 1 (top level) to %d (Merkle leaves)", store.MerkleDepth))
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("-dir is required")
	}
	if *depth < 1 || *depth > store.MerkleDepth {
		return fmt.Errorf("-depth must be in [1,%d]", store.MerkleDepth)
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("missing command: ls, stat, get, memo, compact, verify, manifest, or diff")
	}
	st, err := store.Open(*dir, store.Options{})
	if err != nil {
		return err
	}
	defer st.Close()

	switch cmd := fs.Arg(0); cmd {
	case "ls":
		for _, fp := range st.Fingerprints() {
			rec, _ := st.Get(fp)
			verdict := "infeasible"
			if rec.Feasible {
				verdict = fmt.Sprintf("feasible cycle=%d", len(rec.Slots))
			}
			fmt.Fprintf(out, "%s  %-20s elems=%-3d source=%s\n", fp, verdict, rec.Elements, rec.Source)
		}
		for _, k := range st.MemoKeys() {
			rec, _ := st.GetMemo(k)
			fmt.Fprintf(out, "%s  memo class          sigs=%-5d fingerprints=%d\n", k, len(rec.Sigs), len(rec.Fingerprints))
		}
		return nil
	case "stat":
		fmt.Fprintf(out, "dir:             %s\n", st.Dir())
		fmt.Fprintf(out, "records:         %d\n", st.Len())
		fmt.Fprintf(out, "bytes:           %d\n", st.Bytes())
		fmt.Fprintf(out, "memo classes:    %d\n", st.MemoLen())
		fmt.Fprintf(out, "memo sigs:       %d\n", st.MemoSigs())
		fmt.Fprintf(out, "memo bytes:      %d\n", st.MemoBytes())
		fmt.Fprintf(out, "corrupt skipped: %d\n", st.CorruptSkipped())
		return nil
	case "get":
		if fs.NArg() != 2 {
			return fmt.Errorf("usage: rtstore -dir DIR get <fingerprint>")
		}
		rec, ok := st.Get(fs.Arg(1))
		if !ok {
			return fmt.Errorf("no record for %s", fs.Arg(1))
		}
		data, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%s\n", data)
		return nil
	case "memo":
		if fs.NArg() != 2 {
			return fmt.Errorf("usage: rtstore -dir DIR memo <fingerprint-or-key>")
		}
		rec, ok := st.MemoForFingerprint(fs.Arg(1))
		if !ok {
			rec, ok = st.GetMemo(fs.Arg(1)) // also accept a class key directly
		}
		if !ok {
			return fmt.Errorf("no memo class for %s", fs.Arg(1))
		}
		fmt.Fprintf(out, "class:        %s\n", rec.Key)
		fmt.Fprintf(out, "signatures:   %d\n", len(rec.Sigs))
		fmt.Fprintf(out, "fingerprints: %d\n", len(rec.Fingerprints))
		for _, fp := range rec.Fingerprints {
			fmt.Fprintf(out, "  %s\n", fp)
		}
		return nil
	case "compact":
		before := st.Bytes() + st.MemoBytes()
		if err := st.Compact(); err != nil {
			return err
		}
		fmt.Fprintf(out, "compacted %d records + %d memo classes: %d -> %d bytes\n",
			st.Len(), st.MemoLen(), before, st.Bytes()+st.MemoBytes())
		return nil
	case "verify":
		// Open already replayed both logs, validated every frame and
		// record, and truncated any damage to the clean prefix
		fmt.Fprintf(out, "%d records + %d memo classes, %d bytes clean", st.Len(), st.MemoLen(), st.Bytes()+st.MemoBytes())
		if n := st.CorruptSkipped(); n > 0 {
			fmt.Fprintf(out, ", %d torn/corrupt tail(s) discarded\n", n)
			return fmt.Errorf("log had damage (now truncated to the clean prefix)")
		}
		fmt.Fprintf(out, ", ok\n")
		return nil
	case "manifest":
		ds, err := st.Digests("", *depth)
		if err != nil {
			return err
		}
		total := 0
		for _, d := range ds {
			fmt.Fprintf(out, "prefix %-3s: %4d records  %s\n", d.Prefix, d.Count, d.Digest)
			total += d.Count
		}
		fmt.Fprintf(out, "total: %d feasible records in %d non-empty depth-%d prefixes\n", total, len(ds), *depth)
		return nil
	case "diff":
		if fs.NArg() != 2 {
			return fmt.Errorf("usage: rtstore -dir DIR diff DIR2")
		}
		other, err := store.Open(fs.Arg(1), store.Options{})
		if err != nil {
			return err
		}
		defer other.Close()
		return diffStores(out, st, other, *depth)
	default:
		return fmt.Errorf("unknown command %q: want ls, stat, get, memo, compact, verify, manifest, or diff", cmd)
	}
}

// diffStores compares two stores prefix by prefix at the chosen
// depth — the same digest-first comparison the anti-entropy syncer
// runs over HTTP — and lists the one-sided fingerprints of every
// differing prefix. It returns a non-nil error when the stores
// differ.
func diffStores(out io.Writer, a, b *store.Store, depth int) error {
	am, err := digestsByPrefix(a, depth)
	if err != nil {
		return err
	}
	bm, err := digestsByPrefix(b, depth)
	if err != nil {
		return err
	}
	prefixes := make([]string, 0, len(am))
	for p := range am {
		prefixes = append(prefixes, p)
	}
	for p := range bm {
		if _, ok := am[p]; !ok {
			prefixes = append(prefixes, p)
		}
	}
	sort.Strings(prefixes)
	haveA, haveB := fingerprintSet(a), fingerprintSet(b)
	differing := 0
	for _, p := range prefixes {
		ad, bd := am[p], bm[p]
		if ad.Digest == bd.Digest {
			continue
		}
		differing++
		fmt.Fprintf(out, "prefix %s differs (%d vs %d records)\n", p, ad.Count, bd.Count)
		for _, fp := range a.Fingerprints() {
			if strings.HasPrefix(fp, p) && !haveB[fp] {
				fmt.Fprintf(out, "  only in %s: %s\n", a.Dir(), fp)
			}
		}
		for _, fp := range b.Fingerprints() {
			if strings.HasPrefix(fp, p) && !haveA[fp] {
				fmt.Fprintf(out, "  only in %s: %s\n", b.Dir(), fp)
			}
		}
	}
	if differing > 0 {
		return fmt.Errorf("stores differ in %d prefix(es)", differing)
	}
	fmt.Fprintln(out, "stores converged: manifests identical")
	return nil
}

// digestsByPrefix indexes a store's non-empty depth-d digest nodes by
// prefix. Prefixes absent from the map compare as the zero digest —
// empty on both sides is converged, one-sided is a difference.
func digestsByPrefix(s *store.Store, depth int) (map[string]store.PrefixDigest, error) {
	ds, err := s.Digests("", depth)
	if err != nil {
		return nil, err
	}
	m := make(map[string]store.PrefixDigest, len(ds))
	for _, d := range ds {
		m[d.Prefix] = d
	}
	return m, nil
}

// fingerprintSet snapshots a store's fingerprints for membership tests.
func fingerprintSet(s *store.Store) map[string]bool {
	set := make(map[string]bool, s.Len())
	for _, fp := range s.Fingerprints() {
		set[fp] = true
	}
	return set
}
