package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rtm/internal/store"
)

func seedStore(t *testing.T) (string, []string) {
	t.Helper()
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var fps []string
	for i := 0; i < 3; i++ {
		fp := fmt.Sprintf("%064x", i+1)
		rec := &store.Record{Fingerprint: fp, Feasible: true, Elements: 2, Slots: []int{0, 1, -1}, Source: "exact"}
		if i == 2 {
			rec = &store.Record{Fingerprint: fp, Feasible: false, Elements: 2, Source: "analysis"}
		}
		if err := st.Put(rec); err != nil {
			t.Fatal(err)
		}
		fps = append(fps, fp)
	}
	return dir, fps
}

func runT(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var b strings.Builder
	err := run(args, &b)
	return b.String(), err
}

func TestRTStoreCommands(t *testing.T) {
	dir, fps := seedStore(t)

	out, err := runT(t, "-dir", dir, "ls")
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(out, "\n"); lines != 3 {
		t.Fatalf("ls printed %d lines:\n%s", lines, out)
	}
	if !strings.Contains(out, "feasible cycle=3") || !strings.Contains(out, "infeasible") {
		t.Fatalf("ls output:\n%s", out)
	}

	out, err = runT(t, "-dir", dir, "stat")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "records:         3") || !strings.Contains(out, "corrupt skipped: 0") {
		t.Fatalf("stat output:\n%s", out)
	}

	out, err = runT(t, "-dir", dir, "get", fps[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, `"fingerprint": "`+fps[0]+`"`) {
		t.Fatalf("get output:\n%s", out)
	}
	if _, err := runT(t, "-dir", dir, "get", strings.Repeat("0", 64)); err == nil {
		t.Fatal("get of a missing fingerprint succeeded")
	}

	out, err = runT(t, "-dir", dir, "verify")
	if err != nil || !strings.Contains(out, "ok") {
		t.Fatalf("verify: err=%v out=%s", err, out)
	}

	out, err = runT(t, "-dir", dir, "compact")
	if err != nil || !strings.Contains(out, "compacted 3 records") {
		t.Fatalf("compact: err=%v out=%s", err, out)
	}
}

func TestRTStoreManifestAndDiff(t *testing.T) {
	dir, fps := seedStore(t)

	out, err := runT(t, "-dir", dir, "manifest")
	if err != nil {
		t.Fatal(err)
	}
	// the NO (fps[2]) is not in the tree: it never replicates
	if !strings.Contains(out, "total: 2 feasible records in 1 non-empty depth-1 prefixes") {
		t.Fatalf("manifest output:\n%s", out)
	}
	// the seed fingerprints %064x of 1..3 all live in bucket 0
	if !strings.Contains(out, "prefix 0  :    2 records  ") {
		t.Fatalf("manifest output:\n%s", out)
	}

	// identical copy converges; diff exits zero
	twin := t.TempDir()
	st, err := store.Open(twin, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, fp := range fps {
		src, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		rec, _ := src.Get(fp)
		src.Close()
		if err := st.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()
	out, err = runT(t, "-dir", dir, "diff", twin)
	if err != nil || !strings.Contains(out, "stores converged") {
		t.Fatalf("diff of converged stores: err=%v out=%s", err, out)
	}

	// drop one record from the twin: diff names it and errors
	lone := t.TempDir()
	st2, err := store.Open(lone, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	src, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rec, _ := src.Get(fps[0])
	src.Close()
	if err := st2.Put(rec); err != nil {
		t.Fatal(err)
	}
	st2.Close()
	out, err = runT(t, "-dir", dir, "diff", lone)
	if err == nil {
		t.Fatalf("diff of differing stores succeeded:\n%s", out)
	}
	if !strings.Contains(out, "prefix 0 differs (2 vs 1 records)") ||
		!strings.Contains(out, "only in "+dir+": "+fps[1]) ||
		!strings.Contains(out, "only in "+dir+": "+fps[2]) ||
		strings.Contains(out, "only in "+lone) {
		t.Fatalf("diff output:\n%s", out)
	}
}

func TestRTStoreMemoCommands(t *testing.T) {
	dir, fps := seedStore(t)
	key := strings.Repeat("ab", 32)
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutMemo(key, []string{fps[0]}, [][]byte{[]byte("sig-1"), []byte("sig-2")}); err != nil {
		t.Fatal(err)
	}
	st.Close()

	// memo resolves via a member fingerprint and via the class key itself
	for _, arg := range []string{fps[0], key} {
		out, err := runT(t, "-dir", dir, "memo", arg)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out, "class:        "+key) ||
			!strings.Contains(out, "signatures:   2") ||
			!strings.Contains(out, "  "+fps[0]) {
			t.Fatalf("memo %s output:\n%s", arg, out)
		}
	}
	if _, err := runT(t, "-dir", dir, "memo", strings.Repeat("0", 64)); err == nil {
		t.Fatal("memo of an unknown fingerprint succeeded")
	}

	out, err := runT(t, "-dir", dir, "stat")
	if err != nil || !strings.Contains(out, "memo classes:    1") || !strings.Contains(out, "memo sigs:       2") {
		t.Fatalf("stat: err=%v out=%s", err, out)
	}

	out, err = runT(t, "-dir", dir, "ls")
	if err != nil || !strings.Contains(out, key+"  memo class") {
		t.Fatalf("ls: err=%v out=%s", err, out)
	}

	// the memo tier is local: manifest leaves it out, and a memo-less
	// twin with identical verdicts has converged
	out, err = runT(t, "-dir", dir, "manifest")
	if err != nil || strings.Contains(out, "memo") {
		t.Fatalf("manifest: err=%v out=%s", err, out)
	}
	twin := t.TempDir()
	tw, err := store.Open(twin, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	src, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, fp := range fps {
		rec, _ := src.Get(fp)
		if err := tw.Put(rec); err != nil {
			t.Fatal(err)
		}
	}
	src.Close()
	tw.Close()
	out, err = runT(t, "-dir", dir, "diff", twin)
	if err != nil || !strings.Contains(out, "stores converged") {
		t.Fatalf("diff: err=%v out=%s", err, out)
	}
}

func TestRTStoreVerifyFlagsDamage(t *testing.T) {
	dir, _ := seedStore(t)
	path := filepath.Join(dir, "store.log")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := runT(t, "-dir", dir, "verify")
	if err == nil {
		t.Fatalf("verify of a torn log succeeded:\n%s", out)
	}
	// recovery truncated the tail: a second verify is clean
	if out, err := runT(t, "-dir", dir, "verify"); err != nil {
		t.Fatalf("verify after recovery: %v\n%s", err, out)
	}
}

func TestRTStoreUsageErrors(t *testing.T) {
	dir, _ := seedStore(t)
	for _, args := range [][]string{
		{"ls"},
		{"-dir", dir},
		{"-dir", dir, "frobnicate"},
		{"-dir", dir, "get"},
	} {
		if _, err := runT(t, args...); err == nil {
			t.Fatalf("args %v succeeded", args)
		}
	}
}

func TestRTStoreManifestDepth(t *testing.T) {
	dir, fps := seedStore(t)

	// leaf depth: each record shows under its own 3-nibble prefix
	out, err := runT(t, "-dir", dir, "-depth", "3", "manifest")
	if err != nil {
		t.Fatal(err)
	}
	for _, fp := range fps {
		if !strings.Contains(out, "prefix "+fp[:3]) {
			t.Fatalf("depth-3 manifest missing leaf %s:\n%s", fp[:3], out)
		}
	}
	if !strings.Contains(out, "depth-3 prefixes") {
		t.Fatalf("depth-3 manifest output:\n%s", out)
	}

	// diff at leaf depth names the exact divergent prefix
	twin := t.TempDir()
	st, err := store.Open(twin, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(&store.Record{Fingerprint: fps[0], Feasible: true, Elements: 2, Slots: []int{0, 1}, Source: "exact"}); err != nil {
		t.Fatal(err)
	}
	st.Close()
	out, _ = runT(t, "-dir", dir, "-depth", "3", "diff", twin)
	if !strings.Contains(out, "prefix "+fps[1][:3]+" differs") {
		t.Fatalf("depth-3 diff output:\n%s", out)
	}

	if _, err := runT(t, "-dir", dir, "-depth", "9", "manifest"); err == nil {
		t.Fatal("depth 9 accepted")
	}
}
