package served

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rtm/internal/cluster"
	"rtm/internal/core"
	"rtm/internal/service"
	"rtm/internal/spec"
	"rtm/internal/store"
	"rtm/internal/trace"
)

// forgedNo returns the paper's Figure-1 system, which is feasible, and
// one sealed segment holding a well-formed record that calls its class
// infeasible by exhaustive search. The record passes every framing and
// validation check; only re-deciding the class can tell it is wrong.
func forgedNo(t *testing.T) (specText, fp string, seg []byte) {
	t.Helper()
	m := core.ExampleSystem(core.DefaultExampleParams())
	fp = core.Fingerprint(m)
	payload, err := trace.EncodeStoreRecord(&store.Record{
		Fingerprint: fp, Feasible: false, Elements: len(m.Comm.Elements()), Source: "exact",
	})
	if err != nil {
		t.Fatal(err)
	}
	if seg, err = store.Frame(payload); err != nil {
		t.Fatal(err)
	}
	return spec.Print("figure1", m), fp, seg
}

// lyingPeer serves the cluster's replication protocol for a peer that
// claims to hold exactly one record: fp, whose fetch answers seg. Its
// digests route every walk straight down to fp's leaf.
func lyingPeer(t *testing.T, fp string, seg []byte) *cluster.Client {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/cluster/digests/", func(w http.ResponseWriter, r *http.Request) {
		prefix := strings.TrimPrefix(r.URL.Path, "/cluster/digests/")
		var ds []store.PrefixDigest
		if strings.HasPrefix(fp, prefix) {
			ds = append(ds, store.PrefixDigest{Prefix: fp[:len(prefix)+1], Count: 1, Digest: "ee"})
		}
		json.NewEncoder(w).Encode(ds)
	})
	mux.HandleFunc("/cluster/leaf/", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode([]string{fp})
	})
	mux.HandleFunc("/cluster/fetch", func(w http.ResponseWriter, r *http.Request) {
		w.Write(seg)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return cluster.NewClient("liar", srv.URL, 2*time.Second)
}

// TestForgedNoNotServed pins the replication trust rule end to end. A
// NO from exhaustive search has no short certificate (Theorem 2), so a
// receiver cannot check one and must not keep it. The forged NO for
// Figure 1 arrives once through ImportFrames and once through a sync
// round against a peer that advertises and serves it. Either way the
// store must not index it, and a service opened on the store must
// decide Figure 1 itself: feasible, with every constraint met by the
// schedule it serves.
func TestForgedNoNotServed(t *testing.T) {
	specText, fp, seg := forgedNo(t)
	routes := map[string]func(t *testing.T, st *store.Store){
		"import": func(t *testing.T, st *store.Store) {
			if _, err := st.ImportFrames(seg); err != nil {
				t.Fatal(err)
			}
		},
		"sync": func(t *testing.T, st *store.Store) {
			sy := &cluster.Syncer{Store: st, Peers: []*cluster.Client{lyingPeer(t, fp, seg)}, Logf: t.Logf}
			if rs := sy.SyncOnce(context.Background()); rs.Failures != 0 {
				t.Fatalf("sync round against the lying peer failed: %+v", rs)
			}
		},
	}
	for name, deliver := range routes {
		t.Run(name, func(t *testing.T) {
			st, err := store.Open(t.TempDir(), store.Options{NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { st.Close() })
			deliver(t, st)
			if rec, ok := st.Get(fp); ok {
				t.Errorf("store indexed the forged record: %+v", rec)
			}

			h := New(Config{Service: service.New(service.Options{Store: st}), Timeout: 10 * time.Second, MaxBody: 1 << 20}).Mux()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/schedule", strings.NewReader(specText)))
			var out scheduleResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &out); rec.Code != http.StatusOK || err != nil {
				t.Fatalf("status %d (%v): %s", rec.Code, err, rec.Body.String())
			}
			if !out.Decided || !out.Feasible || out.Source == "store" || out.Fingerprint != fp {
				t.Fatalf("Figure 1 answered feasible=%v decided=%v source=%s, want a feasible verdict decided here",
					out.Feasible, out.Decided, out.Source)
			}
			if len(out.Schedule) == 0 || len(out.Constraints) != 3 {
				t.Fatalf("feasible answer carries %d slots and %d constraints", len(out.Schedule), len(out.Constraints))
			}
			for _, c := range out.Constraints {
				if !c.OK || c.Latency > c.Deadline {
					t.Fatalf("served schedule misses %s: latency %d, deadline %d", c.Name, c.Latency, c.Deadline)
				}
			}
		})
	}
}
