package served

import (
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"

	"rtm/internal/cluster"
	"rtm/internal/core"
)

// Cluster request routing. The rules, in order:
//
//  1. A request carrying the forward marker is ALWAYS served locally.
//     One hop is the protocol — re-forwarding would let two nodes
//     with momentarily different ring views bounce a request forever,
//     and a forwarded request landing on a non-owner (membership
//     skew) is still perfectly servable: every node runs the full
//     pipeline, the ring only optimizes where warm state lives.
//  2. A request whose fingerprint this node owns is served locally.
//  3. Otherwise the request is proxied to the owner verbatim (body and
//     query string), marked as forwarded.
//  4. If the owner cannot be reached, the node falls back to a local
//     solve with write-through — availability over placement. The
//     answer is correct (same pipeline), merely colder; anti-entropy
//     sync later carries an out-of-place feasible record fleet-wide
//     (a NO stays on the node that decided it).
//
// Correctness does not depend on routing at all — any node can decide
// any class — so every rule here is a pure performance/availability
// trade, which is what lets the failure handling be this simple.

// owner resolves the owning peer for a fingerprint. It returns nil
// when this daemon should serve locally: no cluster, self-owned, a
// forwarded request, or an owner with no configured client.
func (d *Daemon) owner(r *http.Request, fp string) *cluster.Client {
	if d.cl == nil || r.Header.Get(cluster.ForwardHeader) != "" {
		return nil
	}
	own := d.cl.Ring.Owner(fp)
	if own == d.cl.NodeID {
		return nil
	}
	return d.cl.Peers[own] // nil for an unknown owner = serve locally
}

// relay copies a peer's response through to the client.
func relay(w http.ResponseWriter, resp *http.Response) {
	defer resp.Body.Close()
	for _, h := range []string{"Content-Type", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
}

// forwardSchedule proxies a parsed /schedule request to its shard
// owner. It reports true when the response was written; false means
// the caller should serve locally (self-owned, forwarded, no cluster,
// or the owner was unreachable — the graceful-degradation fallback).
func (d *Daemon) forwardSchedule(w http.ResponseWriter, r *http.Request, body []byte, m *core.Model) bool {
	if d.cl == nil {
		return false
	}
	peer := d.owner(r, core.Fingerprint(m))
	if peer == nil {
		return false
	}
	resp, err := peer.ForwardSchedule(r.Context(), body, r.URL.RawQuery)
	if err != nil {
		// owner down mid-request: degrade to a local solve. The local
		// pipeline write-through keeps the verdict durable here, and
		// anti-entropy carries a feasible one to the owner when it
		// returns.
		d.svc.Metrics().ForwardFallbacks.Add(1)
		return false
	}
	d.svc.Metrics().Forwards.Add(1)
	relay(w, resp)
	return true
}

// forwardJob proxies GET /job/<id> for a job this node does not hold
// to the id's shard owner. The caller tried the local queue first —
// local knowledge always wins, because the job may have been enqueued
// here by the owner-down fallback.
func (d *Daemon) forwardJob(w http.ResponseWriter, r *http.Request, id string) bool {
	if d.cl == nil || !validFingerprintShape(id) {
		return false
	}
	peer := d.owner(r, id)
	if peer == nil {
		return false
	}
	resp, err := peer.ForwardJob(r.Context(), id, r.URL.RawQuery)
	if err != nil {
		d.svc.Metrics().ForwardFallbacks.Add(1)
		return false
	}
	d.svc.Metrics().Forwards.Add(1)
	relay(w, resp)
	return true
}

// validFingerprintShape checks the 64-lowercase-hex job-ID shape
// before routing on it — a garbage id is answered locally (404), not
// bounced to a peer.
func validFingerprintShape(id string) bool {
	if len(id) != 64 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// handleDigests serves one step of the Merkle walk
// (GET /cluster/digests/<prefix>): the non-empty direct children of
// <prefix>, with counts and digests of the feasible records under
// them. The empty prefix yields the top level, which carries
// full-width digests. Digests only decide what a peer pulls; every
// pulled byte is re-validated on import.
func (d *Daemon) handleDigests(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET /cluster/digests/<prefix>", http.StatusMethodNotAllowed)
		return
	}
	prefix := strings.TrimPrefix(r.URL.Path, "/cluster/digests/")
	ds, err := d.cl.Store.Digests(prefix, len(prefix)+1)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(ds)
}

// handleLeaf serves one Merkle leaf's fingerprint set
// (GET /cluster/leaf/<prefix>) — the set a peer diffs locally to
// decide which records to fetch.
func (d *Daemon) handleLeaf(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET /cluster/leaf/<prefix>", http.StatusMethodNotAllowed)
		return
	}
	fps, err := d.cl.Store.LeafFingerprints(strings.TrimPrefix(r.URL.Path, "/cluster/leaf/"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if fps == nil {
		fps = []string{}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(fps)
}

// maxFetchBody bounds a /cluster/fetch request body — a full
// fetch-batch of fingerprints is ~34 KB; anything near the cap is a
// misbehaving peer.
const maxFetchBody = 1 << 20

// handleFetch serves the delta pull (POST /cluster/fetch with a JSON
// fingerprint array): exactly the requested feasible records,
// CRC-framed. Unknown fingerprints and NOs are skipped — the peer's
// digest view may be a round stale, and a NO never leaves this node.
func (d *Daemon) handleFetch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST /cluster/fetch", http.StatusMethodNotAllowed)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxFetchBody+1))
	if err != nil || len(body) > maxFetchBody {
		http.Error(w, "request body unreadable or too large", http.StatusBadRequest)
		return
	}
	var fps []string
	if err := json.Unmarshal(body, &fps); err != nil {
		http.Error(w, "body must be a JSON fingerprint array", http.StatusBadRequest)
		return
	}
	seg, n, err := d.cl.Store.ExportRecords(fps)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("X-Rtm-Records", strconv.Itoa(n))
	w.Write(seg)
}
