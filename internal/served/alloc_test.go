package served

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"testing"
	"time"

	"rtm/internal/service"
)

// allocRecorder is a reusable in-process http.ResponseWriter plus the
// request it sends, so an allocation count measures the handler and
// not the harness.
type allocRecorder struct {
	hdr    http.Header
	reqHdr http.Header // request headers: never written by the daemon
	code   int
	body   bytes.Buffer
	rd     bytes.Reader
	req    http.Request
}

var allocScheduleURL = &url.URL{Path: "/schedule"}

// post sends body to h as POST /schedule and returns the status.
func (r *allocRecorder) post(h http.Handler, body []byte) int {
	if r.hdr == nil {
		r.hdr, r.reqHdr = http.Header{}, http.Header{}
	}
	clear(r.hdr)
	r.code = http.StatusOK
	r.body.Reset()
	r.rd.Reset(body)
	r.req = http.Request{
		Method:        http.MethodPost,
		URL:           allocScheduleURL,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        r.reqHdr,
		Body:          io.NopCloser(&r.rd),
		ContentLength: int64(len(body)),
		RequestURI:    "/schedule",
	}
	h.ServeHTTP(r, &r.req)
	return r.code
}

func (r *allocRecorder) Header() http.Header         { return r.hdr }
func (r *allocRecorder) WriteHeader(code int)        { r.code = code }
func (r *allocRecorder) Write(p []byte) (int, error) { return r.body.Write(p) }

// renamedSurface returns exampleSpec's class under element names
// unique to i, so every i is a new surface of one cached class.
func renamedSurface(i int) []byte {
	s := exampleSpec
	for _, el := range []string{"fS", "fK", "fX"} {
		s = strings.ReplaceAll(s, el, fmt.Sprintf("%s_%d", el, i))
	}
	return []byte(s)
}

// Allocation ceilings of the hit paths, per request through
// Mux().ServeHTTP (go1.24, linux/amd64). A byte-identical repeat is
// answered from the front cache before the spec is parsed; it cost 148
// allocations when every hit was parsed first. A renamed surface of a
// cached class takes the full path (parse, canonicalize, remap,
// sched.Check, encode); it cost 229 when the response body cache was
// probed after the service. Raising either ceiling is a regression:
// find the new allocation rather than raise the ceiling.
const (
	identicalHitAllocs = 5
	renamedHitAllocs   = 105
)

// raceEnabled is set by a race-only file: the race detector's
// sync.Pool drops pooled objects at random, so counts are not stable.
var raceEnabled bool

// TestHitPathAllocs gates the allocations of the two hit paths.
func TestHitPathAllocs(t *testing.T) {
	if testing.CoverMode() != "" || raceEnabled {
		t.Skip("coverage and race instrumentation change allocation counts")
	}
	svc := service.New(service.Options{})
	h := newDaemon(svc, 10*time.Second, 1<<20, 1024).Mux()
	var rec allocRecorder
	same := []byte(exampleSpec)
	for i := 0; i < 2; i++ { // cold solve, then the hit that fills the front cache
		if code := rec.post(h, same); code != http.StatusOK {
			t.Fatalf("priming: status %d: %s", code, rec.body.Bytes())
		}
	}

	identical := testing.AllocsPerRun(200, func() {
		if rec.post(h, same) != http.StatusOK {
			t.Fatalf("identical repeat: %s", rec.body.Bytes())
		}
	})

	const runs = 200
	surfaces := make([][]byte, runs+1)
	for i := range surfaces {
		surfaces[i] = renamedSurface(i)
	}
	next := 0
	renamed := testing.AllocsPerRun(runs, func() {
		if rec.post(h, surfaces[next]) != http.StatusOK || !bytes.Contains(rec.body.Bytes(), []byte(`"cacheHit":true`)) {
			t.Fatalf("renamed surface %d: %s", next, rec.body.Bytes())
		}
		next++
	})
	t.Logf("allocs per request: identical repeat %.0f, renamed surface %.0f", identical, renamed)
	if identical > identicalHitAllocs {
		t.Errorf("byte-identical hit: %.0f allocs, ceiling %d", identical, identicalHitAllocs)
	}
	if renamed > renamedHitAllocs {
		t.Errorf("renamed-surface hit: %.0f allocs, ceiling %d", renamed, renamedHitAllocs)
	}
}
