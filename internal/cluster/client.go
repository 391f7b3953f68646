package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"rtm/internal/store"
)

// ForwardHeader marks a request that has already been forwarded once.
// A node receiving it always serves locally — forwarding a forward
// would let a stale or disagreeing ring view bounce a request around
// the fleet forever; one hop is the protocol.
const ForwardHeader = "X-Rtm-Forwarded"

// maxSegmentBytes bounds a segment body pulled from a peer. Matches
// the store's import bound: a larger body is a misbehaving peer, and
// truncating at the cap degrades to a shorter clean prefix.
const maxSegmentBytes = 64 << 20

// Client talks to one peer node over HTTP. Safe for concurrent use.
type Client struct {
	node string
	base string
	hc   *http.Client

	// Wire accounting for the sync protocol: request and response
	// body bytes moved by the replication methods (Digests, leaf
	// sets and record fetches). Serve-path forwarding is excluded —
	// these counters exist to price anti-entropy, and they are what
	// the sync metrics report.
	rx atomic.Int64
	tx atomic.Int64
}

// NewClient builds a client for the peer with the given node ID at
// baseURL (scheme://host:port, no trailing slash required).
func NewClient(node, baseURL string, timeout time.Duration) *Client {
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	return &Client{
		node: node,
		base: strings.TrimRight(baseURL, "/"),
		hc:   &http.Client{Timeout: timeout},
	}
}

// Node returns the peer's node ID.
func (c *Client) Node() string { return c.node }

// Base returns the peer's base URL.
func (c *Client) Base() string { return c.base }

// BytesRx returns the cumulative response-body bytes received over
// the replication methods.
func (c *Client) BytesRx() int64 { return c.rx.Load() }

// BytesTx returns the cumulative request-body bytes sent over the
// replication methods.
func (c *Client) BytesTx() int64 { return c.tx.Load() }

// getBytes runs a bounded GET against the peer and returns the body,
// counting it against the wire stats.
func (c *Client) getBytes(ctx context.Context, url, what string, bound int64) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("cluster: %s from %s: %w", what, c.node, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: %s from %s: HTTP %d", what, c.node, resp.StatusCode)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, bound+1))
	c.rx.Add(int64(len(data)))
	if err != nil {
		return nil, fmt.Errorf("cluster: %s from %s: %w", what, c.node, err)
	}
	if int64(len(data)) > bound {
		return nil, fmt.Errorf("cluster: %s from %s exceeds %d bytes", what, c.node, bound)
	}
	return data, nil
}

// Digests fetches the peer's Merkle digests for the direct children
// of prefix; the empty prefix yields the top level.
func (c *Client) Digests(ctx context.Context, prefix string) ([]store.PrefixDigest, error) {
	data, err := c.getBytes(ctx, c.base+"/cluster/digests/"+prefix, fmt.Sprintf("digests %q", prefix), 1<<20)
	if err != nil {
		return nil, err
	}
	var out []store.PrefixDigest
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("cluster: digests %q from %s: %w", prefix, c.node, err)
	}
	return out, nil
}

// LeafFingerprints fetches the peer's fingerprint set for one Merkle
// leaf — the set the syncer diffs locally to decide what to fetch.
func (c *Client) LeafFingerprints(ctx context.Context, prefix string) ([]string, error) {
	data, err := c.getBytes(ctx, c.base+"/cluster/leaf/"+prefix, fmt.Sprintf("leaf %q", prefix), maxSegmentBytes)
	if err != nil {
		return nil, err
	}
	var out []string
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("cluster: leaf %q from %s: %w", prefix, c.node, err)
	}
	return out, nil
}

// FetchRecords pulls exactly the requested records from the peer as a
// sealed CRC-framed segment — the delta pull. The store's import path
// is the validator; this bounds the size.
func (c *Client) FetchRecords(ctx context.Context, fps []string) ([]byte, error) {
	body, err := json.Marshal(fps)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/cluster/fetch", bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	req.Header.Set("Content-Type", "application/json")
	c.tx.Add(int64(len(body)))
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("cluster: fetch from %s: %w", c.node, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: fetch from %s: HTTP %d", c.node, resp.StatusCode)
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxSegmentBytes+1))
	c.rx.Add(int64(len(data)))
	if err != nil {
		return nil, fmt.Errorf("cluster: fetch from %s: %w", c.node, err)
	}
	if len(data) > maxSegmentBytes {
		return nil, fmt.Errorf("cluster: fetch from %s exceeds %d bytes", c.node, maxSegmentBytes)
	}
	return data, nil
}

// ForwardSchedule proxies a POST /schedule body to the peer with the
// forward marker set. The caller owns the response body.
func (c *Client) ForwardSchedule(ctx context.Context, body []byte, rawQuery string) (*http.Response, error) {
	url := c.base + "/schedule"
	if rawQuery != "" {
		url += "?" + rawQuery
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	req.Header.Set("Content-Type", "text/plain")
	req.Header.Set(ForwardHeader, "1")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("cluster: forward to %s: %w", c.node, err)
	}
	return resp, nil
}

// ForwardJob proxies a GET /job/<id> to the peer with the forward
// marker set. The caller owns the response body.
func (c *Client) ForwardJob(ctx context.Context, id, rawQuery string) (*http.Response, error) {
	url := c.base + "/job/" + id
	if rawQuery != "" {
		url += "?" + rawQuery
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, fmt.Errorf("cluster: %w", err)
	}
	req.Header.Set(ForwardHeader, "1")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("cluster: forward to %s: %w", c.node, err)
	}
	return resp, nil
}
