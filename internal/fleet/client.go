package fleet

import (
	"bytes"
	"context"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"time"
)

// DefaultTimeout caps one remote cache operation. The tier trades a hit
// against recomputing a cell locally (tens of milliseconds and up), so a
// peer that cannot answer in half a second is not worth waiting for.
const DefaultTimeout = 500 * time.Millisecond

// Client routes cache operations through the ring: every fingerprint has
// exactly one owner member, Get asks it, Put tells it. A fingerprint this
// member owns is a miss and its put is dropped, without an HTTP
// self-call: this member's shard is its own run cache, which has already
// looked in its tiers before asking and fills them itself.
//
// Client implements runcache.RemoteStore. Per that contract, errors are
// advisory: the caller logs and falls back to local compute, so a slow or
// dead owner degrades the cells it owns to cache misses, nothing more.
type Client struct {
	ring *Ring
	self string // this member's ring name ("" for a pure client)
	hc   *http.Client
}

// NewClient builds the routing client. self is this process's own ring
// name; a non-member (gaia-load, tests) passes "". Members must be base
// URLs (http://host:port); they double as ring names.
func NewClient(ring *Ring, self string) *Client {
	return &Client{
		ring: ring,
		self: self,
		hc:   &http.Client{Timeout: DefaultTimeout},
	}
}

func cacheURL(owner string, fp [32]byte) string {
	return owner + "/v1/cache/" + hex.EncodeToString(fp[:])
}

// Get fetches the blob for fp from its owner; (nil, nil) is a clean miss.
func (c *Client) Get(ctx context.Context, fp [32]byte) ([]byte, error) {
	owner := c.ring.Owner(fp)
	if owner == "" || owner == c.self {
		return nil, nil
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, cacheURL(owner, fp), nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	switch resp.StatusCode {
	case http.StatusOK:
		blob, err := io.ReadAll(io.LimitReader(resp.Body, MaxBlobBytes+1))
		if err != nil {
			return nil, err
		}
		if len(blob) > MaxBlobBytes {
			return nil, fmt.Errorf("fleet: %s returned an oversized blob", owner)
		}
		return blob, nil
	case http.StatusNotFound:
		return nil, nil
	default:
		return nil, fmt.Errorf("fleet: %s answered %s", owner, resp.Status)
	}
}

// Put offers the blob for fp to its owner. Best-effort by contract.
func (c *Client) Put(ctx context.Context, fp [32]byte, blob []byte) error {
	owner := c.ring.Owner(fp)
	if owner == "" || owner == c.self {
		return nil
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, cacheURL(owner, fp), bytes.NewReader(blob))
	if err != nil {
		return err
	}
	req.ContentLength = int64(len(blob))
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("fleet: %s answered %s to put", owner, resp.Status)
	}
	return nil
}
