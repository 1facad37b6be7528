package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"
)

// Client is a JSON client for a Koios server with built-in resilience:
// every method has a context-aware variant (real timeouts and
// cancellation), and transient failures — connection errors, 429s, 5xx —
// are retried with exponential backoff plus jitter, honoring the server's
// Retry-After when it sends one (the load-shedding handshake: the server
// sheds with a backlog-derived Retry-After, the client waits it out).
type Client struct {
	base  string
	http  *http.Client
	retry RetryPolicy
	// scope is the path-escaped collection name the data methods target;
	// empty targets the legacy un-scoped routes (the default collection).
	// See Collection.
	scope string
}

// v1 resolves a data route against the client's collection scope:
// unscoped c.v1("/search"), scoped "/v1/collections/{name}/search". The two
// are byte-identical server-side, so scoping is purely a path prefix.
func (c *Client) v1(p string) string {
	if c.scope == "" {
		return "/v1" + p
	}
	return "/v1/collections/" + c.scope + p
}

// RetryPolicy tunes the client's transient-failure handling.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries including the first
	// (default 4; 1 disables retries).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry, doubling per
	// subsequent retry with ±50% jitter (default 100ms).
	BaseDelay time.Duration
	// MaxDelay caps the computed backoff; a larger server Retry-After
	// still wins (default 5s).
	MaxDelay time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 100 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 5 * time.Second
	}
	return p
}

// NewClient targets baseURL (e.g. "http://localhost:7411"). httpClient may
// be nil for http.DefaultClient.
func NewClient(baseURL string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{
		base:  strings.TrimRight(baseURL, "/"),
		http:  httpClient,
		retry: RetryPolicy{}.withDefaults(),
	}
}

// SetRetry replaces the retry policy (zero fields take defaults). Not safe
// to call concurrently with requests.
func (c *Client) SetRetry(p RetryPolicy) { c.retry = p.withDefaults() }

// Search runs a top-k query. k=0 uses the server default.
func (c *Client) Search(query []string, k int) (*SearchResponse, error) {
	return c.SearchContext(context.Background(), query, k)
}

// SearchContext is Search with a caller-owned context.
func (c *Client) SearchContext(ctx context.Context, query []string, k int) (*SearchResponse, error) {
	var out SearchResponse
	if err := c.do(ctx, http.MethodPost, c.v1("/search"), SearchRequest{Query: query, K: k}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// SearchBatch runs a slice of queries against one consistent collection
// snapshot, returning per-query entries in input order. k=0 uses the server
// default for every query. An entry with a non-empty Error (its query hit
// the server's per-query timeout) does not fail the batch — check entries
// individually.
func (c *Client) SearchBatch(queries [][]string, k int) (*BatchSearchResponse, error) {
	return c.SearchBatchContext(context.Background(), queries, k)
}

// SearchBatchContext is SearchBatch with a caller-owned context.
func (c *Client) SearchBatchContext(ctx context.Context, queries [][]string, k int) (*BatchSearchResponse, error) {
	var out BatchSearchResponse
	if err := c.do(ctx, http.MethodPost, c.v1("/search/batch"), BatchSearchRequest{Queries: queries, K: k}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Overlap computes pairwise measures of two sets.
func (c *Client) Overlap(a, b []string) (*OverlapResponse, error) {
	return c.OverlapContext(context.Background(), a, b)
}

// OverlapContext is Overlap with a caller-owned context.
func (c *Client) OverlapContext(ctx context.Context, a, b []string) (*OverlapResponse, error) {
	var out OverlapResponse
	if err := c.do(ctx, http.MethodPost, c.v1("/overlap"), OverlapRequest{A: a, B: b}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Insert adds (or replaces) a set. An empty name lets the server assign
// "set-<id>".
func (c *Client) Insert(name string, elements []string) (*InsertResponse, error) {
	return c.InsertContext(context.Background(), name, elements)
}

// InsertContext is Insert with a caller-owned context. Named inserts are
// idempotent (replace-by-name), so retries are safe; an unnamed insert
// retried across an ambiguous failure may create more than one auto-named
// set (at-least-once) — name sets when that matters.
func (c *Client) InsertContext(ctx context.Context, name string, elements []string) (*InsertResponse, error) {
	var out InsertResponse
	if err := c.do(ctx, http.MethodPost, c.v1("/sets"), InsertRequest{Name: name, Elements: elements}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// GetSet fetches the live set with the given name; an error mentioning
// HTTP 404 means no live set has it (unknown or deleted). The name is
// path-escaped like Delete's.
func (c *Client) GetSet(name string) (*SetResponse, error) {
	return c.GetSetContext(context.Background(), name)
}

// GetSetContext is GetSet with a caller-owned context.
func (c *Client) GetSetContext(ctx context.Context, name string) (*SetResponse, error) {
	var out SetResponse
	if err := c.do(ctx, http.MethodGet, c.v1("/sets/"+url.PathEscape(name)), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Delete removes the named set. The name is path-escaped, so names with
// URL metacharacters round-trip through Insert and Delete.
func (c *Client) Delete(name string) (*DeleteResponse, error) {
	return c.DeleteContext(context.Background(), name)
}

// DeleteContext is Delete with a caller-owned context.
func (c *Client) DeleteContext(ctx context.Context, name string) (*DeleteResponse, error) {
	var out DeleteResponse
	if err := c.do(ctx, http.MethodDelete, c.v1("/sets/"+url.PathEscape(name)), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Info fetches collection metadata.
func (c *Client) Info() (*InfoResponse, error) {
	return c.InfoContext(context.Background())
}

// InfoContext is Info with a caller-owned context.
func (c *Client) InfoContext(ctx context.Context) (*InfoResponse, error) {
	var out InfoResponse
	if err := c.do(ctx, http.MethodGet, "/v1/info", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Scrub asks the server to re-verify the checksums of its live engine
// files (read-only).
func (c *Client) Scrub(ctx context.Context) (*ScrubResponse, error) {
	var out ScrubResponse
	if err := c.do(ctx, http.MethodPost, c.v1("/scrub"), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Repair asks the server to re-persist anything damaged on disk and leave
// degraded mode.
func (c *Client) Repair(ctx context.Context) (*ScrubResponse, error) {
	var out ScrubResponse
	if err := c.do(ctx, http.MethodPost, c.v1("/repair"), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Healthy reports whether the server answers its liveness probe. Probes
// are single-shot — retrying a health check inside the client would
// falsify exactly the signal it exists to measure.
func (c *Client) Healthy() bool { return c.probe("/healthz") }

// Ready reports whether the server finished recovery and serves queries
// (GET /readyz). Single-shot, like Healthy.
func (c *Client) Ready() bool { return c.probe("/readyz") }

func (c *Client) probe(path string) bool {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// do issues one logical request with retries. Connection errors, 429, and
// 5xx responses retry with exponential backoff + jitter (the server's
// Retry-After extends, never shortens, the wait); context cancellation and
// other statuses return immediately.
func (c *Client) do(ctx context.Context, method, path string, body, dst any) error {
	var raw []byte
	if body != nil {
		// A fresh buffer, not a pooled one: the transport may still read
		// the request body after Do has returned the response.
		var err error
		if raw, err = appendBody(make([]byte, 0, 512), body); err != nil {
			return err
		}
	}
	var lastErr error
	for attempt := 0; attempt < c.retry.MaxAttempts; attempt++ {
		if attempt > 0 {
			if err := c.backoff(ctx, attempt, lastErr); err != nil {
				return err
			}
		}
		var rd io.Reader
		if raw != nil {
			rd = bytes.NewReader(raw)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
		if err != nil {
			return err
		}
		if raw != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		resp, err := c.http.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			lastErr = err
			continue
		}
		if retryableStatus(resp.StatusCode) && attempt < c.retry.MaxAttempts-1 {
			lastErr = &retryError{status: resp.StatusCode, retryAfter: parseRetryAfter(resp.Header)}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			continue
		}
		defer resp.Body.Close()
		return decodeResponse(resp, dst)
	}
	return fmt.Errorf("server: giving up after %d attempts: %w", c.retry.MaxAttempts, lastErr)
}

// retryError carries a retryable HTTP status and the server's Retry-After
// (0 when absent) between attempts.
type retryError struct {
	status     int
	retryAfter time.Duration
}

func (e *retryError) Error() string { return fmt.Sprintf("server: HTTP %d", e.status) }

func retryableStatus(code int) bool {
	return code == http.StatusTooManyRequests || code >= 500
}

// backoff sleeps before retry number attempt (1-based): exponential from
// BaseDelay with ±50% jitter, capped at MaxDelay, floored by the server's
// Retry-After when the previous response carried one. Returns early with
// ctx's error on cancellation.
func (c *Client) backoff(ctx context.Context, attempt int, lastErr error) error {
	d := c.retry.BaseDelay << (attempt - 1)
	if d > c.retry.MaxDelay {
		d = c.retry.MaxDelay
	}
	d = d/2 + time.Duration(rand.Int63n(int64(d))) // jitter: [0.5d, 1.5d)
	if re, ok := lastErr.(*retryError); ok && re.retryAfter > d {
		d = re.retryAfter
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// parseRetryAfter reads a Retry-After given in seconds (the only form the
// Koios server emits); absent or unparsable yields 0.
func parseRetryAfter(h http.Header) time.Duration {
	v := h.Get("Retry-After")
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// decodeResponse reads the response body into a pooled buffer and decodes
// it into dst (decodeBody, lenient); a failure status returns the error
// envelope's message.
func decodeResponse(resp *http.Response, dst any) error {
	buf := getBuf()
	defer putBuf(buf)
	b, err := readBody(resp.Body, *buf, resp.ContentLength)
	*buf = b
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var eb errorBody
		if err == nil && decodeBody(b, &eb, false) == nil && eb.Error != "" {
			return fmt.Errorf("server: %s (HTTP %d)", eb.Error, resp.StatusCode)
		}
		return fmt.Errorf("server: HTTP %d", resp.StatusCode)
	}
	if err != nil {
		return err
	}
	return decodeBody(b, dst, false)
}
