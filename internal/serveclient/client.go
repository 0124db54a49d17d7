// Package serveclient is the typed Go client of the cspm serving API: the
// /v2/graphs/{ns} multi-tenant surface plus the deprecated flat /v1 alias.
// It is the only way in-repo code (e2e tests, load generators, benchmarks)
// talks to a serving process, so drift between the wire contract and its
// consumers shows up here, at compile time, instead of in skewed JSON.
//
// The wire types themselves live in package serve — the client reuses them
// rather than re-declaring near-identical structs that could diverge.
package serveclient

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"cspm/internal/serve"
)

// APIError is a non-2xx response decoded from the server's unified error
// envelope. Code carries the stable machine code (serve.Code*); branch on
// it (errors.As) rather than parsing Message.
type APIError struct {
	StatusCode int
	Code       string
	Message    string
}

func (e *APIError) Error() string {
	return fmt.Sprintf("serveclient: %d %s: %s", e.StatusCode, e.Code, e.Message)
}

// Client talks to one serving process. The zero value is not usable; New
// validates the base URL once so request paths never re-parse it.
type Client struct {
	base *url.URL
	hc   *http.Client
}

// New builds a client for baseURL (scheme://host:port, no path). hc nil
// uses http.DefaultClient; pass a dedicated client to control timeouts and
// connection pooling (watch long-polls need a generous or absent client
// timeout).
func New(baseURL string, hc *http.Client) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil {
		return nil, fmt.Errorf("serveclient: parse base URL: %w", err)
	}
	if u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("serveclient: base URL %q must be scheme://host[:port]", baseURL)
	}
	if hc == nil {
		hc = http.DefaultClient
	}
	return &Client{base: u, hc: hc}, nil
}

// Namespace scopes the client to /v2/graphs/{ns}.
func (c *Client) Namespace(ns string) *NamespaceClient {
	return &NamespaceClient{c: c, prefix: "/v2/graphs/" + url.PathEscape(ns)}
}

// V1 scopes the client to the deprecated flat /v1 surface (the alias of the
// "default" namespace on a multi-tenant host, or the whole API of a
// single-tenant server).
func (c *Client) V1() *NamespaceClient {
	return &NamespaceClient{c: c, prefix: "/v1"}
}

// NamespaceInfo returns one namespace's directory entry.
func (c *Client) NamespaceInfo(ctx context.Context, ns string) (serve.NamespaceInfo, error) {
	var out serve.NamespaceInfo
	err := c.do(ctx, http.MethodGet, "/v2/graphs/"+url.PathEscape(ns), nil, &out)
	return out, err
}

// do runs one request: body nil sends no payload, any other value is
// JSON-encoded. A 2xx decodes into out (out nil discards);
// anything else decodes the error envelope into an *APIError.
func (c *Client) do(ctx context.Context, method, path string, body any, out any) error {
	return c.doHeaders(ctx, method, path, nil, body, out)
}

// doHeaders is do with extra request headers.
func (c *Client) doHeaders(ctx context.Context, method, path string, hdr http.Header, body any, out any) error {
	var rd io.Reader
	if body != nil {
		enc, err := json.Marshal(body)
		if err != nil {
			return fmt.Errorf("serveclient: encode request: %w", err)
		}
		rd = bytes.NewReader(enc)
	}
	u := *c.base
	parsed, err := url.Parse(path)
	if err != nil {
		return fmt.Errorf("serveclient: bad path %q: %w", path, err)
	}
	u.Path = parsed.Path
	u.RawQuery = parsed.RawQuery
	req, err := http.NewRequestWithContext(ctx, method, u.String(), rd)
	if err != nil {
		return fmt.Errorf("serveclient: build request: %w", err)
	}
	if rd != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	for k, vs := range hdr {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("serveclient: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var env serve.ErrorJSON
		if derr := json.NewDecoder(resp.Body).Decode(&env); derr != nil || env.Code == "" {
			return &APIError{StatusCode: resp.StatusCode, Code: "unknown",
				Message: fmt.Sprintf("%s %s: undecodable error body", method, path)}
		}
		return &APIError{StatusCode: resp.StatusCode, Code: env.Code, Message: env.Error}
	}
	if out == nil {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("serveclient: decode %s %s response: %w", method, path, err)
	}
	return nil
}

// NamespaceClient is the per-tenant API surface, scoped to either a
// /v2/graphs/{ns} mount or the flat /v1 alias.
type NamespaceClient struct {
	c      *Client
	prefix string
}

// PatternsOptions selects a page of the ranked pattern list. Zero values
// take the server defaults (offset 0, limit 50).
type PatternsOptions struct {
	Offset    int
	Limit     int
	MultiLeaf bool
}

// Patterns fetches one page of the served snapshot's ranked patterns.
func (n *NamespaceClient) Patterns(ctx context.Context, opts PatternsOptions) (serve.PatternsResponse, error) {
	q := url.Values{}
	if opts.Offset > 0 {
		q.Set("offset", strconv.Itoa(opts.Offset))
	}
	if opts.Limit > 0 {
		q.Set("limit", strconv.Itoa(opts.Limit))
	}
	if opts.MultiLeaf {
		q.Set("multileaf", "1")
	}
	path := n.prefix + "/patterns"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var out serve.PatternsResponse
	err := n.c.do(ctx, http.MethodGet, path, nil, &out)
	return out, err
}

// Complete scores attribute completions for the requested vertices.
func (n *NamespaceClient) Complete(ctx context.Context, req serve.CompleteRequest) (serve.CompleteResponse, error) {
	var out serve.CompleteResponse
	err := n.c.do(ctx, http.MethodPost, n.prefix+"/complete", req, &out)
	return out, err
}

// Model fetches the served model's summary statistics.
func (n *NamespaceClient) Model(ctx context.Context) (serve.ModelResponse, error) {
	var out serve.ModelResponse
	err := n.c.do(ctx, http.MethodGet, n.prefix+"/model", nil, &out)
	return out, err
}

// Mutate submits one mutation batch; the ack names the backlog and the
// generation still being served (re-mining is asynchronous — use Watch to
// observe the fold).
func (n *NamespaceClient) Mutate(ctx context.Context, muts []serve.Mutation) (serve.MutationsResponse, error) {
	return n.MutateTraced(ctx, muts, "")
}

// MutateTraced is Mutate with a caller-chosen X-Request-Id trace ID ("" lets
// the server mint one); the ack echoes the ID in TraceID and names the
// batch's WAL sequence in Batch — the handle /debug/trace/{seq} queries.
func (n *NamespaceClient) MutateTraced(ctx context.Context, muts []serve.Mutation, traceID string) (serve.MutationsResponse, error) {
	var hdr http.Header
	if traceID != "" {
		hdr = http.Header{"X-Request-Id": {traceID}}
	}
	var out serve.MutationsResponse
	err := n.c.doHeaders(ctx, http.MethodPost, n.prefix+"/mutations", hdr, serve.MutationsRequest{Mutations: muts}, &out)
	return out, err
}

// Watch long-polls until a snapshot with Generation >= generation is
// published, the server-side timeout elapses, or the server drains (the
// latter two answer the CURRENT state with TimedOut=true). timeout zero
// takes the server default.
func (n *NamespaceClient) Watch(ctx context.Context, generation uint64, timeout time.Duration) (serve.WatchResponse, error) {
	q := url.Values{}
	if generation > 0 {
		q.Set("generation", strconv.FormatUint(generation, 10))
	}
	if timeout > 0 {
		q.Set("timeout_ms", strconv.FormatInt(timeout.Milliseconds(), 10))
	}
	path := n.prefix + "/watch"
	if len(q) > 0 {
		path += "?" + q.Encode()
	}
	var out serve.WatchResponse
	err := n.c.do(ctx, http.MethodGet, path, nil, &out)
	return out, err
}

// AwaitGeneration polls Watch until the served generation reaches gen or
// ctx expires — the client-side twin of serve.Server.AwaitGeneration for
// tests and deploy scripts that need "the fold landed" as a blocking call.
func (n *NamespaceClient) AwaitGeneration(ctx context.Context, gen uint64) (serve.WatchResponse, error) {
	for {
		w, err := n.Watch(ctx, gen, 0)
		if err != nil {
			return w, err
		}
		if w.Generation >= gen {
			return w, nil
		}
		if err := ctx.Err(); err != nil {
			return w, fmt.Errorf("serveclient: awaiting generation %d (at %d): %w", gen, w.Generation, err)
		}
	}
}
