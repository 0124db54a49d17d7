package serveclient

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cspm/internal/graph"
	"cspm/internal/serve"
)

func testGraph(t testing.TB) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(4)
	for v, vals := range [][]string{{"smoker"}, {"smoker", "cancer"}, {"cancer"}, {"smoker"}} {
		for _, val := range vals {
			if err := b.AddAttr(graph.VertexID(v), val); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, e := range [][2]graph.VertexID{{0, 1}, {1, 2}, {2, 3}, {0, 2}} {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

// startHost spins a multi-tenant host with one "alpha" tenant behind real
// HTTP and returns a client for it.
func startHost(t *testing.T) (*serve.Host, *Client) {
	t.Helper()
	h, err := serve.NewHost(serve.HostOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { h.Close() })
	if _, err := h.Create("alpha", testGraph(t), nil); err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(h)
	t.Cleanup(hs.Close)
	c, err := New(hs.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	return h, c
}

func ctxShort(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	t.Cleanup(cancel)
	return ctx
}

func TestNewRejectsBadBaseURL(t *testing.T) {
	for _, bad := range []string{"", "not a url", "localhost:8080/nope"} {
		if _, err := New(bad, nil); err == nil {
			t.Errorf("New(%q) accepted a base URL without scheme://host", bad)
		}
	}
}

func TestClientFullSurface(t *testing.T) {
	_, c := startHost(t)
	ctx := ctxShort(t)
	ns := c.Namespace("alpha")

	pats, err := ns.Patterns(ctx, PatternsOptions{Limit: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if pats.Generation != 1 || pats.Total == 0 || len(pats.Patterns) != pats.Total {
		t.Fatalf("patterns = %+v, want generation 1 with the full list", pats)
	}
	paged, err := ns.Patterns(ctx, PatternsOptions{Offset: 1, Limit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if paged.Offset != 1 || paged.Limit != 1 {
		t.Fatalf("pagination not forwarded: %+v", paged)
	}

	comp, err := ns.Complete(ctx, serve.CompleteRequest{Vertices: []graph.VertexID{0}, TopK: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(comp.Results) != 1 || comp.Results[0].Vertex != 0 || len(comp.Results[0].Values) == 0 {
		t.Fatalf("complete = %+v, want scored values for vertex 0", comp)
	}

	model, err := ns.Model(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if model.Vertices != 4 || model.Generation != 1 {
		t.Fatalf("model = %+v, want 4 vertices at generation 1", model)
	}

	info, err := c.NamespaceInfo(ctx, "alpha")
	if err != nil {
		t.Fatal(err)
	}
	if info.Name != "alpha" || info.Vertices != 4 || info.ModelSHA256 == "" {
		t.Fatalf("info = %+v, want alpha with 4 vertices and a commitment", info)
	}

	ack, err := ns.Mutate(ctx, []serve.Mutation{{Op: serve.OpAddEdge, U: 0, V: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if ack.Accepted != 1 {
		t.Fatalf("mutate ack = %+v, want 1 accepted", ack)
	}
	watch, err := ns.AwaitGeneration(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	if watch.Generation < 2 || watch.ModelSHA256 == "" {
		t.Fatalf("await = %+v, want generation >= 2 with a commitment", watch)
	}
}

// TestClientErrorMapping: a non-2xx response surfaces as a typed *APIError
// carrying the envelope's status and code, so callers branch on the code.
// The host's own envelope table lives in internal/serve
// (TestHostErrorEnvelopes); this checks the client's decoding of it, for
// the admin routes through the request core itself.
func TestClientErrorMapping(t *testing.T) {
	_, c := startHost(t)
	ctx := ctxShort(t)

	cases := []struct {
		name       string
		call       func() error
		wantStatus int
		wantCode   string
	}{
		{"namespace not found", func() error {
			_, err := c.Namespace("ghost").Model(ctx)
			return err
		}, http.StatusNotFound, serve.CodeNamespaceNotFound},
		{"duplicate create", func() error {
			return c.do(ctx, http.MethodPost, "/v2/graphs/alpha", nil, nil)
		}, http.StatusConflict, serve.CodeNamespaceExists},
		{"invalid name", func() error {
			return c.do(ctx, http.MethodPost, "/v2/graphs/Not-Valid-NAME", nil, nil)
		}, http.StatusBadRequest, serve.CodeBadRequest},
		{"bad graph upload", func() error {
			// A JSON body is not graph text.
			return c.do(ctx, http.MethodPost, "/v2/graphs/fresh", map[string]string{"not": "a graph"}, nil)
		}, http.StatusBadRequest, serve.CodeBadRequest},
		{"delete unknown", func() error {
			return c.do(ctx, http.MethodDelete, "/v2/graphs/ghost", nil, nil)
		}, http.StatusNotFound, serve.CodeNamespaceNotFound},
		{"info of unknown namespace", func() error {
			_, err := c.NamespaceInfo(ctx, "ghost")
			return err
		}, http.StatusNotFound, serve.CodeNamespaceNotFound},
		{"invalid mutation", func() error {
			_, err := c.Namespace("alpha").Mutate(ctx, []serve.Mutation{{Op: "bogus"}})
			return err
		}, http.StatusBadRequest, serve.CodeBadRequest},
		{"bad complete", func() error {
			_, err := c.Namespace("alpha").Complete(ctx, serve.CompleteRequest{})
			return err
		}, http.StatusBadRequest, serve.CodeBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.call()
			var ae *APIError
			if !errors.As(err, &ae) {
				t.Fatalf("error = %v (%T), want an *APIError", err, err)
			}
			if ae.StatusCode != tc.wantStatus || ae.Code != tc.wantCode {
				t.Fatalf("error = %d %s, want %d %s", ae.StatusCode, ae.Code, tc.wantStatus, tc.wantCode)
			}
			if !strings.Contains(ae.Error(), tc.wantCode) {
				t.Errorf("Error() = %q does not name the code", ae.Error())
			}
		})
	}

	// A body that is not the envelope still maps to an *APIError, with the
	// code "unknown", rather than a decode error.
	plain := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "bad gateway", http.StatusBadGateway)
	}))
	t.Cleanup(plain.Close)
	pc, err := New(plain.URL, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = pc.Namespace("alpha").Model(ctx)
	var ae *APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusBadGateway || ae.Code != "unknown" {
		t.Fatalf("non-envelope error body = %v, want a 502 *APIError with code unknown", err)
	}
}

// TestClientV1AliasSurface: the same typed client drives the deprecated
// flat surface, observing identical payloads to the default namespace.
func TestClientV1AliasSurface(t *testing.T) {
	h, c := startHost(t)
	ctx := ctxShort(t)
	if _, err := h.Create(serve.DefaultNamespace, testGraph(t), nil); err != nil {
		t.Fatal(err)
	}
	v1, err := c.V1().Model(ctx)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := c.Namespace(serve.DefaultNamespace).Model(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if v1 != v2 {
		t.Fatalf("alias model %+v diverges from default namespace model %+v", v1, v2)
	}
}
