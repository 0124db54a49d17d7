package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"cspm/internal/graph"
	"cspm/internal/obs"
	"cspm/internal/wal"
)

// Registry errors of the Go-facing Host API; the HTTP layer maps each to
// its envelope code and status.
var (
	// ErrNamespaceExists rejects creating a name that is already live.
	ErrNamespaceExists = errors.New("serve: namespace already exists")
	// ErrNamespaceNotFound names a namespace with no live tenant.
	ErrNamespaceNotFound = errors.New("serve: namespace not found")
	// ErrNamespaceLimit rejects a create past HostOptions.MaxNamespaces.
	ErrNamespaceLimit = errors.New("serve: namespace limit reached")
	// ErrHostClosed rejects registry operations after Close.
	ErrHostClosed = errors.New("serve: host closed")
)

// DefaultNamespace is the tenant the deprecated flat /v1/* surface aliases
// to, and the one a single-graph cspm-serve invocation seeds.
const DefaultNamespace = "default"

// maxGraphUpload bounds a namespace-create body: the uploaded graph text is
// materialised in memory before parsing. Mutation/complete bodies keep the
// tighter maxRequestBody bound.
const maxGraphUpload = 256 << 20

// HostOptions configures a multi-tenant Host.
type HostOptions struct {
	// RootDir, when non-empty, is the fleet's persist root: every namespace
	// owns <root>/<ns>/checkpoint and <root>/<ns>/wal (see wal.Layout), its
	// mutation acks are durable, and NewHost scans the root to restore every
	// namespace found there. "" hosts memory-only tenants.
	RootDir string
	// MaxNamespaces caps live namespaces (0 = unlimited). Creates past the
	// cap are rejected with CodeNamespaceLimit.
	MaxNamespaces int
	// MineBudget bounds how many tenants may run a mining pass (initial
	// mine or re-mine) concurrently across the whole host (0 = unbounded).
	// This is what keeps a mutation storm in one namespace from starving
	// every other tenant's re-mine loop.
	MineBudget int
	// Tenant is the per-namespace Options template: mining options,
	// debounce, retry pacing, transport. The per-tenant fields the host
	// derives itself — Dir, WALFS, Standby, Budget, Follow — must be zero;
	// Validate rejects the template otherwise.
	Tenant Options
	// Standby refuses a cold start: NewHost must restore at least one
	// namespace from RootDir, so a warm spare pointed at a replicated root
	// can never silently come up empty. Requires RootDir.
	Standby bool
	// Follow, when non-empty, is a LEADER HOST's base URL (e.g.
	// "http://leader:8080") and makes this host a replica fleet member:
	// every tenant runs as a follower of the same namespace on the leader,
	// and a background sync keeps the namespace set aligned — leader creates
	// appear here, leader deletes quarantine the local mirror. Creates,
	// deletes and mutations are rejected (or, for mutations with
	// ProxyWrites, forwarded). Requires RootDir; incompatible with Standby.
	Follow string
	// FollowPoll paces both each tenant's pull loop and the namespace-set
	// sync (0 = the serve-level default).
	FollowPoll time.Duration
	// FollowClient is the HTTP client every leader call uses (nil =
	// http.DefaultClient).
	FollowClient *http.Client
	// ProxyWrites forwards mutations hitting a follower tenant to the
	// leader instead of answering 409 not_leader, so naive clients can
	// point at any fleet member. The response streams back verbatim.
	ProxyWrites bool
	// Logger receives the host's structured lifecycle log (namespace
	// creates, deletes, recoveries, promotions) and, extended with an "ns"
	// attribute, each tenant's log. nil discards everything.
	Logger *slog.Logger
}

// Validate sanity-checks the options.
func (o HostOptions) Validate() error {
	if o.MaxNamespaces < 0 {
		return fmt.Errorf("serve: MaxNamespaces must be >= 0, got %d", o.MaxNamespaces)
	}
	if o.MineBudget < 0 {
		return fmt.Errorf("serve: MineBudget must be >= 0, got %d", o.MineBudget)
	}
	if o.Standby && o.RootDir == "" {
		return fmt.Errorf("serve: host Standby requires RootDir to promote from")
	}
	if o.Follow != "" {
		if o.RootDir == "" {
			return fmt.Errorf("serve: host Follow requires RootDir (the mirror checkpoints and WALs)")
		}
		if o.Standby {
			return fmt.Errorf("serve: host Follow and Standby are exclusive (a replica IS a continuously-warmed standby)")
		}
	} else if o.FollowPoll != 0 || o.FollowClient != nil || o.ProxyWrites {
		return fmt.Errorf("serve: FollowPoll/FollowClient/ProxyWrites require Follow")
	}
	if o.FollowPoll < 0 {
		return fmt.Errorf("serve: FollowPoll must be >= 0, got %v", o.FollowPoll)
	}
	t := o.Tenant
	if t.Dir != "" || t.WALFS != nil || t.Standby || t.Budget != nil || t.Follow != nil {
		return fmt.Errorf("serve: tenant template must leave Dir/WALFS/Standby/Budget/Follow zero (the host derives them per namespace)")
	}
	return t.Validate()
}

// NamespaceInfo is one tenant's directory entry on the admin surface
// (GET /v2/graphs, and the create/info responses). Field order is part of
// the wire contract.
type NamespaceInfo struct {
	Name             string `json:"name"`
	Generation       uint64 `json:"generation"`
	Vertices         int    `json:"vertices"`
	Edges            int    `json:"edges"`
	Patterns         int    `json:"patterns"`
	PendingMutations int    `json:"pending_mutations"`
	ModelSHA256      string `json:"model_sha256"`
	// Role is the tenant's replication role (PR 9): leader, follower, or
	// standalone.
	Role string `json:"role"`
}

// NamespacesResponse is the GET /v2/graphs payload.
type NamespacesResponse struct {
	Namespaces []NamespaceInfo `json:"namespaces"`
}

// DeleteNamespaceResponse acknowledges a namespace delete. QuarantinedTo is
// where the tenant's on-disk subtree was renamed ("" for a memory-only
// tenant): deletes quarantine, they never unlink an acknowledged WAL.
type DeleteNamespaceResponse struct {
	Name          string `json:"name"`
	QuarantinedTo string `json:"quarantined_to"`
}

// Host is the multi-tenant serving fleet member: a registry of named
// tenants (each a full Server — immutable snapshot, mutation loop, WAL and
// checkpoint subtree), a shared mine budget, and the HTTP surface that
// routes /v2/graphs/{ns}/... to tenants, admin verbs to the registry, and
// the deprecated flat /v1/* to the default namespace. All methods and the
// handler are safe for concurrent use.
type Host struct {
	opts   HostOptions
	layout wal.Layout
	budget *Budget
	log    *slog.Logger
	mux    *http.ServeMux
	routes []string

	mu       sync.RWMutex
	tenants  map[string]*Server
	creating map[string]bool
	closed   bool

	// Replica-host sync loop (Follow set): cancelling followCtx stops it and
	// aborts its in-flight leader request, syncDone confirms.
	followCtx    context.Context
	followCancel context.CancelFunc
	syncDone     chan struct{}

	closeOnce sync.Once
	closeErr  error
}

// NewHost validates opts and, when RootDir is set, scans it and restores
// every namespace found: each tenant promotes from its own checkpoint + WAL
// as a standby Server (Options.Standby: warm cache, replayed unfolded
// batches, no cold re-mine). A namespace tree with NO durable state — a
// create that died before its first checkpoint committed, so nothing was
// ever acknowledged — is quarantined and skipped; any other recovery
// failure aborts NewHost, because serving would mean lying about
// acknowledged writes. Close the host to stop every tenant.
func NewHost(opts HostOptions) (*Host, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	h := &Host{
		opts:     opts,
		layout:   wal.Layout{Root: opts.RootDir},
		budget:   NewBudget(opts.MineBudget),
		log:      opts.Logger,
		tenants:  make(map[string]*Server),
		creating: make(map[string]bool),
	}
	if h.log == nil {
		h.log = obs.Nop()
	}
	if opts.RootDir != "" {
		names, err := h.layout.Namespaces()
		if err != nil {
			return nil, err
		}
		for _, ns := range names {
			// On a replica host, restored namespaces come back as FOLLOWERS
			// (re-bootstrapping from the leader); elsewhere they promote from
			// their own checkpoint + WAL as standby servers.
			s, err := h.startTenant(ns, nil, nil, opts.Follow == "", opts.Follow != "")
			switch {
			case err == nil:
				h.tenants[ns] = s
				h.log.Info("namespace recovered", "ns", ns, "role", s.Role(),
					"gen", s.Snapshot().Generation, "replayed_batches", s.Recovery().ReplayedBatches)
			case errors.Is(err, ErrNoDurableState):
				// Nothing was ever acknowledged under this tree; set it aside
				// (never unlink — an operator can still inspect it) and move on.
				h.log.Warn("quarantining dead namespace", "ns", ns)
				if _, qerr := h.layout.Quarantine(ns); qerr != nil {
					h.closeTenantsLocked()
					return nil, fmt.Errorf("serve: quarantine dead namespace %q: %w", ns, qerr)
				}
			default:
				h.closeTenantsLocked()
				return nil, fmt.Errorf("serve: recover namespace %q: %w", ns, err)
			}
		}
	}
	if opts.Standby && len(h.tenants) == 0 {
		h.closeTenantsLocked()
		return nil, fmt.Errorf("%w: standby host found no namespace under %q", ErrNoDurableState, opts.RootDir)
	}
	h.mux = h.buildRoutes()
	if opts.Follow != "" {
		// The first namespace-set sync is strict — a replica host that cannot
		// reach its leader at start has nothing trustworthy to serve beyond
		// what it restored, and failing loudly beats silently serving an
		// empty fleet. Later sync failures just skip a cycle.
		h.followCtx, h.followCancel = context.WithCancel(context.Background())
		if err := h.syncFollowers(); err != nil {
			h.followCancel()
			h.closeTenantsLocked()
			return nil, fmt.Errorf("serve: replica host initial sync: %w", err)
		}
		h.syncDone = make(chan struct{})
		go h.followSyncLoop()
	}
	return h, nil
}

// closeTenantsLocked closes every started tenant; used on NewHost failure
// paths before the host is published (no lock contention yet).
func (h *Host) closeTenantsLocked() {
	for _, s := range h.tenants {
		s.Close()
	}
}

// startTenant builds one tenant Server from the template: the namespace's
// subtree as its Dir when the host persists, the shared budget. override
// (nil = template) customises a tenant at the Go API; its per-tenant state
// fields must be zero, because the host derives them (a rootless host keeps
// its tenants memory-only). WALFS stays open to overrides so
// fault-injection tests can wedge one rooted tenant's log. Budget is always
// the host's.
func (h *Host) startTenant(ns string, g *graph.Graph, override *Options, standby, follow bool) (*Server, error) {
	opts := h.opts.Tenant
	if override != nil {
		opts = *override
		if opts.Budget != nil {
			return nil, fmt.Errorf("serve: tenant override must leave Budget zero (the host's budget is shared)")
		}
		if opts.Follow != nil {
			return nil, fmt.Errorf("serve: tenant override must leave Follow zero (the host derives it from its own Follow URL)")
		}
		if opts.Dir != "" || opts.Standby {
			return nil, fmt.Errorf("serve: tenant override must leave Dir/Standby zero (the host derives them)")
		}
	}
	opts.Budget = h.budget
	if opts.Logger == nil && h.opts.Logger != nil {
		opts.Logger = h.opts.Logger.With("ns", ns)
	}
	if standby {
		opts.Standby = true
	}
	if follow {
		// Namespace names are ValidNamespace-constrained ([a-z0-9_-]), so
		// splicing one into the leader URL needs no escaping.
		opts.Follow = &FollowOptions{
			Leader: h.opts.Follow + "/v2/graphs/" + ns,
			Poll:   h.opts.FollowPoll,
			Client: h.opts.FollowClient,
		}
	}
	if h.opts.RootDir != "" {
		opts.Dir = h.layout.NamespaceDir(ns)
	}
	return NewServer(g, opts)
}

// Create registers a new namespace serving g (nil = an empty graph; attach
// state through mutations) under the template options, or override when
// non-nil. It is the Go-API twin of POST /v2/graphs/{ns}. The host's lock
// is NOT held across the initial mine, so creates never stall queries to
// other tenants; concurrent creates of the same name race to a single
// winner.
func (h *Host) Create(ns string, g *graph.Graph, override *Options) (*Server, error) {
	if err := wal.ValidNamespace(ns); err != nil {
		return nil, err
	}
	if h.opts.Follow != "" {
		// A replica's namespace set mirrors its leader's: direct creates would
		// fork the fleet. Create the namespace on the leader; the sync loop
		// brings it here.
		return nil, fmt.Errorf("%w (leader: %s)", ErrNotLeader, h.opts.Follow)
	}
	return h.create(ns, g, override, false)
}

// create is the registry-side create, shared by the public Create and the
// replica sync loop (which registers followers a direct create must not).
func (h *Host) create(ns string, g *graph.Graph, override *Options, follow bool) (*Server, error) {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil, ErrHostClosed
	}
	if _, ok := h.tenants[ns]; ok || h.creating[ns] {
		h.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrNamespaceExists, ns)
	}
	if max := h.opts.MaxNamespaces; max > 0 && len(h.tenants)+len(h.creating) >= max {
		h.mu.Unlock()
		return nil, fmt.Errorf("%w: cap %d", ErrNamespaceLimit, max)
	}
	h.creating[ns] = true
	h.mu.Unlock()
	defer func() {
		h.mu.Lock()
		delete(h.creating, ns)
		h.mu.Unlock()
	}()

	if h.opts.RootDir != "" {
		// A leftover tree under this name was either quarantined by the
		// recovery scan or belongs to a create that never completed; either
		// way it must not leak into the fresh tenant. Set it aside.
		if _, err := os.Stat(h.layout.NamespaceDir(ns)); err == nil {
			if _, qerr := h.layout.Quarantine(ns); qerr != nil {
				return nil, qerr
			}
		}
	}
	// nil graph means "start empty" — except for a follower (the leader
	// supplies the graph).
	if g == nil && !follow {
		g = graph.NewBuilder(0).Build()
	}
	s, err := h.startTenant(ns, g, override, false, follow)
	if err != nil {
		return nil, err
	}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		s.Close()
		return nil, ErrHostClosed
	}
	h.tenants[ns] = s
	h.mu.Unlock()
	h.log.Info("namespace created", "ns", ns, "role", s.Role(), "gen", s.Snapshot().Generation)
	return s, nil
}

// Delete unregisters the namespace, closes its server (final re-mine drain,
// checkpoint, WAL close) and QUARANTINES its on-disk subtree — renamed
// under <root>/.quarantine, never unlinked, so acknowledged WAL batches
// survive even an operator's delete. It returns the quarantine destination
// ("" for memory-only tenants).
func (h *Host) Delete(ns string) (string, error) {
	if h.opts.Follow != "" {
		// Mirror deletes follow leader deletes; a direct one would be undone
		// (recreated) by the next sync cycle anyway.
		return "", fmt.Errorf("%w (leader: %s)", ErrNotLeader, h.opts.Follow)
	}
	return h.remove(ns)
}

// remove unregisters and quarantines a namespace; shared by Delete and the
// replica sync loop.
func (h *Host) remove(ns string) (string, error) {
	h.mu.Lock()
	s, ok := h.tenants[ns]
	if !ok {
		h.mu.Unlock()
		return "", fmt.Errorf("%w: %q", ErrNamespaceNotFound, ns)
	}
	delete(h.tenants, ns)
	h.mu.Unlock()
	if err := s.Close(); err != nil {
		// The tenant is already unregistered; report the close failure but
		// still quarantine whatever state is on disk.
		if h.opts.RootDir == "" {
			return "", err
		}
		dst, qerr := h.layout.Quarantine(ns)
		if qerr != nil {
			return "", errors.Join(err, qerr)
		}
		return dst, err
	}
	if h.opts.RootDir == "" {
		h.log.Info("namespace deleted", "ns", ns)
		return "", nil
	}
	dst, qerr := h.layout.Quarantine(ns)
	if qerr == nil {
		h.log.Info("namespace deleted", "ns", ns, "quarantined_to", dst)
	}
	return dst, qerr
}

// Tenant returns the named namespace's server.
func (h *Host) Tenant(ns string) (*Server, bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	s, ok := h.tenants[ns]
	return s, ok
}

// Namespaces lists every live tenant, sorted by name.
func (h *Host) Namespaces() []NamespaceInfo {
	h.mu.RLock()
	out := make([]NamespaceInfo, 0, len(h.tenants))
	for ns, s := range h.tenants {
		out = append(out, namespaceInfo(ns, s))
	}
	h.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// namespaceInfo snapshots one tenant's directory entry. One snapshot load:
// every field describes the same generation.
func namespaceInfo(ns string, s *Server) NamespaceInfo {
	snap := s.Snapshot()
	return NamespaceInfo{
		Name:             ns,
		Generation:       snap.Generation,
		Vertices:         snap.Graph.NumVertices(),
		Edges:            snap.Graph.NumEdges(),
		Patterns:         len(snap.Model.Patterns),
		PendingMutations: s.PendingMutations(),
		ModelSHA256:      snap.ModelSHA256,
		Role:             s.Role(),
	}
}

// Budget exposes the host's shared mine budget (monitoring).
func (h *Host) Budget() *Budget { return h.budget }

// Routes returns the host's full route inventory, sorted — one
// "METHOD /pattern" line per registered route. The golden route test pins
// it so additions and renames fail loudly.
func (h *Host) Routes() []string {
	out := make([]string, len(h.routes))
	copy(out, h.routes)
	return out
}

// Drain releases every tenant's /watch long-polls immediately;
// wire it into http.Server.RegisterOnShutdown exactly like Server.Drain.
func (h *Host) Drain() {
	h.mu.RLock()
	defer h.mu.RUnlock()
	for _, s := range h.tenants {
		s.Drain()
	}
}

// Close stops every tenant (each runs its shutdown drain and checkpoint)
// and rejects further creates. Idempotent; returns the first tenant close
// error.
func (h *Host) Close() error {
	h.closeOnce.Do(func() {
		if h.followCancel != nil {
			h.followCancel()
			<-h.syncDone
		}
		h.mu.Lock()
		h.closed = true
		tenants := make([]*Server, 0, len(h.tenants))
		for _, s := range h.tenants {
			tenants = append(tenants, s)
		}
		h.mu.Unlock()
		for _, s := range tenants {
			if err := s.Close(); err != nil && h.closeErr == nil {
				h.closeErr = err
			}
		}
	})
	return h.closeErr
}

// ServeHTTP serves the v2 (and aliased v1) API; a Host plugs directly into
// http.Server.
func (h *Host) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h.mux.ServeHTTP(w, r)
}

// buildRoutes assembles the host mux: admin verbs, the per-namespace v2
// surface (one route per tenantRoutes entry), and the deprecated /v1 alias
// onto the default namespace.
func (h *Host) buildRoutes() *http.ServeMux {
	rg := newRegistrar()
	rg.handle("GET /v2/graphs", h.handleListNamespaces)
	rg.handle("POST /v2/graphs/{ns}", h.handleCreateNamespace)
	rg.handle("GET /v2/graphs/{ns}", h.handleNamespaceInfo)
	rg.handle("DELETE /v2/graphs/{ns}", h.handleDeleteNamespace)
	for _, rt := range tenantRoutes {
		rg.handle(rt.pattern("/v2/graphs/{ns}"), h.tenantHandler(rt, false))
		rg.handle(rt.pattern("/v1"), h.tenantHandler(rt, true))
	}
	// Replication and debug are fleet plumbing: v2-only, never aliased onto
	// the frozen /v1 surface. Promote is host-level — it restarts the tenant,
	// which only the registry can do.
	for _, rt := range replicationRoutes {
		rg.handle(rt.pattern("/v2/graphs/{ns}"), h.tenantHandler(rt, false))
	}
	for _, rt := range debugRoutes {
		rg.handle(rt.pattern("/v2/graphs/{ns}"), h.tenantHandler(rt, false))
	}
	rg.handle("POST /v2/graphs/{ns}/replication/promote", h.handlePromote)
	// Host-level Prometheus exposition: one scrape covers every tenant.
	rg.handle("GET /metrics", h.handlePromMetrics)
	mux := rg.finish()
	h.routes = rg.routes
	return mux
}

// v1AliasSunset is the RFC 8594 Sunset date on every /v1 alias response:
// the instant after which the alias may stop answering. A fixed date (not
// now()+offset) keeps the header byte-stable across responses so clients
// and caches see one consistent deadline.
const v1AliasSunset = "Sun, 01 Aug 2027 00:00:00 GMT"

// tenantHandler is the one tenant dispatcher: it resolves the request's
// namespace to its tenant and runs rt's handler under the tenant's latency
// histogram, so per-namespace metrics come for free. On the v2 surface the
// namespace is the {ns} path segment. With alias set the route is the
// deprecated flat /v1 surface: the namespace is DefaultNamespace and every
// response is marked deprecated per RFC 9745 with an RFC 8594 Sunset date
// and a successor-version Link — same handlers, same bytes, so a v1 client
// observes zero change beyond the headers steering it to v2. An unknown
// namespace answers 404 with the envelope; a follower's mutations are
// forwarded to the leader when the host proxies writes. The per-route
// strings are built once, at registration.
func (h *Host) tenantHandler(rt tenantRoute, alias bool) http.HandlerFunc {
	successor := `</v2/graphs/` + DefaultNamespace + rt.suffix + `>; rel="successor-version"`
	var notFoundHint string
	if alias {
		notFoundHint = " (the /v1 alias serves it; create it or use /v2)"
	}
	return func(w http.ResponseWriter, r *http.Request) {
		ns := DefaultNamespace
		if alias {
			w.Header().Set("Deprecation", "true")
			w.Header().Set("Sunset", v1AliasSunset)
			w.Header().Set("Link", successor)
		} else {
			ns = r.PathValue("ns")
		}
		s, ok := h.Tenant(ns)
		switch {
		case !ok:
			writeError(w, http.StatusNotFound, CodeNamespaceNotFound, "namespace %q not found%s", ns, notFoundHint)
		case rt.ep == epMutations && h.opts.ProxyWrites && s.Role() == RoleFollower:
			h.proxyMutations(w, r, ns)
		default:
			s.timed(&rt, w, r)
		}
	}
}

func (h *Host) handleListNamespaces(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, NamespacesResponse{Namespaces: h.Namespaces()})
}

// handlePromMetrics is GET /metrics: the whole fleet member in one
// Prometheus text-format scrape — every tenant's counters under
// {namespace,role} labels plus the shared mine budget.
func (h *Host) handlePromMetrics(w http.ResponseWriter, r *http.Request) {
	h.mu.RLock()
	names := make([]string, 0, len(h.tenants))
	servers := make([]*Server, 0, len(h.tenants))
	for ns, s := range h.tenants {
		names = append(names, ns)
		servers = append(servers, s)
	}
	h.mu.RUnlock()
	// Snapshot outside the registry lock: Metrics() walks atomic counters
	// but must never hold up creates and deletes.
	tenants := make([]PromTenant, len(names))
	for i := range names {
		tenants[i] = PromTenant{Namespace: names[i], Metrics: servers[i].Metrics()}
	}
	w.Header().Set("Content-Type", obs.PromContentType)
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, tenants, h.budget.Stats()); err != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, "render metrics: %v", err)
		return
	}
	_, _ = w.Write(buf.Bytes())
}

func (h *Host) handleNamespaceInfo(w http.ResponseWriter, r *http.Request) {
	ns := r.PathValue("ns")
	s, ok := h.Tenant(ns)
	if !ok {
		writeError(w, http.StatusNotFound, CodeNamespaceNotFound, "namespace %q not found", ns)
		return
	}
	writeJSON(w, http.StatusOK, namespaceInfo(ns, s))
}

// handleCreateNamespace is POST /v2/graphs/{ns}: the body is the initial
// graph in the text format (empty body = empty graph; r records may use
// vertex ids below 2r only, larger ones are a 400). 201 on success with
// the namespace's directory entry; the initial mine runs synchronously
// under the shared budget, so the entry already names generation 1.
func (h *Host) handleCreateNamespace(w http.ResponseWriter, r *http.Request) {
	ns := r.PathValue("ns")
	if err := wal.ValidNamespace(ns); err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "%v", err)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxGraphUpload))
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "read graph upload: %v", err)
		return
	}
	var g *graph.Graph
	if len(body) > 0 {
		if g, err = graph.Load(bytes.NewReader(body)); err != nil {
			writeError(w, http.StatusBadRequest, CodeBadRequest, "parse graph upload: %v", err)
			return
		}
	}
	s, err := h.Create(ns, g, nil)
	if err != nil {
		switch {
		case errors.Is(err, ErrNamespaceExists):
			writeError(w, http.StatusConflict, CodeNamespaceExists, "%v", err)
		case errors.Is(err, ErrNamespaceLimit):
			writeError(w, http.StatusTooManyRequests, CodeNamespaceLimit, "%v", err)
		case errors.Is(err, ErrHostClosed):
			writeUnavailable(w, "%v", err)
		default:
			writeError(w, http.StatusInternalServerError, CodeInternal, "create namespace: %v", err)
		}
		return
	}
	writeJSON(w, http.StatusCreated, namespaceInfo(ns, s))
}

func (h *Host) handleDeleteNamespace(w http.ResponseWriter, r *http.Request) {
	ns := r.PathValue("ns")
	dst, err := h.Delete(ns)
	if err != nil {
		switch {
		case errors.Is(err, ErrNamespaceNotFound):
			writeError(w, http.StatusNotFound, CodeNamespaceNotFound, "%v", err)
		case errors.Is(err, ErrNotLeader):
			writeError(w, http.StatusConflict, CodeNotLeader, "%v", err)
		default:
			writeError(w, http.StatusInternalServerError, CodeInternal, "delete namespace: %v", err)
		}
		return
	}
	writeJSON(w, http.StatusOK, DeleteNamespaceResponse{Name: ns, QuarantinedTo: dst})
}

// ---------------------------------------------------------------------------
// Replica-host fleet membership.

func (h *Host) followClient() *http.Client {
	if h.opts.FollowClient != nil {
		return h.opts.FollowClient
	}
	return http.DefaultClient
}

func (h *Host) followPoll() time.Duration {
	if h.opts.FollowPoll > 0 {
		return h.opts.FollowPoll
	}
	return defaultFollowPoll
}

// followSyncLoop keeps the replica's namespace SET aligned with the
// leader's. Individual tenants pull their own data; this loop only handles
// membership — leader creates appear as local followers, leader deletes
// quarantine the local mirror. A failed cycle (leader unreachable) is
// skipped wholesale: an empty list that is really an error must never read
// as "delete everything".
func (h *Host) followSyncLoop() {
	defer close(h.syncDone)
	t := time.NewTicker(h.followPoll())
	defer t.Stop()
	for {
		select {
		case <-h.followCtx.Done():
			return
		case <-t.C:
		}
		_ = h.syncFollowers() // transient; retried next tick
	}
}

// syncFollowers runs one membership sync against the leader's namespace
// list, fetched like a tenant's pulls (see leaderGet) under the host's
// follow context, so a stalled leader can hang neither NewHost nor Close.
func (h *Host) syncFollowers() error {
	body, err := leaderGet(h.followCtx, h.opts.FollowClient, h.followPoll(), h.opts.Follow+"/v2/graphs", "")
	if err != nil {
		return err
	}
	var list NamespacesResponse
	if err := json.Unmarshal(body, &list); err != nil {
		return fmt.Errorf("serve: leader namespace list: %w", err)
	}
	want := make(map[string]bool, len(list.Namespaces))
	for _, info := range list.Namespaces {
		want[info.Name] = true
	}
	var firstErr error
	for _, info := range list.Namespaces {
		h.mu.RLock()
		_, live := h.tenants[info.Name]
		h.mu.RUnlock()
		if live {
			continue
		}
		if _, err := h.create(info.Name, nil, nil, true); err != nil && !errors.Is(err, ErrNamespaceExists) && firstErr == nil {
			firstErr = fmt.Errorf("serve: follow namespace %q: %w", info.Name, err)
		}
	}
	// Only FOLLOWER tenants absent from the leader are removed: a tenant
	// promoted out of follower role is an operator decision this loop must
	// never undo.
	h.mu.RLock()
	var gone []string
	for ns, s := range h.tenants {
		if !want[ns] && s.Role() == RoleFollower {
			gone = append(gone, ns)
		}
	}
	h.mu.RUnlock()
	for _, ns := range gone {
		if _, err := h.remove(ns); err != nil && !errors.Is(err, ErrNamespaceNotFound) && firstErr == nil {
			firstErr = fmt.Errorf("serve: drop namespace %q: %w", ns, err)
		}
	}
	return firstErr
}

// proxyMutations forwards a mutation POST hitting a follower tenant to the
// same namespace on the leader and streams the answer back verbatim, so a
// naive client pointed at any fleet member still lands its writes.
func (h *Host) proxyMutations(w http.ResponseWriter, r *http.Request, ns string) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBody))
	if err != nil {
		writeError(w, http.StatusBadRequest, CodeBadRequest, "read mutation body: %v", err)
		return
	}
	url := h.opts.Follow + "/v2/graphs/" + ns + "/mutations"
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		writeError(w, http.StatusInternalServerError, CodeInternal, "proxy mutations: %v", err)
		return
	}
	req.Header.Set("Content-Type", "application/json")
	// The trace ID rides the proxy hop both ways, so the client's
	// X-Request-Id names the same trace on the leader.
	if id := r.Header.Get("X-Request-Id"); id != "" {
		req.Header.Set("X-Request-Id", id)
	}
	resp, err := h.followClient().Do(req)
	if err != nil {
		writeUnavailable(w, "leader %s unreachable: %v", h.opts.Follow, err)
		return
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	if id := resp.Header.Get("X-Request-Id"); id != "" {
		w.Header().Set("X-Request-Id", id)
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, io.LimitReader(resp.Body, maxRequestBody))
}

// Promote turns the named FOLLOWER tenant into a leader: the follower is
// closed and restarted in standby mode on its own mirrored directories, so
// the restart replays every mirrored-but-unfolded WAL batch on top of the
// installed checkpoint — promotion loses no batch the old leader
// acknowledged and shipped. The promoted tenant keeps serving (and now
// accepts writes) under the same namespace.
func (h *Host) Promote(ns string) (*Server, error) {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil, ErrHostClosed
	}
	s, ok := h.tenants[ns]
	if !ok || h.creating[ns] {
		h.mu.Unlock()
		return nil, fmt.Errorf("%w: %q", ErrNamespaceNotFound, ns)
	}
	if s.Role() != RoleFollower {
		h.mu.Unlock()
		return nil, fmt.Errorf("%w: %q has role %s", ErrNotFollower, ns, s.Role())
	}
	// The creating flag keeps a concurrent promote (or create race) out of
	// this namespace while its server is down.
	h.creating[ns] = true
	h.mu.Unlock()
	defer func() {
		h.mu.Lock()
		delete(h.creating, ns)
		h.mu.Unlock()
	}()
	if err := s.Close(); err != nil {
		return nil, fmt.Errorf("serve: promote %q: close follower: %w", ns, err)
	}
	promoted, err := h.startTenant(ns, nil, nil, true, false)
	if err != nil {
		// The follower is gone and the promotion failed: unregister so the
		// namespace reads as down rather than serving a closed tenant.
		h.mu.Lock()
		delete(h.tenants, ns)
		h.mu.Unlock()
		return nil, fmt.Errorf("serve: promote %q: %w", ns, err)
	}
	h.mu.Lock()
	h.tenants[ns] = promoted
	h.mu.Unlock()
	h.log.Info("namespace promoted", "ns", ns, "gen", promoted.Snapshot().Generation,
		"replayed_batches", promoted.Recovery().ReplayedBatches)
	return promoted, nil
}

// handlePromote is POST /v2/graphs/{ns}/replication/promote.
func (h *Host) handlePromote(w http.ResponseWriter, r *http.Request) {
	ns := r.PathValue("ns")
	s, err := h.Promote(ns)
	if err != nil {
		switch {
		case errors.Is(err, ErrNamespaceNotFound):
			writeError(w, http.StatusNotFound, CodeNamespaceNotFound, "%v", err)
		case errors.Is(err, ErrNotFollower):
			writeError(w, http.StatusConflict, CodeNotFollower, "%v", err)
		case errors.Is(err, ErrHostClosed):
			writeUnavailable(w, "%v", err)
		default:
			writeError(w, http.StatusInternalServerError, CodeInternal, "promote: %v", err)
		}
		return
	}
	writeJSON(w, http.StatusOK, PromoteResponse{
		Name:            ns,
		Role:            s.Role(),
		Generation:      s.Snapshot().Generation,
		ReplayedBatches: s.Recovery().ReplayedBatches,
	})
}
