// Package server exposes a Koios engine over HTTP with a JSON API — the
// deployment shape a downstream user runs: load a dataset once, keep the
// indexes warm, and answer top-k semantic overlap queries from many clients
// concurrently while the collection keeps changing (the segmented engine
// serves searches from immutable snapshots, so reads never block on
// writes).
//
// Endpoints:
//
//	POST   /v1/search        {"query": [...], "k": 5}          → top-k results + stats
//	POST   /v1/search/batch  {"queries": [[...], ...], "k": 5} → per-query results (or per-entry errors) against one snapshot
//	POST   /v1/overlap       {"a": [...], "b": [...]}          → pairwise measures
//	POST   /v1/sets          {"name": "...", "elements": [..]} → insert/replace a set
//	GET    /v1/sets/{name}                                      → fetch a live set (404 if unknown/deleted)
//	DELETE /v1/sets/{name}                                      → delete a set
//	GET    /v1/info                                             → collection + segment + throughput metadata
//	GET    /healthz                                             → liveness
//
// Multi-tenant surface (DESIGN.md §14): one process serves N named
// collections through a collection.Registry. Every per-collection endpoint
// is one row of a table (collectionRoutes) registered under two prefixes:
// the un-scoped routes above (plus POST /v1/scrub and /v1/repair) serve the
// default collection, and named collections are reached via:
//
//	GET    /v1/collections                              → list collections with quotas + counters
//	POST   /v1/collections  {"name": "...", "quota": …} → create a collection
//	GET    /v1/collections/{collection}                 → one collection's info
//	DELETE /v1/collections/{collection}                 → drop a collection
//	*      /v1/collections/{collection}/search|search/batch|overlap|sets|sets/{name}|scrub|repair
//
// Searches run through a bounded worker pool (DESIGN.md §9): at most
// Config.SearchWorkers queries execute at once, the rest queue; every query
// gets its own timeout, and /v1/info exposes queue depth and latency
// percentiles so operators can see the pool saturating before clients do.
// Per-collection quotas and rate limits (413/429 with structured errors)
// are enforced at admission, before a request can touch the shared pool.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/matching"
	"repro/internal/sched"
	"repro/internal/segment"
	"repro/internal/sets"
)

// Config parameterizes the serving layer: request limits, the worker pool
// and admission control. What a search computes — the default k, α, the
// partitions and verification workers — is the served collection's
// (segment.Manager.Options); the server reads it there.
type Config struct {
	// MaxK caps per-request k (guards against a request allocating huge
	// top-k structures). Default 1000.
	MaxK int
	// MaxQueryElements rejects oversized queries and inserted sets.
	// Default 100000.
	MaxQueryElements int
	// SearchWorkers bounds concurrently executing searches across all
	// requests (the worker pool size). Queries beyond the limit queue until
	// a slot frees. Default: GOMAXPROCS.
	SearchWorkers int
	// QueryTimeout bounds each query end to end — worker-pool queue wait
	// plus execution, batch entries individually. An expired single query
	// answers 504; an expired batch entry reports the error in place while
	// the rest of the batch completes. 0 disables the limit.
	QueryTimeout time.Duration
	// MaxBatchQueries caps the number of queries in one batch request.
	// Default 256.
	MaxBatchQueries int
	// MaxQueueDepth is the per-tenant queue depth beyond which a
	// collection's new search requests are shed with 429 + Retry-After
	// instead of queueing — the admission backstop around the fair queues:
	// a flooding tenant fills only its own queue and then sheds, leaving
	// the other tenants' queues (and latency) untouched. Default: 8 ×
	// SearchWorkers.
	MaxQueueDepth int
	// ShedLatencyP99 sheds new searches (429 + Retry-After) whenever the
	// pool's recent p99 latency exceeds this bound while queries are
	// queueing — the latency-percentile half of admission control:
	// queue-depth shedding caps how many wait, this caps how long the tail
	// already waits. 0 (the default) disables it.
	ShedLatencyP99 time.Duration
}

func (c Config) withDefaults() Config {
	if c.MaxK <= 0 {
		c.MaxK = 1000
	}
	if c.MaxQueryElements <= 0 {
		c.MaxQueryElements = 100000
	}
	if c.MaxBatchQueries <= 0 {
		c.MaxBatchQueries = 256
	}
	return c
}

// Server is the HTTP handler set around a registry of collections. The
// worker pool is shared across all collections — the fairness and
// admission knobs live on the collections themselves.
type Server struct {
	cfg Config
	reg *collection.Registry
	def *collection.Collection
	// mgr is the default collection's manager — the engine the legacy
	// un-scoped routes serve.
	mgr   *segment.Manager
	mux   *http.ServeMux
	pool  *workerPool
	start time.Time
	// Lazy-stream aggregates across all served queries (DESIGN.md §10):
	// how many queries cut the token stream early, and the cumulative
	// tuples consumed vs. α-neighbors retrieved — the serving-level view of
	// the cut-off's savings, surfaced in /v1/info.
	lazyCuts        atomic.Int64
	streamTuples    atomic.Int64
	streamRetrieved atomic.Int64
	// panics counts handler panics swallowed by the recovery middleware —
	// each one answered 500 instead of killing the process (DESIGN.md §11).
	panics atomic.Int64
}

// recordStreamStats folds one query's stream counters into the /v1/info
// aggregates.
func (s *Server) recordStreamStats(stats *core.Stats) {
	if stats.StreamCut {
		s.lazyCuts.Add(1)
	}
	s.streamTuples.Add(int64(stats.StreamTuples))
	s.streamRetrieved.Add(int64(stats.StreamRetrieved))
}

// New builds a single-collection server around a segment manager (see
// NewManager in the segment package for constructing one from a seed
// collection and source builder) — it wraps the manager in an in-memory
// registry as the unlimited default collection, so every pre-multi-tenant
// caller keeps working unchanged. The manager's options supply the default
// k and α; a request's own k is an argument of its search.
func New(mgr *segment.Manager, cfg Config) *Server {
	return NewRegistry(collection.Wrap(mgr), cfg)
}

// NewRegistry builds a server over a collection registry. The HTTP API
// guarantees exact scores, so the registry's collections must be built
// with core.Options.ExactScores — NewRegistry panics otherwise (a
// construction-time misconfiguration, not a runtime condition).
func NewRegistry(reg *collection.Registry, cfg Config) *Server {
	def := reg.Default()
	if !def.Manager().Options().ExactScores {
		panic("server: segment manager must be built with core.Options.ExactScores — /v1/search promises exact scores")
	}
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		reg:   reg,
		def:   def,
		mgr:   def.Manager(),
		mux:   http.NewServeMux(),
		pool:  newWorkerPool(cfg.SearchWorkers, cfg.MaxQueueDepth),
		start: time.Now(),
	}
	// Load-aware maintenance pausing (DESIGN.md §15): while queries are
	// queueing and the pool's recent p99 is past the shed bound, defer
	// non-urgent background work; the scheduler's urgency override still
	// drains tenants whose writers are degrading. Requires ShedLatencyP99 —
	// without a latency target there is no "blown p99" to defer for.
	if sc := reg.Scheduler(); sc != nil && cfg.ShedLatencyP99 > 0 {
		pool, bound := s.pool, cfg.ShedLatencyP99
		sc.SetLoadProbe(func() bool {
			if pool.queued.Load() == 0 {
				return false // stale ring samples must not pause an idle server
			}
			_, _, p99 := pool.percentiles()
			return p99 > bound
		})
	}
	s.mux.HandleFunc("GET /v1/info", s.handleInfo)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /v1/collections", s.handleListCollections)
	s.mux.HandleFunc("POST /v1/collections", s.handleCreateCollection)
	s.mux.HandleFunc("GET /v1/collections/{collection}", s.handleGetCollection)
	s.mux.HandleFunc("DELETE /v1/collections/{collection}", s.handleDropCollection)
	// Every per-collection route is registered twice from the one table:
	// scoped to a named collection, and un-scoped for the default one.
	for _, rt := range s.collectionRoutes() {
		s.mux.HandleFunc(rt.method+" /v1"+rt.path, func(w http.ResponseWriter, r *http.Request) {
			rt.serve(w, r, s.def)
		})
		s.mux.HandleFunc(rt.method+" /v1/collections/{collection}"+rt.path, func(w http.ResponseWriter, r *http.Request) {
			if col, ok := s.resolveCollection(w, r); ok {
				rt.serve(w, r, col)
			}
		})
	}
	return s
}

// collectionRoute is one endpoint that acts on a single collection.
type collectionRoute struct {
	method, path string
	serve        func(http.ResponseWriter, *http.Request, *collection.Collection)
}

// collectionRoutes is the table of per-collection endpoints; path is what
// follows /v1 (default collection) or /v1/collections/{collection}.
func (s *Server) collectionRoutes() []collectionRoute {
	return []collectionRoute{
		{"POST", "/search", s.serveSearch},
		{"POST", "/search/batch", s.serveSearchBatch},
		{"POST", "/overlap", s.serveOverlap},
		{"POST", "/sets", s.serveInsert},
		{"GET", "/sets/{name}", s.serveGetSet},
		{"DELETE", "/sets/{name}", s.serveDelete},
		{"POST", "/scrub", s.serveScrub},
		{"POST", "/repair", s.serveRepair},
	}
}

// Registry returns the server's collection registry.
func (s *Server) Registry() *collection.Registry { return s.reg }

// ServeHTTP implements http.Handler, wrapping every request in panic
// recovery: one query tripping a bug answers 500 (and bumps the panic
// counter in /v1/info) instead of killing the process and every other
// in-flight query with it. http.ErrAbortHandler re-panics — it is the
// sanctioned way to abort a response, not a bug.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sw := &statusRecorder{ResponseWriter: w}
	defer func() {
		rec := recover()
		if rec == nil {
			return
		}
		if rec == http.ErrAbortHandler {
			panic(rec)
		}
		s.panics.Add(1)
		if !sw.wrote {
			httpError(sw, http.StatusInternalServerError, fmt.Sprintf("internal error: %v", rec))
		}
	}()
	s.mux.ServeHTTP(sw, r)
}

// statusRecorder tracks whether the handler already started the response,
// so panic recovery knows if a 500 can still be written.
type statusRecorder struct {
	http.ResponseWriter
	wrote bool
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.wrote = true
	sr.ResponseWriter.WriteHeader(code)
}

func (sr *statusRecorder) Write(p []byte) (int, error) {
	sr.wrote = true
	return sr.ResponseWriter.Write(p)
}

// retryAfterSecs derives a Retry-After hint from the backlog: queue depth
// over pool size, scaled by the recent median latency, clamped to [1, 30]
// seconds. The floor matters: before the first query completes the p50
// sample window is empty, and an unclamped computation would emit
// Retry-After: 0 — an instruction to hammer the overloaded server
// immediately. An empty window substitutes a nominal median instead.
func retryAfterSecs(queued, workers int64, p50 time.Duration) int64 {
	if p50 <= 0 {
		p50 = 50 * time.Millisecond
	}
	if workers <= 0 {
		workers = 1
	}
	backlog := (queued/workers + 1) * int64(p50)
	secs := int64(time.Duration(backlog).Seconds() + 1)
	if secs < 1 {
		secs = 1
	}
	if secs > 30 {
		secs = 30
	}
	return secs
}

// shed answers a search the admission control refused: 429 with a
// Retry-After derived from the current backlog, so well-behaved clients
// back off proportionally to the overload instead of hammering a fixed
// beat.
func (s *Server) shed(w http.ResponseWriter) {
	p50, _, _ := s.pool.percentiles()
	secs := retryAfterSecs(s.pool.queued.Load(), int64(s.pool.size()), p50)
	w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
	httpError(w, http.StatusTooManyRequests,
		fmt.Sprintf("overloaded: %d queries queued on %d workers", s.pool.queued.Load(), s.pool.size()))
}

// admitGlobal runs the pool-wide admission checks for one request from
// col: the tenant's fair-queue bound, then (when configured) the
// latency-percentile bound — if queries are already queueing and the
// recent p99 exceeds Config.ShedLatencyP99, new arrivals are shed before
// they deepen the tail. Writes the 429 itself on refusal.
func (s *Server) admitGlobal(w http.ResponseWriter, col *collection.Collection) bool {
	if !s.pool.admit(col.Name(), col.Weight()) {
		s.shed(w)
		return false
	}
	if s.cfg.ShedLatencyP99 > 0 && s.pool.queued.Load() > 0 {
		if _, _, p99 := s.pool.percentiles(); p99 > s.cfg.ShedLatencyP99 {
			s.pool.sheds.Add(1)
			s.shed(w)
			return false
		}
	}
	return true
}

// SearchRequest is the body of POST /v1/search.
type SearchRequest struct {
	Query []string `json:"query"`
	// K overrides the collection's default when in [1, MaxK].
	K int `json:"k,omitempty"`
}

// SearchResult is one entry of a search response.
type SearchResult struct {
	SetID    int     `json:"set_id"`
	SetName  string  `json:"set_name"`
	Score    float64 `json:"score"`
	Verified bool    `json:"verified"`
}

// SearchResponse is the body of a successful search.
type SearchResponse struct {
	Results []SearchResult `json:"results"`
	Stats   SearchStats    `json:"stats"`
}

// SearchStats is the wire form of the engine statistics.
type SearchStats struct {
	Candidates   int `json:"candidates"`
	IUBPruned    int `json:"iub_pruned"`
	NoEM         int `json:"no_em"`
	EMEarly      int `json:"em_early"`
	EMFull       int `json:"em_full"`
	StreamTuples int `json:"stream_tuples"`
	// StreamRetrieved is the α-neighbor count the similarity index
	// actually materialized; StreamCut/StreamCutLevel report whether (and
	// at what similarity level) the lazy pipeline stopped the token stream
	// early — the per-query observability of DESIGN.md §10.
	StreamRetrieved int     `json:"stream_retrieved"`
	StreamCut       bool    `json:"stream_cut"`
	StreamCutLevel  float64 `json:"stream_cut_level,omitempty"`
	Segments        int     `json:"segments"`
	RefineUS        int64   `json:"refine_us"`
	PostprocUS      int64   `json:"postproc_us"`
	MemoryBytes     int64   `json:"memory_bytes"`
}

// validateK reports whether the request's k is acceptable: 0, which asks
// for the collection's default, or a value up to the cap (the error is
// already written if not).
func (s *Server) validateK(w http.ResponseWriter, k int) bool {
	if k < 0 || k > s.cfg.MaxK {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("k=%d outside [1,%d]", k, s.cfg.MaxK))
		return false
	}
	return true
}

// validateQuery checks one query's shape (the error is already written when
// it returns false).
func (s *Server) validateQuery(w http.ResponseWriter, query []string, label string) bool {
	if len(query) == 0 {
		httpError(w, http.StatusBadRequest, label+" must not be empty")
		return false
	}
	if len(query) > s.cfg.MaxQueryElements {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("%s has %d elements, limit %d", label, len(query), s.cfg.MaxQueryElements))
		return false
	}
	return true
}

// queryContext derives one query's context: the request context (client
// hang-ups cancel the search) plus the per-query timeout. The deadline is
// taken before the worker-pool acquire so it covers queue wait too — under
// overload the queue is exactly where the time goes, and a queued request
// must still answer 504 rather than wait unboundedly.
func (s *Server) queryContext(parent context.Context) (context.Context, context.CancelFunc) {
	if s.cfg.QueryTimeout <= 0 {
		return context.WithCancel(parent)
	}
	return context.WithTimeout(parent, s.cfg.QueryTimeout)
}

// searchFailed writes the response for a failed search on col: 504 when the
// per-query timeout expired, 404 when col was dropped while the query was
// queued, otherwise the client is gone — 499 in the nginx tradition, for
// any middleware that still logs the status.
func (s *Server) searchFailed(w http.ResponseWriter, col *collection.Collection, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.pool.timeouts.Add(1)
		httpError(w, http.StatusGatewayTimeout, fmt.Sprintf("query exceeded the %v per-query timeout", s.cfg.QueryTimeout))
	case errors.Is(err, errTenantRemoved):
		collectionNotFound(w, col.Name())
	default:
		w.WriteHeader(499)
	}
}

// buildSearchResponse converts engine results and stats to the wire form.
func buildSearchResponse(results []segment.Result, stats *core.Stats) SearchResponse {
	resp := SearchResponse{
		Results: make([]SearchResult, len(results)),
		Stats: SearchStats{
			Candidates:      stats.Candidates,
			IUBPruned:       stats.IUBPruned,
			NoEM:            stats.NoEM,
			EMEarly:         stats.EMEarly,
			EMFull:          stats.EMFull,
			StreamTuples:    stats.StreamTuples,
			StreamRetrieved: stats.StreamRetrieved,
			StreamCut:       stats.StreamCut,
			StreamCutLevel:  stats.StreamCutLevel,
			Segments:        stats.Segments,
			RefineUS:        stats.RefineTime.Microseconds(),
			PostprocUS:      stats.PostprocTime.Microseconds(),
			MemoryBytes:     stats.TotalBytes(),
		},
	}
	for i, res := range results {
		resp.Results[i] = SearchResult{
			SetID:    int(res.ID),
			SetName:  res.Name,
			Score:    res.Score,
			Verified: res.Verified,
		}
	}
	return resp
}

func (s *Server) serveSearch(w http.ResponseWriter, r *http.Request, col *collection.Collection) {
	var req SearchRequest
	if err := decodeJSON(w, r, &req); err != nil {
		return
	}
	if !s.validateQuery(w, req.Query, "query") {
		return
	}
	if !s.validateK(w, req.K) {
		return
	}

	// Admission control first: a full queue (or a blown latency target)
	// sheds the query now (429 + Retry-After) rather than queueing it into
	// a timeout, and a tenant over its rate limit or in-flight cap is
	// refused before it can touch the shared pool.
	if !s.admitGlobal(w, col) {
		return
	}
	if !s.admitTenant(w, col, 1) {
		return
	}
	defer col.ReleaseSearch(1)
	// One pool slot per query, granted in weighted-fair order across
	// tenants: concurrent requests beyond the pool size queue in their
	// tenant's own queue instead of oversubscribing the CPU. The per-query
	// deadline spans the queue wait and the search.
	qctx, cancel := s.queryContext(r.Context())
	defer cancel()
	if err := s.pool.acquire(qctx, col.Name(), col.Weight()); err != nil {
		s.searchFailed(w, col, err)
		return
	}
	start := time.Now()
	results, stats, err := col.Manager().Search(qctx, req.Query, req.K)
	s.pool.release(col.Name(), time.Since(start))
	if err != nil {
		s.searchFailed(w, col, err)
		return
	}
	s.recordStreamStats(&stats)
	writeJSON(w, http.StatusOK, buildSearchResponse(results, &stats))
}

// BatchSearchRequest is the body of POST /v1/search/batch: a slice of
// queries answered against one consistent collection snapshot.
type BatchSearchRequest struct {
	Queries [][]string `json:"queries"`
	// K overrides the collection's default for every query in the batch.
	K int `json:"k,omitempty"`
}

// BatchSearchEntry is one query's outcome inside a batch: results and
// stats on success, or a non-empty Error (e.g. the per-query timeout
// expired for this entry) with the rest of the batch unaffected.
type BatchSearchEntry struct {
	SearchResponse
	Error string `json:"error,omitempty"`
}

// BatchSearchResponse carries one entry per batch query, in request order.
type BatchSearchResponse struct {
	Results []BatchSearchEntry `json:"results"`
}

func (s *Server) serveSearchBatch(w http.ResponseWriter, r *http.Request, col *collection.Collection) {
	var req BatchSearchRequest
	if err := decodeJSON(w, r, &req); err != nil {
		return
	}
	if len(req.Queries) == 0 {
		httpError(w, http.StatusBadRequest, "queries must not be empty")
		return
	}
	if len(req.Queries) > s.cfg.MaxBatchQueries {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("batch has %d queries, limit %d", len(req.Queries), s.cfg.MaxBatchQueries))
		return
	}
	for i, q := range req.Queries {
		if !s.validateQuery(w, q, fmt.Sprintf("queries[%d]", i)) {
			return
		}
	}
	if !s.validateK(w, req.K) {
		return
	}
	// Admission control sheds the whole batch up front — admitting a batch
	// the queue cannot absorb would just spread the overload across its
	// entries as timeouts. The tenant checks charge the batch all its
	// entries at once for the same reason.
	if !s.admitGlobal(w, col) {
		return
	}
	if !s.admitTenant(w, col, len(req.Queries)) {
		return
	}
	defer col.ReleaseSearch(len(req.Queries))

	// One view for the whole batch: every query sees the same collection
	// state, and per-query results are byte-identical to single searches
	// against that state. Queries fan out through the shared worker pool —
	// a batch soaks up idle slots but cannot starve single queries beyond
	// its fair share of the queue. The per-query timeout applies to each
	// entry individually: an expired entry reports its error in place and
	// the rest of the batch completes; only the client hanging up abandons
	// the whole batch.
	v := col.Manager().AcquireView(req.K)
	resps := make([]BatchSearchEntry, len(req.Queries))
	var dropped atomic.Bool // col was dropped with entries of this batch queued
	var wg sync.WaitGroup
	for i := range req.Queries {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// The entry's deadline spans its queue wait and its search.
			qctx, qcancel := s.queryContext(r.Context())
			defer qcancel()
			if err := s.pool.acquire(qctx, col.Name(), col.Weight()); err != nil {
				switch {
				case errors.Is(err, context.DeadlineExceeded):
					s.pool.timeouts.Add(1)
					resps[i] = BatchSearchEntry{Error: fmt.Sprintf("query exceeded the %v per-query timeout waiting for a worker", s.cfg.QueryTimeout)}
				case errors.Is(err, errTenantRemoved):
					dropped.Store(true)
				}
				return // otherwise the client is gone; the response will never be read
			}
			start := time.Now()
			results, stats, err := v.Search(qctx, req.Queries[i])
			s.pool.release(col.Name(), time.Since(start))
			switch {
			case err == nil:
				s.recordStreamStats(&stats)
				resps[i] = BatchSearchEntry{SearchResponse: buildSearchResponse(results, &stats)}
			case errors.Is(err, context.DeadlineExceeded):
				s.pool.timeouts.Add(1)
				resps[i] = BatchSearchEntry{Error: fmt.Sprintf("query exceeded the %v per-query timeout", s.cfg.QueryTimeout)}
			}
		}(i)
	}
	wg.Wait()
	if r.Context().Err() != nil {
		w.WriteHeader(499)
		return
	}
	if dropped.Load() {
		collectionNotFound(w, col.Name())
		return
	}
	s.pool.batches.Add(1)
	writeJSON(w, http.StatusOK, BatchSearchResponse{Results: resps})
}

// InsertRequest is the body of POST /v1/sets.
type InsertRequest struct {
	// Name is the set's external key; inserting an existing name replaces
	// the old set. Empty means an auto-assigned "set-<id>" name.
	Name     string   `json:"name,omitempty"`
	Elements []string `json:"elements"`
}

// InsertResponse reports the stored set.
type InsertResponse struct {
	SetID int `json:"set_id"`
	Sets  int `json:"sets"`
}

func (s *Server) serveInsert(w http.ResponseWriter, r *http.Request, col *collection.Collection) {
	var req InsertRequest
	if err := decodeJSON(w, r, &req); err != nil {
		return
	}
	if len(req.Elements) == 0 {
		httpError(w, http.StatusBadRequest, "elements must not be empty")
		return
	}
	if len(req.Elements) > s.cfg.MaxQueryElements {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("set has %d elements, limit %d", len(req.Elements), s.cfg.MaxQueryElements))
		return
	}
	id, err := col.Insert(req.Name, req.Elements)
	var durErr *segment.DurabilityError
	if err != nil && !errors.As(err, &durErr) {
		// An insert over the collection's sets/bytes quota answers 413 with
		// the structured error body; nothing was applied.
		if writeAdmissionError(w, err) {
			return
		}
		if errors.Is(err, segment.ErrImmutable) {
			httpError(w, http.StatusConflict, err.Error())
			return
		}
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	// A DurabilityError means the insert IS applied and WAL-logged (only a
	// follow-on fsync/checkpoint failed), so the client gets its handle.
	writeJSON(w, http.StatusCreated, InsertResponse{SetID: int(id), Sets: col.Manager().Len()})
}

// SetResponse is the body of GET /v1/sets/{name}: one live set.
type SetResponse struct {
	SetID    int64    `json:"set_id"`
	Name     string   `json:"name"`
	Elements []string `json:"elements"`
}

func (s *Server) serveGetSet(w http.ResponseWriter, r *http.Request, col *collection.Collection) {
	name := r.PathValue("name")
	if name == "" {
		httpError(w, http.StatusBadRequest, "set name missing")
		return
	}
	rec, ok := col.Manager().SetByName(name)
	if !ok {
		// Tombstoned and never-inserted names answer alike: not live.
		httpError(w, http.StatusNotFound, fmt.Sprintf("no live set named %q", name))
		return
	}
	writeJSON(w, http.StatusOK, SetResponse{SetID: rec.ID, Name: rec.Name, Elements: rec.Elements})
}

// DeleteResponse reports a completed deletion.
type DeleteResponse struct {
	Deleted bool `json:"deleted"`
	Sets    int  `json:"sets"`
}

func (s *Server) serveDelete(w http.ResponseWriter, r *http.Request, col *collection.Collection) {
	name := r.PathValue("name")
	if name == "" {
		httpError(w, http.StatusBadRequest, "set name missing")
		return
	}
	deleted, err := col.Delete(name)
	var durErr *segment.DurabilityError
	if err != nil && !errors.As(err, &durErr) {
		// The delete was not applied (WAL append failed or engine closed).
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if !deleted {
		httpError(w, http.StatusNotFound, fmt.Sprintf("no live set named %q", name))
		return
	}
	writeJSON(w, http.StatusOK, DeleteResponse{Deleted: true, Sets: col.Manager().Len()})
}

// OverlapRequest is the body of POST /v1/overlap.
type OverlapRequest struct {
	A []string `json:"a"`
	B []string `json:"b"`
}

// OverlapResponse reports the pairwise measures of the two sets.
type OverlapResponse struct {
	Semantic float64 `json:"semantic"`
	Vanilla  int     `json:"vanilla"`
	Greedy   float64 `json:"greedy"`
}

func (s *Server) serveOverlap(w http.ResponseWriter, r *http.Request, col *collection.Collection) {
	var req OverlapRequest
	if err := decodeJSON(w, r, &req); err != nil {
		return
	}
	if len(req.A) == 0 || len(req.B) == 0 {
		httpError(w, http.StatusBadRequest, "both sets must be non-empty")
		return
	}
	if len(req.A) > s.cfg.MaxQueryElements || len(req.B) > s.cfg.MaxQueryElements {
		httpError(w, http.StatusBadRequest, "set too large")
		return
	}
	sem, greedy, vanilla := pairwise(req.A, req.B, col.Manager().Source(), col.Manager().Options().Alpha)
	writeJSON(w, http.StatusOK, OverlapResponse{Semantic: sem, Vanilla: vanilla, Greedy: greedy})
}

// pairwise computes the three measures from the neighbor source's edges.
// Memory follows the number of α-edges, never |A|·|B|: both set sizes are
// bounded only by MaxQueryElements, and a dense matrix at that limit would be
// tens of gigabytes.
func pairwise(a, b []string, src index.NeighborSource, alpha float64) (sem, greedy float64, vanilla int) {
	a, b = sets.Dedup(a), sets.Dedup(b)
	inB := make(map[string]int, len(b))
	for j, y := range b {
		inB[y] = j
	}
	var edges []matching.Edge
	for i, x := range a {
		if j, ok := inB[x]; ok {
			vanilla++
			edges = append(edges, matching.Edge{Q: i, C: j, W: 1})
		}
		for _, n := range src.Neighbors(x, alpha) {
			if j, ok := inB[n.Token]; ok && n.Token != x {
				edges = append(edges, matching.Edge{Q: i, C: j, W: n.Sim})
			}
		}
	}
	if len(edges) == 0 {
		return 0, 0, 0
	}
	var solver matching.SparseSolver
	return solver.Solve(len(a), len(b), edges, nil).Score, matching.Greedy(edges).Score, vanilla
}

// InfoResponse is the body of GET /v1/info.
type InfoResponse struct {
	Sets       int     `json:"sets"`
	Vocabulary int     `json:"vocabulary"`
	K          int     `json:"default_k"`
	Alpha      float64 `json:"alpha"`
	Partitions int     `json:"partitions"`
	// Segments/MemtableSets/Tombstones describe the segment layout: sealed
	// immutable segments, live sets buffered in the memtable, and deleted
	// rows of sealed segments awaiting compaction (rows that died in the
	// memtable are in the collection's debt.memtable_tombstones).
	Segments     int     `json:"segments"`
	MemtableSets int     `json:"memtable_sets"`
	Tombstones   int     `json:"tombstones"`
	Mutable      bool    `json:"mutable"`
	UptimeSec    float64 `json:"uptime_sec"`
	// Throughput reports the search worker pool: pool size, current
	// occupancy and queue depth, totals, per-query timeout hits, and
	// latency percentiles over the most recent queries.
	Throughput ThroughputInfo `json:"throughput"`
	// SimCache is always zero: retrieval has no pair cache (DESIGN.md §9).
	// The section stays until the repository benchmark stops reading it.
	SimCache SimCacheInfo `json:"sim_cache"`
	// LazyStream aggregates the lazy token stream's cut-off savings across
	// all served queries (DESIGN.md §10).
	LazyStream LazyStreamInfo `json:"lazy_stream"`
	// Resilience reports degraded mode, quarantined files, and the shed/
	// panic counters (DESIGN.md §11).
	Resilience ResilienceInfo `json:"resilience"`
	// Collections reports every collection served by this process (the
	// default first) with its quota and admission counters (DESIGN.md §14).
	// The top-level fields above describe the default collection, as they
	// always have.
	Collections []CollectionInfo `json:"collections"`
	// Scheduler reports the coordinated maintenance scheduler (DESIGN.md
	// §15): worker occupancy, pause state, retry totals, and per-tenant
	// backlog scores. Absent when coordinated maintenance is disabled.
	Scheduler *sched.Stats `json:"scheduler,omitempty"`
}

// ResilienceInfo is the failure-handling section of /v1/info.
type ResilienceInfo struct {
	// Degraded mirrors segment.Health: recovery quarantined damaged files
	// and the collection serves the survivors until a repair.
	Degraded bool `json:"degraded"`
	// Quarantined lists the files recovery set aside (with reasons);
	// QuarantinedTotal is its length, for cheap assertions and dashboards.
	Quarantined      []segment.QuarantinedFile `json:"quarantined,omitempty"`
	QuarantinedTotal int                       `json:"quarantined_total"`
	// ShedTotal counts queries refused at admission (429); PanicsTotal
	// counts handler panics converted to 500s.
	ShedTotal   int64 `json:"shed_total"`
	PanicsTotal int64 `json:"panics_total"`
}

// LazyStreamInfo is the lazy-stream section of /v1/info: how many queries
// cut the token stream before exhaustion and the cumulative consumption
// vs. retrieval tuple counts. CutRate is CutQueries over the pool's total
// query count; TuplesTotal < RetrievedTotal means the cut-off is saving
// consumption work.
type LazyStreamInfo struct {
	CutQueries     int64   `json:"cut_queries"`
	CutRate        float64 `json:"cut_rate"`
	TuplesTotal    int64   `json:"stream_tuples_total"`
	RetrievedTotal int64   `json:"stream_retrieved_total"`
}

// ThroughputInfo is the worker-pool section of /v1/info.
type ThroughputInfo struct {
	SearchWorkers  int   `json:"search_workers"`
	InFlight       int64 `json:"in_flight"`
	QueueDepth     int64 `json:"queue_depth"`
	QueriesTotal   int64 `json:"queries_total"`
	BatchesTotal   int64 `json:"batches_total"`
	TimeoutsTotal  int64 `json:"timeouts_total"`
	QueueWaitUSSum int64 `json:"queue_wait_us_sum"`
	LatencyP50US   int64 `json:"latency_p50_us"`
	LatencyP95US   int64 `json:"latency_p95_us"`
	LatencyP99US   int64 `json:"latency_p99_us"`
}

// SimCacheInfo is the similarity-cache section of /v1/info.
type SimCacheInfo struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
}

func (s *Server) handleInfo(w http.ResponseWriter, r *http.Request) {
	sealed, memSets, tombstones := s.mgr.Segments()
	opts := s.mgr.Options()
	p50, p95, p99 := s.pool.percentiles()
	var schedStats *sched.Stats
	if sc := s.reg.Scheduler(); sc != nil {
		st := sc.Stats()
		schedStats = &st
	}
	writeJSON(w, http.StatusOK, InfoResponse{
		Sets:         s.mgr.Len(),
		Vocabulary:   s.mgr.VocabSize(),
		K:            opts.K,
		Alpha:        opts.Alpha,
		Partitions:   opts.Partitions,
		Segments:     sealed,
		MemtableSets: memSets,
		Tombstones:   tombstones,
		Mutable:      s.mgr.Mutable(),
		UptimeSec:    time.Since(s.start).Seconds(),
		Throughput: ThroughputInfo{
			SearchWorkers:  s.pool.size(),
			InFlight:       s.pool.active.Load(),
			QueueDepth:     s.pool.queued.Load(),
			QueriesTotal:   s.pool.queries.Load(),
			BatchesTotal:   s.pool.batches.Load(),
			TimeoutsTotal:  s.pool.timeouts.Load(),
			QueueWaitUSSum: s.pool.waitNS.Load() / 1e3,
			LatencyP50US:   p50.Microseconds(),
			LatencyP95US:   p95.Microseconds(),
			LatencyP99US:   p99.Microseconds(),
		},
		LazyStream:  s.lazyStreamInfo(),
		Resilience:  s.resilienceInfo(),
		Collections: s.collectionsInfo(),
		Scheduler:   schedStats,
	})
}

func (s *Server) collectionsInfo() []CollectionInfo {
	cols := s.reg.List()
	out := make([]CollectionInfo, len(cols))
	for i, c := range cols {
		out[i] = s.collectionInfoOf(c)
	}
	return out
}

func (s *Server) resilienceInfo() ResilienceInfo {
	h := s.mgr.Health()
	return ResilienceInfo{
		Degraded:         h.Degraded,
		Quarantined:      h.Quarantined,
		QuarantinedTotal: len(h.Quarantined),
		ShedTotal:        s.pool.sheds.Load(),
		PanicsTotal:      s.panics.Load(),
	}
}

// ScrubResponse is the body of POST /v1/scrub and /v1/repair: the
// verification pass plus the (post-operation) degraded state.
type ScrubResponse struct {
	Checked  int      `json:"checked"`
	Corrupt  []string `json:"corrupt,omitempty"`
	Degraded bool     `json:"degraded"`
}

func (s *Server) serveScrub(w http.ResponseWriter, r *http.Request, col *collection.Collection) {
	rep := col.Manager().Scrub()
	writeJSON(w, http.StatusOK, ScrubResponse{
		Checked: rep.Checked, Corrupt: rep.Corrupt, Degraded: col.Manager().Health().Degraded,
	})
}

func (s *Server) serveRepair(w http.ResponseWriter, r *http.Request, col *collection.Collection) {
	rep, err := col.Manager().Repair()
	if err != nil {
		httpError(w, http.StatusInternalServerError, "repair failed: "+err.Error())
		return
	}
	writeJSON(w, http.StatusOK, ScrubResponse{
		Checked: rep.Checked, Corrupt: rep.Corrupt, Degraded: col.Manager().Health().Degraded,
	})
}

func (s *Server) lazyStreamInfo() LazyStreamInfo {
	info := LazyStreamInfo{
		CutQueries:     s.lazyCuts.Load(),
		TuplesTotal:    s.streamTuples.Load(),
		RetrievedTotal: s.streamRetrieved.Load(),
	}
	if q := s.pool.queries.Load(); q > 0 {
		info.CutRate = float64(info.CutQueries) / float64(q)
	}
	return info
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	w.Write([]byte("ok\n"))
}

// ReadyResponse is the body of GET /readyz.
type ReadyResponse struct {
	Ready bool `json:"ready"`
	// Degraded is informational: a degraded server IS ready (it answers
	// from the surviving segments); orchestrators that should avoid it can
	// read the flag here or in /v1/info.
	Degraded bool `json:"degraded"`
}

// handleReadyz answers readiness. A Server only exists once recovery and
// WAL replay finished (segment.Open returned), so a reachable real server
// is always ready — the "not ready yet" half of the protocol is served by
// BootHandler while recovery still runs (see Swapper).
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	// Degraded if ANY collection is degraded — a single-collection process
	// reports exactly what it always did, a multi-tenant one surfaces the
	// worst tenant (per-collection detail is in /v1/info).
	degraded := false
	for _, c := range s.reg.List() {
		if c.Manager().Health().Degraded {
			degraded = true
			break
		}
	}
	writeJSON(w, http.StatusOK, ReadyResponse{Ready: true, Degraded: degraded})
}

// errorBody is the JSON error envelope. The structured fields are only set
// by the multi-tenant admission errors (quota, rate limit, in-flight cap,
// unknown collection); with all of them empty the envelope marshals to the
// pre-multi-tenant {"error": "..."} byte-identically, which is what keeps
// the legacy routes' error responses unchanged.
type errorBody struct {
	Error string `json:"error"`
	// Code is a stable machine-readable discriminator: quota_exceeded,
	// rate_limited, tenant_busy, collection_not_found, collection_exists.
	Code       string `json:"code,omitempty"`
	Collection string `json:"collection,omitempty"`
	// Resource ("sets" or "bytes"), Limit and Used detail a quota_exceeded
	// refusal.
	Resource string `json:"resource,omitempty"`
	Limit    int64  `json:"limit,omitempty"`
	Used     int64  `json:"used,omitempty"`
}

func decodeJSON(w http.ResponseWriter, r *http.Request, dst any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		httpError(w, http.StatusBadRequest, "invalid request body: "+err.Error())
		return err
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(body)
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorBody{Error: msg})
}
