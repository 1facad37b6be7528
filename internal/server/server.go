// Package server exposes a Koios engine over HTTP with a JSON API — the
// deployment shape a downstream user runs: load a dataset once, keep the
// indexes warm, and answer top-k semantic overlap queries from many clients
// concurrently while the collection keeps changing (the segmented engine
// serves searches from immutable snapshots, so reads never block on
// writes).
//
// Endpoints:
//
//	POST   /v1/search        {"query": [...], "k": 5}          → top-k results (score desc, then name) + stats
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
//
// The hot bodies go through the package's own wire codec (wire.go, DESIGN.md
// §9), on the server and in Client alike: SearchRequest, SearchResponse,
// InsertRequest, InsertResponse, DeleteResponse and the error envelope
// (encoded only). Their encoding is encoding/json's byte for byte, and a
// body their scanner does not take is decoded by encoding/json. Every other
// body, the batch search's included, is encoding/json's.
package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/matching"
	"repro/internal/sched"
	"repro/internal/segment"
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
	// Stream aggregates across all served queries: the cumulative tuples
	// consumed and α-neighbors retrieved, /v1/info's throughput totals.
	streamTuples    atomic.Int64
	streamRetrieved atomic.Int64
	// panics counts handler panics swallowed by the recovery middleware —
	// each one answered 500 instead of killing the process (DESIGN.md §11).
	panics atomic.Int64
	// stages sums search requests' time by stage, /v1/info's throughput
	// *_us_sum.
	stages stageSums
}

// stageSums is the time search requests (single and batch) spent in each
// stage: reading, decoding and validating the body; the admission gates
// and, per query, its deadline context; per query, the wait for a worker
// slot (pool.acquire alone) and the search itself; encoding and writing the
// answer.
type stageSums struct {
	decode, admit, wait, execute, encode atomic.Int64 // ns
}

// stageClock times one request's consecutive stages with one clock read
// at each boundary between them.
type stageClock time.Time

func startStages() stageClock { return stageClock(time.Now()) }

// lap ends the current stage, adding its time to sum and returning it; the
// next stage starts now.
func (c *stageClock) lap(sum *atomic.Int64) time.Duration {
	now := time.Now()
	d := now.Sub(time.Time(*c))
	*c = stageClock(now)
	sum.Add(int64(d))
	return d
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
	s.pool.shedP99 = cfg.ShedLatencyP99
	// Load-aware maintenance pausing (DESIGN.md §15): while the latency gate
	// would shed, defer non-urgent background work; the scheduler's urgency
	// override still drains tenants whose writers are degrading. Requires
	// ShedLatencyP99 — without a latency target there is no "blown p99" to
	// defer for.
	if cfg.ShedLatencyP99 > 0 {
		reg.Scheduler().SetLoadProbe(s.pool.latencyBlown)
	}
	s.mux.HandleFunc("GET /v1/info", s.handleInfo)
	s.mux.HandleFunc("GET /healthz", handleHealthz)
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

// retryAfterSecs derives an overload refusal's Retry-After from the
// backlog: queue depth over pool size, scaled by the recent median latency,
// clamped to 30 seconds and rounded by retrySecs. Before the first query
// completes the p50 sample window is empty; a nominal median stands in.
func retryAfterSecs(queued, workers int64, p50 time.Duration) int64 {
	if p50 <= 0 {
		p50 = 50 * time.Millisecond
	}
	if workers <= 0 {
		workers = 1
	}
	return retrySecs(min(time.Duration(queued/workers+1)*p50, 30*time.Second))
}

// retrySecs is the one Retry-After rounding: d up to whole seconds, at
// least 1 — a 0 would tell clients to retry at once, into the very
// condition that refused them.
func retrySecs(d time.Duration) int64 {
	return max(1, int64((d+time.Second-1)/time.Second))
}

// admit is the gate chain a search request runs before it may queue, in
// order: its tenant's queue bound and the pool's latency bound
// (workerPool.admit), then the collection's rate limit and in-flight cap
// (Collection.AdmitSearch), for all n entries of a batch at once. Each gate
// counts its own refusals; admit writes nothing and returns the
// *collection.Refusal for writeError. nil must be paired with
// col.ReleaseSearch(n).
func (s *Server) admit(col *collection.Collection, n int) error {
	if !s.pool.admit(col.Name(), col.Weight()) {
		queued, workers := s.pool.queued.Load(), int64(s.pool.size())
		p50, _, _ := s.pool.percentiles()
		return &collection.Refusal{
			Code: collection.CodeOverloaded, Used: queued, Limit: workers,
			RetryAfter: time.Duration(retryAfterSecs(queued, workers, p50)) * time.Second,
		}
	}
	return col.AdmitSearch(n)
}

// execute runs one admitted query of col, a single search or a batch entry
// alike: a worker slot granted in col's fair-queue turn, the search, the
// slot's release with its latency, and the stream aggregates. clk laps the
// deadline context into admission, then the queue wait and the search. The deadline spans the queue wait and the
// search — under overload the queue is where the time goes — and a query
// past it is counted here and returned as a timeoutError.
func (s *Server) execute(ctx context.Context, col *collection.Collection, clk *stageClock, search func(context.Context) ([]segment.Result, core.Stats, error)) (SearchResponse, error) {
	qctx, cancel := s.queryContext(ctx)
	defer cancel()
	clk.lap(&s.stages.admit)
	err := s.pool.acquire(qctx, col.Name(), col.Weight())
	clk.lap(&s.stages.wait)
	if err == nil {
		var results []segment.Result
		var stats core.Stats
		results, stats, err = search(qctx)
		s.pool.release(col.Name(), clk.lap(&s.stages.execute))
		if err == nil {
			s.streamTuples.Add(int64(stats.StreamTuples))
			s.streamRetrieved.Add(int64(stats.StreamRetrieved))
			return buildSearchResponse(results, &stats), nil
		}
	}
	if errors.Is(err, context.DeadlineExceeded) {
		s.pool.timeouts.Add(1)
		err = timeoutError(s.cfg.QueryTimeout)
	}
	return SearchResponse{}, err
}

// timeoutError is a query that ran past Config.QueryTimeout.
type timeoutError time.Duration

func (e timeoutError) Error() string {
	return fmt.Sprintf("query exceeded the %v per-query timeout", time.Duration(e))
}

func (timeoutError) Unwrap() error { return context.DeadlineExceeded }

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

// SearchResponse is the body of a successful search. Results are the exact
// top-k, best first: by score descending, then set name ascending, the rule
// that also picks which of several sets tied at the k-th score are returned.
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
	// retrieved; StreamTuples adds an identity tuple per query element.
	// StreamCut is always false — refinement consumes the whole stream —
	// and stays for the clients that read it.
	StreamRetrieved int   `json:"stream_retrieved"`
	StreamCut       bool  `json:"stream_cut"`
	Segments        int   `json:"segments"`
	RefineUS        int64 `json:"refine_us"`
	PostprocUS      int64 `json:"postproc_us"`
	MemoryBytes     int64 `json:"memory_bytes"`
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

// validateQuery checks the shape of one request's element list — a query,
// an inserted set or a side of /v1/overlap: not empty and at most
// MaxQueryElements long (the error is already written when it returns
// false).
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
// hang-ups cancel the search) plus the per-query timeout.
func (s *Server) queryContext(parent context.Context) (context.Context, context.CancelFunc) {
	if s.cfg.QueryTimeout <= 0 {
		return context.WithCancel(parent)
	}
	return context.WithTimeout(parent, s.cfg.QueryTimeout)
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
	clk := startStages()
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
	clk.lap(&s.stages.decode)

	// Admission first: a full queue or a blown latency target sheds the
	// query now rather than queueing it into a timeout, and a tenant over
	// its rate limit or in-flight cap is refused before it can touch the
	// shared pool.
	err := s.admit(col, 1)
	clk.lap(&s.stages.admit)
	if err != nil {
		writeError(w, err)
		return
	}
	defer col.ReleaseSearch(1)
	resp, err := s.execute(r.Context(), col, &clk, func(ctx context.Context) ([]segment.Result, core.Stats, error) {
		return col.Manager().Search(ctx, req.Query, req.K)
	})
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
	clk.lap(&s.stages.encode)
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
	clk := startStages()
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
	clk.lap(&s.stages.decode)
	// The gates refuse the whole batch up front, charging the tenant all
	// its entries at once — admitting a batch the queue cannot absorb would
	// just spread the overload across its entries as timeouts.
	err := s.admit(col, len(req.Queries))
	clk.lap(&s.stages.admit)
	if err != nil {
		writeError(w, err)
		return
	}
	defer col.ReleaseSearch(len(req.Queries))

	// One view for the whole batch: every query sees the same collection
	// state, and per-query results are byte-identical to single searches
	// against that state. Queries fan out through the shared worker pool —
	// a batch soaks up idle slots but cannot starve single queries beyond
	// its fair share of the queue. The per-query timeout applies to each
	// entry individually: an expired entry reports its error in place and
	// the rest of the batch completes.
	v := col.Manager().AcquireView(req.K)
	resps := make([]BatchSearchEntry, len(req.Queries))
	errs := make([]error, len(req.Queries))
	var wg sync.WaitGroup
	for i := range req.Queries {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			entry := clk // each entry queues from the batch's admission
			resps[i].SearchResponse, errs[i] = s.execute(r.Context(), col, &entry, func(ctx context.Context) ([]segment.Result, core.Stats, error) {
				return v.Search(ctx, req.Queries[i])
			})
			if errs[i] != nil {
				resps[i].Error = errs[i].Error()
			}
		}(i)
	}
	wg.Wait()
	clk = startStages()
	for _, err := range errs {
		// Any failure but a timeout fails the batch whole: the client hung up
		// (499), or col was dropped with entries still queued (404).
		if err != nil && !errors.Is(err, context.DeadlineExceeded) {
			writeError(w, err)
			return
		}
	}
	s.pool.batches.Add(1)
	writeJSON(w, http.StatusOK, BatchSearchResponse{Results: resps})
	clk.lap(&s.stages.encode)
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
	if !s.validateQuery(w, req.Elements, "elements") {
		return
	}
	id, err := col.Insert(req.Name, req.Elements)
	var durErr *segment.DurabilityError
	if err != nil && !errors.As(err, &durErr) {
		writeError(w, err) // a refusal (quota, backlog) or a failure: nothing was applied
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
		writeError(w, err)
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
	if !s.validateQuery(w, req.A, "a") || !s.validateQuery(w, req.B, "b") {
		return
	}
	mgr := col.Manager()
	g := index.NewAlphaGraph(mgr.Source(), mgr.Options().Alpha, req.A, req.B)
	writeJSON(w, http.StatusOK, OverlapResponse{Semantic: g.Match().Score, Vanilla: g.Vanilla, Greedy: matching.Greedy(g.Edges).Score})
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
	// backlog scores.
	Scheduler *sched.Stats `json:"scheduler"`
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

// ThroughputInfo is the worker-pool section of /v1/info.
type ThroughputInfo struct {
	SearchWorkers int   `json:"search_workers"`
	InFlight      int64 `json:"in_flight"`
	QueueDepth    int64 `json:"queue_depth"`
	QueriesTotal  int64 `json:"queries_total"`
	BatchesTotal  int64 `json:"batches_total"`
	TimeoutsTotal int64 `json:"timeouts_total"`
	// The *_us_sum fields add up search requests' time by stage (single
	// and batch; decode and encode once per request, queue wait and execute
	// once per query): reading, decoding and validating the body, the
	// admission gates and each query's deadline context, the wait for a
	// worker slot, the search, and encoding and writing the answer.
	DecodeUSSum    int64 `json:"decode_us_sum"`
	AdmitUSSum     int64 `json:"admit_us_sum"`
	QueueWaitUSSum int64 `json:"queue_wait_us_sum"`
	ExecuteUSSum   int64 `json:"execute_us_sum"`
	EncodeUSSum    int64 `json:"encode_us_sum"`
	LatencyP50US   int64 `json:"latency_p50_us"`
	LatencyP95US   int64 `json:"latency_p95_us"`
	LatencyP99US   int64 `json:"latency_p99_us"`
	// StreamTuplesTotal and StreamRetrievedTotal sum every served query's
	// stream: the tuples refinement consumed and the α-neighbors the
	// similarity index retrieved.
	StreamTuplesTotal    int64 `json:"stream_tuples_total"`
	StreamRetrievedTotal int64 `json:"stream_retrieved_total"`
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
	schedStats := s.reg.Scheduler().Stats()
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
			DecodeUSSum:    s.stages.decode.Load() / 1e3,
			AdmitUSSum:     s.stages.admit.Load() / 1e3,
			QueueWaitUSSum: s.stages.wait.Load() / 1e3,
			ExecuteUSSum:   s.stages.execute.Load() / 1e3,
			EncodeUSSum:    s.stages.encode.Load() / 1e3,
			LatencyP50US:   p50.Microseconds(),
			LatencyP95US:   p95.Microseconds(),
			LatencyP99US:   p99.Microseconds(),

			StreamTuplesTotal:    s.streamTuples.Load(),
			StreamRetrievedTotal: s.streamRetrieved.Load(),
		},
		Resilience:  s.resilienceInfo(),
		Collections: s.collectionsInfo(),
		Scheduler:   &schedStats,
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

func handleHealthz(w http.ResponseWriter, r *http.Request) {
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
// for a refusal (and collection_exists); with all of them empty the
// envelope marshals to the pre-multi-tenant {"error": "..."}
// byte-identically, which is what keeps the legacy routes' error responses
// unchanged.
type errorBody struct {
	Error string `json:"error"`
	// Code is a stable machine-readable discriminator: a
	// collection.Refusal's code, or collection_exists.
	Code       string `json:"code,omitempty"`
	Collection string `json:"collection,omitempty"`
	// Resource ("sets" or "bytes"), Limit and Used detail a quota_exceeded
	// refusal.
	Resource string `json:"resource,omitempty"`
	Limit    int64  `json:"limit,omitempty"`
	Used     int64  `json:"used,omitempty"`
}

// decodeJSON reads a request body of at most maxBody bytes into a pooled
// buffer and decodes it into dst (decodeBody, strict), answering 400 when
// either fails.
func decodeJSON(w http.ResponseWriter, r *http.Request, dst any) error {
	buf := getBuf()
	defer putBuf(buf)
	b, err := readBody(http.MaxBytesReader(w, r.Body, maxBody), *buf, r.ContentLength)
	*buf = b
	if err == nil {
		err = decodeBody(b, dst, true)
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, "invalid request body: "+err.Error())
	}
	return err
}

// writeJSON encodes body into a pooled buffer — through the wire codec for
// a hot body — and sends it whole, with its Content-Length, in one Write.
// A body that does not encode answers 500 with the error envelope instead.
func writeJSON(w http.ResponseWriter, status int, body any) {
	buf := getBuf()
	defer putBuf(buf)
	b, err := appendBody(*buf, body)
	if err != nil {
		status = http.StatusInternalServerError
		b, _ = errorBody{Error: "encoding the response: " + err.Error()}.appendJSON((*buf)[:0])
	}
	b = append(b, '\n') // as json.Encoder ends a value
	*buf = b
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(status)
	w.Write(b)
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorBody{Error: msg})
}

// refusalStatus is the HTTP status of each refusal code.
var refusalStatus = map[string]int{
	collection.CodeQuotaExceeded:      http.StatusRequestEntityTooLarge,
	collection.CodeMaintenanceBacklog: http.StatusServiceUnavailable,
	collection.CodeRateLimited:        http.StatusTooManyRequests,
	collection.CodeTenantBusy:         http.StatusTooManyRequests,
	collection.CodeOverloaded:         http.StatusTooManyRequests,
	collection.CodeRecovering:         http.StatusServiceUnavailable,
	collection.CodeNotFound:           http.StatusNotFound,
}

// writeError is the one writer of a failed request's response. A
// *collection.Refusal answers its code's status with its Retry-After
// (rounded by retrySecs) and the structured body; past that, a query past
// its deadline answers 504, a client gone 499, an insert into a static
// index 409 and anything else 500. A batch entry's error text is the one
// this writes.
func writeError(w http.ResponseWriter, err error) {
	body := errorBody{Error: err.Error()}
	status := http.StatusInternalServerError
	var ref *collection.Refusal
	switch {
	case errors.As(err, &ref):
		status = refusalStatus[ref.Code]
		body.Code, body.Collection = ref.Code, ref.Collection
		if ref.Resource != "" {
			body.Resource, body.Limit, body.Used = ref.Resource, ref.Limit, ref.Used
		}
		if ref.RetryAfter > 0 {
			w.Header().Set("Retry-After", strconv.FormatInt(retrySecs(ref.RetryAfter), 10))
		}
	case errors.Is(err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// The client hung up: 499 in the nginx tradition, for any middleware
		// that still logs the status, and no body: nobody is left to read it.
		w.WriteHeader(499)
		return
	case errors.Is(err, segment.ErrImmutable):
		status = http.StatusConflict
	}
	writeJSON(w, status, body)
}
