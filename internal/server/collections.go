package server

import (
	"errors"
	"fmt"
	"net/http"

	"repro/internal/collection"
	"repro/internal/segment"
)

// This file is the multi-tenant HTTP surface (DESIGN.md §14): collection
// CRUD plus the collection-scoped aliases of every data route. The
// un-scoped legacy routes serve the default collection through the same
// bodies, so scoping is pure routing — a request to /v1/search and one to
// /v1/collections/default/search run identical code and produce
// byte-identical responses.

// CollectionInfo is the wire form of one collection's state: size,
// segment layout, quota, and the per-tenant admission counters.
type CollectionInfo struct {
	Name string `json:"name"`
	Sets int    `json:"sets"`
	// Bytes is the quota accounting measure: summed element bytes across
	// live sets.
	Bytes        int64 `json:"bytes"`
	Vocabulary   int   `json:"vocabulary"`
	Segments     int   `json:"segments"`
	MemtableSets int   `json:"memtable_sets"`
	Tombstones   int   `json:"tombstones"`
	Mutable      bool  `json:"mutable"`
	Degraded     bool  `json:"degraded"`
	InFlight     int64 `json:"in_flight"`
	// Weight is the tenant's resolved fair-share weight (≥ 1) in the
	// search pool's DRR and the maintenance scheduler.
	Weight int `json:"weight"`
	// Debt is the maintenance backlog the scheduler is draining; the
	// slowdown/stall thresholds compare against it (DESIGN.md §15).
	Debt segment.Debt `json:"debt"`
	// LatencyP50US/P95US/P99US are this tenant's own recent search latency
	// percentiles — the per-collection view that makes "a flooding sibling
	// moved my p99" observable rather than folklore.
	LatencyP50US int64 `json:"latency_p50_us"`
	LatencyP95US int64 `json:"latency_p95_us"`
	LatencyP99US int64 `json:"latency_p99_us"`
	// Quota is the configured bound (zero fields = unlimited); Counters
	// are the admission totals — quota_rejected_total counts 413s,
	// rate_limited_total and shed_total count the two flavors of 429, and
	// slowed_total/stalled_total count the maintenance-backlog 503s.
	Quota    collection.Quota    `json:"quota"`
	Counters collection.Counters `json:"counters"`
}

func (s *Server) collectionInfoOf(c *collection.Collection) CollectionInfo {
	m := c.Manager()
	sealed, memSets, tombstones := m.Segments()
	p50, p95, p99 := s.pool.tenantPercentiles(c.Name())
	return CollectionInfo{
		Name:         c.Name(),
		Sets:         m.Len(),
		Bytes:        c.Bytes(),
		Vocabulary:   m.VocabSize(),
		Segments:     sealed,
		MemtableSets: memSets,
		Tombstones:   tombstones,
		Mutable:      m.Mutable(),
		Degraded:     m.Health().Degraded,
		InFlight:     c.InFlight(),
		Weight:       c.Weight(),
		Debt:         m.MaintenanceDebt(),
		LatencyP50US: p50.Microseconds(),
		LatencyP95US: p95.Microseconds(),
		LatencyP99US: p99.Microseconds(),
		Quota:        c.Quota(),
		Counters:     c.Counters(),
	}
}

// CreateCollectionRequest is the body of POST /v1/collections.
type CreateCollectionRequest struct {
	Name string `json:"name"`
	// Quota bounds the new collection; omitted or zero fields mean the
	// server's default quota.
	Quota collection.Quota `json:"quota"`
}

// ListCollectionsResponse is the body of GET /v1/collections.
type ListCollectionsResponse struct {
	Collections []CollectionInfo `json:"collections"`
}

// DropCollectionResponse is the body of DELETE /v1/collections/{name}.
type DropCollectionResponse struct {
	Dropped bool   `json:"dropped"`
	Name    string `json:"name"`
}

// resolveCollection maps the {collection} path value to a live collection,
// answering 404 (structured, code collection_not_found) when it is gone —
// the multi-tenant analogue of a dangling table handle.
func (s *Server) resolveCollection(w http.ResponseWriter, r *http.Request) (*collection.Collection, bool) {
	name := r.PathValue("collection")
	col, ok := s.reg.Get(name)
	if !ok {
		collectionNotFound(w, name)
		return nil, false
	}
	return col, true
}

// collectionNotFound writes the 404 envelope for a collection that does not
// exist — or no longer does: a search that was queued when its collection
// was dropped answers the same.
func collectionNotFound(w http.ResponseWriter, name string) {
	writeJSON(w, http.StatusNotFound, errorBody{
		Error:      fmt.Sprintf("no collection named %q", name),
		Code:       "collection_not_found",
		Collection: name,
	})
}

// writeAdmissionError maps the typed per-tenant refusals to their HTTP
// forms: quota → 413, rate limit → 429 with the bucket's refill time as
// Retry-After, in-flight cap → 429 with a short fixed Retry-After (the
// tenant's own queries drain on query-latency timescales), maintenance
// backlog → 503 maintenance_backlog with Retry-After (the write-stall
// degradation of DESIGN.md §15 — visible refusal, never silent latency).
// Returns false for any other error so callers fall through to their
// generic handling.
func writeAdmissionError(w http.ResponseWriter, err error) bool {
	var qe *collection.QuotaError
	var re *collection.RateLimitError
	var be *collection.BusyError
	var me *collection.MaintenanceBacklogError
	switch {
	case errors.As(err, &qe):
		writeJSON(w, http.StatusRequestEntityTooLarge, errorBody{
			Error:      qe.Error(),
			Code:       "quota_exceeded",
			Collection: qe.Collection,
			Resource:   qe.Resource,
			Limit:      qe.Limit,
			Used:       qe.Used,
		})
	case errors.As(err, &re):
		secs := int64(re.RetryAfter.Seconds()) + 1
		w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
		writeJSON(w, http.StatusTooManyRequests, errorBody{
			Error:      re.Error(),
			Code:       "rate_limited",
			Collection: re.Collection,
		})
	case errors.As(err, &be):
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, errorBody{
			Error:      be.Error(),
			Code:       "tenant_busy",
			Collection: be.Collection,
		})
	case errors.As(err, &me):
		secs := int64(me.RetryAfter.Seconds())
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
		writeJSON(w, http.StatusServiceUnavailable, errorBody{
			Error:      me.Error(),
			Code:       "maintenance_backlog",
			Collection: me.Collection,
		})
	default:
		return false
	}
	return true
}

// admitTenant runs the per-tenant admission checks (rate limit, in-flight
// cap) for n searches, writing the 429 itself on refusal. A true return
// must be paired with col.ReleaseSearch(n).
func (s *Server) admitTenant(w http.ResponseWriter, col *collection.Collection, n int) bool {
	if err := col.AdmitSearch(n); err != nil {
		writeAdmissionError(w, err)
		return false
	}
	return true
}

func (s *Server) handleListCollections(w http.ResponseWriter, r *http.Request) {
	cols := s.reg.List()
	resp := ListCollectionsResponse{Collections: make([]CollectionInfo, len(cols))}
	for i, c := range cols {
		resp.Collections[i] = s.collectionInfoOf(c)
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleCreateCollection(w http.ResponseWriter, r *http.Request) {
	var req CreateCollectionRequest
	if err := decodeJSON(w, r, &req); err != nil {
		return
	}
	col, err := s.reg.Create(req.Name, req.Quota)
	switch {
	case err == nil:
		writeJSON(w, http.StatusCreated, s.collectionInfoOf(col))
	case errors.Is(err, collection.ErrExists):
		writeJSON(w, http.StatusConflict, errorBody{Error: err.Error(), Code: "collection_exists", Collection: req.Name})
	case errors.Is(err, collection.ErrClosed):
		httpError(w, http.StatusServiceUnavailable, err.Error())
	default:
		// Invalid name or a storage failure creating the directory.
		if !collection.ValidName(req.Name) {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		httpError(w, http.StatusInternalServerError, err.Error())
	}
}

func (s *Server) handleGetCollection(w http.ResponseWriter, r *http.Request) {
	col, ok := s.resolveCollection(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, s.collectionInfoOf(col))
}

func (s *Server) handleDropCollection(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("collection")
	err := s.reg.Drop(name)
	switch {
	case err == nil:
		// Forget the dropped tenant's fair-queue state too; a recreated
		// collection of the same name starts with a fresh deficit.
		s.pool.removeTenant(name)
		writeJSON(w, http.StatusOK, DropCollectionResponse{Dropped: true, Name: name})
	case errors.Is(err, collection.ErrDefault):
		httpError(w, http.StatusBadRequest, err.Error())
	case errors.Is(err, collection.ErrNotFound):
		writeJSON(w, http.StatusNotFound, errorBody{Error: err.Error(), Code: "collection_not_found", Collection: name})
	case errors.Is(err, collection.ErrClosed):
		httpError(w, http.StatusServiceUnavailable, err.Error())
	default:
		httpError(w, http.StatusInternalServerError, err.Error())
	}
}
