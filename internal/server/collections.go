package server

import (
	"errors"
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
	// search pool and the maintenance scheduler.
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
	// are the tenant's admission totals — quota_rejected_total counts 413s,
	// rate_limited_total and shed_total the rate_limited and tenant_busy
	// 429s, and slowed_total/stalled_total the maintenance-backlog 503s. The
	// other two 429s (the tenant queue and latency gates, code overloaded)
	// are the pool's, counted in /v1/info's resilience.shed_total.
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
		writeError(w, &collection.Refusal{Code: collection.CodeNotFound, Collection: name})
		return nil, false
	}
	return col, true
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
		// collection of the same name starts with zero credit.
		s.pool.removeTenant(name)
		writeJSON(w, http.StatusOK, DropCollectionResponse{Dropped: true, Name: name})
	case errors.Is(err, collection.ErrDefault):
		httpError(w, http.StatusBadRequest, err.Error())
	case errors.Is(err, collection.ErrNotFound):
		writeJSON(w, http.StatusNotFound, errorBody{Error: err.Error(), Code: collection.CodeNotFound, Collection: name})
	case errors.Is(err, collection.ErrClosed):
		httpError(w, http.StatusServiceUnavailable, err.Error())
	default:
		httpError(w, http.StatusInternalServerError, err.Error())
	}
}
