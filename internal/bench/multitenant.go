package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"time"

	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/index"
	"repro/internal/segment"
	"repro/internal/server"
	"repro/internal/sets"
)

// MultiTenant exercises the collection layer of DESIGN.md §14 end to end
// over real HTTP: N named collections in one process, tenant isolation,
// byte-identical legacy aliasing of the default collection, quota
// rejection (413), rate limiting (429 + Retry-After), in-flight fairness
// on the shared worker pool, and skewed multi-tenant traffic with
// per-collection counters. Every property is checked, not just printed —
// a violation returns an error so CI can gate on it.
func (r *Runner) MultiTenant() error {
	r.header("Multi-tenant serving: collections, quotas, admission")
	b := r.bundleFor(datagen.Twitter)

	reg := collection.NewRegistry(b.ds.Repo.Sets(), collection.Config{
		Build: func(dict *sets.Dictionary) index.NeighborSource {
			return index.NewDynamicExact(dict, b.ds.Model.Vector)
		},
		// Serving configuration (see managerFor): concurrency comes from
		// the pool, and the HTTP layer requires exact scores.
		Opts:   core.Options{K: r.cfg.K, Alpha: r.cfg.Alpha, Partitions: 1, Workers: 1, ExactScores: true}.WithDefaults(),
		SegCfg: segment.Config{ForegroundCompaction: true},
	})
	srv := server.NewRegistry(reg, server.Config{
		SearchWorkers: 2,
		QueryTimeout:  30 * time.Second,
		// Keep global queue-depth shedding out of the way: this experiment
		// measures the per-tenant admission knobs.
		MaxQueueDepth: 1 << 20,
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	cl := server.NewClient(ts.URL, nil)
	ctx := context.Background()
	queries := benchQueries(b)

	// Legacy aliasing: the un-scoped routes and /v1/collections/default
	// must be the same engine producing identical results (same order, IDs,
	// names, bit-identical scores).
	defCl := cl.Collection(collection.DefaultName)
	for i, q := range queries[:min(10, len(queries))] {
		legacy, err := cl.Search(q, 0)
		if err != nil {
			return fmt.Errorf("multitenant: legacy search: %w", err)
		}
		scoped, err := defCl.Search(q, 0)
		if err != nil {
			return fmt.Errorf("multitenant: scoped default search: %w", err)
		}
		if !reflect.DeepEqual(legacy.Results, scoped.Results) {
			return fmt.Errorf("multitenant: query %d: /v1/search and /v1/collections/default/search diverged", i)
		}
	}
	r.printf("  legacy ≡ default: ok (%d queries, identical results through both routes)\n", min(10, len(queries)))

	// Tenant isolation: a set inserted into one collection is invisible to
	// its siblings — different dictionaries, different segments.
	seed := b.ds.Repo.Sets()
	if _, err := cl.CreateCollection(ctx, "tenant-a", collection.Quota{}); err != nil {
		return fmt.Errorf("multitenant: create tenant-a: %w", err)
	}
	if _, err := cl.CreateCollection(ctx, "tenant-b", collection.Quota{}); err != nil {
		return fmt.Errorf("multitenant: create tenant-b: %w", err)
	}
	aCl, bCl := cl.Collection("tenant-a"), cl.Collection("tenant-b")
	if _, err := aCl.Insert("doc-a", seed[0].Elements); err != nil {
		return fmt.Errorf("multitenant: insert tenant-a: %w", err)
	}
	if _, err := bCl.Insert("doc-b", seed[1].Elements); err != nil {
		return fmt.Errorf("multitenant: insert tenant-b: %w", err)
	}
	if _, err := aCl.GetSet("doc-b"); err == nil {
		return fmt.Errorf("multitenant: tenant-a sees tenant-b's set")
	}
	hitA, err := aCl.Search(seed[0].Elements, 1)
	if err != nil {
		return fmt.Errorf("multitenant: tenant-a search: %w", err)
	}
	if len(hitA.Results) != 1 || hitA.Results[0].SetName != "doc-a" {
		return fmt.Errorf("multitenant: tenant-a does not find its own set")
	}
	missB, err := bCl.Search(seed[0].Elements, 1)
	if err != nil {
		return fmt.Errorf("multitenant: tenant-b search: %w", err)
	}
	if len(missB.Results) != 0 && missB.Results[0].SetName == "doc-a" {
		return fmt.Errorf("multitenant: tenant-b sees tenant-a's data")
	}
	r.printf("  isolation: ok (cross-tenant reads 404, cross-tenant searches miss)\n")

	// Set-count quota: the third distinct name answers 413 with the
	// structured error; replacing a live name stays quota-neutral.
	if _, err := cl.CreateCollection(ctx, "quota-t", collection.Quota{MaxSets: 2}); err != nil {
		return fmt.Errorf("multitenant: create quota-t: %w", err)
	}
	qCl := cl.Collection("quota-t")
	for _, name := range []string{"s1", "s2"} {
		if _, err := qCl.Insert(name, seed[2].Elements); err != nil {
			return fmt.Errorf("multitenant: quota-t insert %s: %w", name, err)
		}
	}
	status, _, errBody, err := rawPost(ts.URL+"/v1/collections/quota-t/sets",
		server.InsertRequest{Name: "s3", Elements: seed[3].Elements})
	if err != nil {
		return fmt.Errorf("multitenant: quota probe: %w", err)
	}
	if status != http.StatusRequestEntityTooLarge || errBody["code"] != "quota_exceeded" || errBody["resource"] != "sets" {
		return fmt.Errorf("multitenant: over-quota insert answered %d %v, want 413 quota_exceeded/sets", status, errBody)
	}
	if _, err := qCl.Insert("s2", seed[4].Elements); err != nil {
		return fmt.Errorf("multitenant: quota-neutral replacement refused: %w", err)
	}
	qi, err := cl.CollectionInfo(ctx, "quota-t")
	if err != nil {
		return fmt.Errorf("multitenant: quota-t info: %w", err)
	}
	if qi.Counters.QuotaRejectedTotal != 1 || qi.Sets != 2 {
		return fmt.Errorf("multitenant: quota-t counters %+v sets=%d, want 1 rejection and 2 sets", qi.Counters, qi.Sets)
	}
	r.printf("  set quota: ok (413 quota_exceeded at the cap, replacement quota-neutral, counter=1)\n")

	// Rate limit: burst 1 admits the first search, the second answers 429
	// with a Retry-After the well-behaved client would wait out.
	if _, err := cl.CreateCollection(ctx, "rate-t", collection.Quota{RatePerSec: 0.001, Burst: 1}); err != nil {
		return fmt.Errorf("multitenant: create rate-t: %w", err)
	}
	if _, err := cl.Collection("rate-t").Search(seed[0].Elements, 1); err != nil {
		return fmt.Errorf("multitenant: rate-t first search: %w", err)
	}
	status, hdr, errBody, err := rawPost(ts.URL+"/v1/collections/rate-t/search",
		server.SearchRequest{Query: seed[0].Elements, K: 1})
	if err != nil {
		return fmt.Errorf("multitenant: rate probe: %w", err)
	}
	if status != http.StatusTooManyRequests || errBody["code"] != "rate_limited" || hdr.Get("Retry-After") == "" {
		return fmt.Errorf("multitenant: rate-limited search answered %d %v (Retry-After %q), want 429 rate_limited", status, errBody, hdr.Get("Retry-After"))
	}
	r.printf("  rate limit: ok (429 rate_limited with Retry-After %ss after the burst)\n", hdr.Get("Retry-After"))

	// Fairness on the shared pool: a heavy tenant capped at 1 in-flight
	// search is shed while a light tenant's concurrent searches all
	// succeed — the cap converts one tenant's burst into its own 429s
	// instead of everyone's queueing.
	if _, err := cl.CreateCollection(ctx, "heavy", collection.Quota{MaxInFlight: 1}); err != nil {
		return fmt.Errorf("multitenant: create heavy: %w", err)
	}
	if _, err := cl.CreateCollection(ctx, "light", collection.Quota{}); err != nil {
		return fmt.Errorf("multitenant: create light: %w", err)
	}
	for i := 0; i < 8; i++ {
		name := fmt.Sprintf("set-%d", i)
		if _, err := cl.Collection("heavy").Insert(name, seed[i%len(seed)].Elements); err != nil {
			return fmt.Errorf("multitenant: seed heavy: %w", err)
		}
		if _, err := cl.Collection("light").Insert(name, seed[i%len(seed)].Elements); err != nil {
			return fmt.Errorf("multitenant: seed light: %w", err)
		}
	}
	// A batch charges the in-flight cap all its entries at once, so a
	// 2-query batch against max_in_flight=1 is refused deterministically —
	// no timing window — while the light tenant's concurrent searches all
	// go through, and a single heavy search (within its cap) still works.
	const burst = 8
	var (
		start      sync.WaitGroup
		done       sync.WaitGroup
		heavyShed  int
		lightOK    int
		mu         sync.Mutex
		firstError error
	)
	start.Add(1)
	for i := 0; i < burst; i++ {
		done.Add(2)
		q := queries[i%len(queries)]
		go func() {
			defer done.Done()
			start.Wait()
			status, _, eb, err := rawPost(ts.URL+"/v1/collections/heavy/search/batch",
				server.BatchSearchRequest{Queries: [][]string{q, q}})
			mu.Lock()
			defer mu.Unlock()
			if err != nil && firstError == nil {
				firstError = err
			}
			if status == http.StatusTooManyRequests && eb["code"] == "tenant_busy" {
				heavyShed++
			}
		}()
		go func() {
			defer done.Done()
			start.Wait()
			status, _, _, err := rawPost(ts.URL+"/v1/collections/light/search", server.SearchRequest{Query: q})
			mu.Lock()
			defer mu.Unlock()
			if err != nil && firstError == nil {
				firstError = err
			}
			if status == http.StatusOK {
				lightOK++
			}
		}()
	}
	start.Done()
	done.Wait()
	if firstError != nil {
		return fmt.Errorf("multitenant: fairness burst: %w", firstError)
	}
	if lightOK != burst {
		return fmt.Errorf("multitenant: light tenant had %d/%d successes during heavy's burst, want all", lightOK, burst)
	}
	if heavyShed != burst {
		return fmt.Errorf("multitenant: heavy tenant (max_in_flight=1) shed %d/%d over-cap batches, want all", heavyShed, burst)
	}
	if _, err := cl.Collection("heavy").Search(queries[0], 1); err != nil {
		return fmt.Errorf("multitenant: heavy within-cap search refused: %w", err)
	}
	hi, err := cl.CollectionInfo(ctx, "heavy")
	if err != nil {
		return fmt.Errorf("multitenant: heavy info: %w", err)
	}
	if hi.Counters.ShedTotal != int64(2*heavyShed) {
		return fmt.Errorf("multitenant: heavy shed_total=%d, want %d (2 entries per refused batch)", hi.Counters.ShedTotal, 2*heavyShed)
	}
	r.printf("  fairness: ok (heavy shed %d/%d over-cap batches, light %d/%d served, within-cap search fine)\n",
		heavyShed, burst, lightOK, burst)

	// Skewed traffic across the tenants: the per-collection counters must
	// account for every admitted search.
	tenants := []string{"tenant-a", "tenant-b", "heavy", "light"}
	weights := []int{70, 20, 5, 5}
	before := make(map[string]int64)
	for _, t := range tenants {
		ci, err := cl.CollectionInfo(ctx, t)
		if err != nil {
			return fmt.Errorf("multitenant: info %s: %w", t, err)
		}
		before[t] = ci.Counters.SearchesTotal
	}
	rng := rand.New(rand.NewSource(42))
	sent := make(map[string]int)
	for i := 0; i < 100; i++ {
		roll, acc := rng.Intn(100), 0
		t := tenants[0]
		for j, w := range weights {
			if acc += w; roll < acc {
				t = tenants[j]
				break
			}
		}
		st, _, _, err := rawPost(ts.URL+"/v1/collections/"+t+"/search", server.SearchRequest{Query: queries[i%len(queries)]})
		if err != nil {
			return fmt.Errorf("multitenant: skewed traffic: %w", err)
		}
		if st == http.StatusOK {
			sent[t]++
		}
	}
	for _, t := range tenants {
		ci, err := cl.CollectionInfo(ctx, t)
		if err != nil {
			return fmt.Errorf("multitenant: info %s: %w", t, err)
		}
		got := ci.Counters.SearchesTotal - before[t]
		if got != int64(sent[t]) {
			return fmt.Errorf("multitenant: %s searches_total moved by %d, served %d", t, got, sent[t])
		}
		r.printf("  skew %-9s %3d served, counters in step (searches_total %d)\n", t+":", sent[t], ci.Counters.SearchesTotal)
	}

	r.printf("  multitenant: ok\n")
	return nil
}

// rawPost issues one JSON POST without the client's retry machinery —
// admission refusals (413/429) are the responses under test here, not
// transients to retry away.
func rawPost(url string, body any) (status int, hdr http.Header, errBody map[string]any, err error) {
	raw, err := json.Marshal(body)
	if err != nil {
		return 0, nil, nil, err
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, nil, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		errBody = make(map[string]any)
		json.Unmarshal(payload, &errBody)
	}
	return resp.StatusCode, resp.Header, errBody, nil
}
