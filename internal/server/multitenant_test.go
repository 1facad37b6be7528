package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/index"
	"repro/internal/sched"
	"repro/internal/sets"
)

// registryFor builds a collection registry seeded with ds in the default
// collection, closed when the test ends.
func registryFor(t *testing.T, ds *datagen.Dataset, opts core.Options, clock sched.Clock) *collection.Registry {
	reg := collection.NewRegistry(ds.Repo.Sets(), collection.Config{
		Build: func(dict *sets.Dictionary) index.NeighborSource {
			return index.NewDynamicExact(dict, ds.Model.Vector)
		},
		Opts:  opts,
		Clock: clock,
	})
	t.Cleanup(func() { reg.Close() })
	return reg
}

func testRegistryServer(t *testing.T, clock sched.Clock) (*Server, *httptest.Server, *datagen.Dataset) {
	t.Helper()
	ds := datagen.GenerateDefault(datagen.Twitter, 0.02)
	srv := NewRegistry(registryFor(t, ds, testOpts, clock), Config{})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return srv, ts, ds
}

// postJSON issues one POST with no client retries and decodes the response
// body into a generic map, so tests can assert structured error fields.
func postJSON(t *testing.T, url, body string) (int, http.Header, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decoding %s response: %v", url, err)
	}
	return resp.StatusCode, resp.Header, m
}

func TestCollectionCRUDOverHTTP(t *testing.T) {
	_, ts, _ := testRegistryServer(t, nil)

	// Create answers 201 with the new collection's info.
	code, _, m := postJSON(t, ts.URL+"/v1/collections", `{"name":"tenant-a","quota":{"max_sets":5}}`)
	if code != http.StatusCreated {
		t.Fatalf("create = %d %v, want 201", code, m)
	}
	if m["name"] != "tenant-a" {
		t.Fatalf("created info %v", m)
	}

	// Duplicate name: 409 with a stable machine code.
	code, _, m = postJSON(t, ts.URL+"/v1/collections", `{"name":"tenant-a"}`)
	if code != http.StatusConflict || m["code"] != "collection_exists" {
		t.Fatalf("duplicate create = %d %v, want 409 collection_exists", code, m)
	}

	// Invalid name: 400.
	code, _, m = postJSON(t, ts.URL+"/v1/collections", `{"name":"bad name"}`)
	if code != http.StatusBadRequest {
		t.Fatalf("invalid name = %d %v, want 400", code, m)
	}

	// Unknown collection on a scoped data route: 404 with the code.
	code, _, m = postJSON(t, ts.URL+"/v1/collections/ghost/search", `{"query":["x"]}`)
	if code != http.StatusNotFound || m["code"] != "collection_not_found" {
		t.Fatalf("scoped search on ghost = %d %v, want 404 collection_not_found", code, m)
	}

	// The default collection cannot be dropped; unknown names 404.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/collections/default", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("drop default = %d, want 400", resp.StatusCode)
	}
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/collections/ghost", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("drop ghost = %d, want 404", resp.StatusCode)
	}

	// List: default first, then the created tenant; /v1/info mirrors it.
	c := NewClient(ts.URL, nil)
	list, err := c.Collections(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(list.Collections) != 2 || list.Collections[0].Name != "default" || list.Collections[1].Name != "tenant-a" {
		t.Fatalf("list = %+v", list.Collections)
	}
	info, err := c.Info()
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Collections) != 2 {
		t.Fatalf("info.collections = %+v", info.Collections)
	}

	// Drop through the client; the scoped routes stop resolving.
	if _, err := c.DropCollection(context.Background(), "tenant-a"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.CollectionInfo(context.Background(), "tenant-a"); err == nil {
		t.Fatal("dropped collection still served info")
	}
}

// TestScopedDefaultMatchesLegacy ranges over the route table: every
// per-collection endpoint must be registered under both prefixes and answer
// the same for the default collection through either. A route added to the
// table without a sample request here fails the test.
func TestScopedDefaultMatchesLegacy(t *testing.T) {
	srv, ts, ds := testRegistryServer(t, nil)
	query, err := json.Marshal(ds.Repo.Elements(0))
	if err != nil {
		t.Fatal(err)
	}
	// %d is 0 for the un-scoped request and 1 for the scoped one, so the
	// mutating routes (in table order: insert, get, delete) never collide.
	samples := map[string]struct{ path, body string }{
		"POST /search":        {"/search", `{"query":` + string(query) + `}`},
		"POST /search/batch":  {"/search/batch", `{"queries":[` + string(query) + `,["x"]]}`},
		"POST /overlap":       {"/overlap", `{"a":["x","y"],"b":["y","z"]}`},
		"POST /sets":          {"/sets", `{"name":"probe-%d","elements":["x","y"]}`},
		"GET /sets/{name}":    {"/sets/probe-%d", ""},
		"DELETE /sets/{name}": {"/sets/probe-%d", ""},
		"POST /scrub":         {"/scrub", ""},
		"POST /repair":        {"/repair", ""},
	}
	// Wall-clock phase timings, the IDs an insert hands out and the probe's
	// own name differ between the two requests; everything else must match.
	var strip func(v any)
	strip = func(v any) {
		switch v := v.(type) {
		case map[string]any:
			for _, k := range []string{"stats", "set_id", "sets", "name"} {
				delete(v, k)
			}
			for _, child := range v {
				strip(child)
			}
		case []any:
			for _, child := range v {
				strip(child)
			}
		}
	}
	for _, rt := range srv.collectionRoutes() {
		key := rt.method + " " + rt.path
		sample, ok := samples[key]
		if !ok {
			t.Fatalf("route %q has no sample request in this test", key)
		}
		var codes [2]int
		var bodies [2]any
		for i, prefix := range []string{"/v1", "/v1/collections/default"} {
			url := ts.URL + prefix + strings.ReplaceAll(sample.path, "%d", strconv.Itoa(i))
			body := strings.ReplaceAll(sample.body, "%d", strconv.Itoa(i))
			req, err := http.NewRequest(rt.method, url, strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			if err := json.NewDecoder(resp.Body).Decode(&bodies[i]); err != nil {
				t.Fatalf("%s %s: decoding response: %v", rt.method, url, err)
			}
			resp.Body.Close()
			codes[i] = resp.StatusCode
			strip(bodies[i])
		}
		if codes[0]/100 != 2 || codes[1] != codes[0] {
			t.Fatalf("%s: un-scoped answered %d, scoped %d; want the same 2xx", key, codes[0], codes[1])
		}
		if !reflect.DeepEqual(bodies[0], bodies[1]) {
			t.Fatalf("%s: un-scoped %v != scoped %v", key, bodies[0], bodies[1])
		}
	}
}

// TestDropCollectionFailsQueuedSearches: searches waiting for a worker when
// their collection is dropped answer 404 collection_not_found at once — the
// dispatcher can no longer reach them, and without a QueryTimeout (the
// default) nothing else would ever wake them.
func TestDropCollectionFailsQueuedSearches(t *testing.T) {
	ds := datagen.GenerateDefault(datagen.Twitter, 0.02)
	srv := NewRegistry(registryFor(t, ds, core.Options{K: 5, ExactScores: true}, nil), Config{SearchWorkers: 1})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	if code, _, m := postJSON(t, ts.URL+"/v1/collections", `{"name":"b"}`); code != http.StatusCreated {
		t.Fatalf("create = %d %v", code, m)
	}

	srv.pool.sem <- struct{}{} // the only worker is busy
	// The client gives up after 5 s, so a stranded search fails the test
	// instead of hanging it.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	type answer struct {
		code int
		body map[string]any
		err  error
	}
	answers := make(chan answer, 2)
	for path, body := range map[string]string{
		"/search":       `{"query":["x"]}`,
		"/search/batch": `{"queries":[["x"],["y"]]}`,
	} {
		go func() {
			req, err := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/collections/b"+path, strings.NewReader(body))
			if err != nil {
				answers <- answer{err: err}
				return
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				answers <- answer{err: err}
				return
			}
			defer resp.Body.Close()
			a := answer{code: resp.StatusCode}
			a.err = json.NewDecoder(resp.Body).Decode(&a.body)
			answers <- a
		}()
	}
	for srv.pool.queued.Load() != 3 { // one search + two batch entries
		if ctx.Err() != nil {
			t.Fatalf("%d searches queued, want 3", srv.pool.queued.Load())
		}
		time.Sleep(time.Millisecond)
	}

	req, err := http.NewRequest("DELETE", ts.URL+"/v1/collections/b", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drop = %d, want 200", resp.StatusCode)
	}
	for i := 0; i < 2; i++ {
		a := <-answers
		if a.err != nil {
			t.Fatalf("queued search stranded by the drop: %v", a.err)
		}
		if a.code != http.StatusNotFound || a.body["code"] != "collection_not_found" || a.body["collection"] != "b" {
			t.Fatalf("queued search answered %d %v, want 404 collection_not_found", a.code, a.body)
		}
	}
	if q := srv.pool.queued.Load(); q != 0 {
		t.Fatalf("%d searches still counted as queued after the drop", q)
	}
	// The worker was busy throughout; once free it serves the next search.
	<-srv.pool.sem
	if code, _, m := postJSON(t, ts.URL+"/v1/search", `{"query":["x"]}`); code != http.StatusOK {
		t.Fatalf("search after the drop = %d %v, want 200", code, m)
	}
}

func TestQuotaRejectionOverHTTP(t *testing.T) {
	_, ts, _ := testRegistryServer(t, nil)
	code, _, _ := postJSON(t, ts.URL+"/v1/collections", `{"name":"small","quota":{"max_sets":1}}`)
	if code != http.StatusCreated {
		t.Fatalf("create = %d", code)
	}
	code, _, _ = postJSON(t, ts.URL+"/v1/collections/small/sets", `{"name":"a","elements":["x"]}`)
	if code != http.StatusCreated {
		t.Fatalf("first insert = %d, want 201", code)
	}
	code, _, m := postJSON(t, ts.URL+"/v1/collections/small/sets", `{"name":"b","elements":["y"]}`)
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-quota insert = %d %v, want 413", code, m)
	}
	if m["code"] != "quota_exceeded" || m["resource"] != "sets" || m["limit"] != float64(1) {
		t.Fatalf("quota error body %v", m)
	}
	// The refusal is visible in the per-collection counters.
	c := NewClient(ts.URL, nil)
	ci, err := c.CollectionInfo(context.Background(), "small")
	if err != nil {
		t.Fatal(err)
	}
	if ci.Counters.QuotaRejectedTotal != 1 || ci.Sets != 1 {
		t.Fatalf("counters %+v sets %d, want 1 rejection and 1 set", ci.Counters, ci.Sets)
	}
}

func TestRateLimitOverHTTPWithInjectedClock(t *testing.T) {
	clock := sched.NewManual(time.Unix(0, 0))
	_, ts, _ := testRegistryServer(t, clock)
	code, _, _ := postJSON(t, ts.URL+"/v1/collections", `{"name":"slow","quota":{"rate_per_sec":1,"burst":1}}`)
	if code != http.StatusCreated {
		t.Fatalf("create = %d", code)
	}
	url := ts.URL + "/v1/collections/slow/search"
	if code, _, m := postJSON(t, url, `{"query":["x"]}`); code != http.StatusOK {
		t.Fatalf("first search = %d %v, want 200", code, m)
	}
	code, hdr, m := postJSON(t, url, `{"query":["x"]}`)
	if code != http.StatusTooManyRequests || m["code"] != "rate_limited" {
		t.Fatalf("rate-limited search = %d %v, want 429 rate_limited", code, m)
	}
	if ra := hdr.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("Retry-After = %q, want a positive seconds hint", ra)
	}
	// Advance the injected clock one refill period: admitted again, and the
	// refusal stays counted.
	clock.Advance(time.Second)
	if code, _, m := postJSON(t, url, `{"query":["x"]}`); code != http.StatusOK {
		t.Fatalf("search after refill = %d %v, want 200", code, m)
	}
	c := NewClient(ts.URL, nil)
	ci, err := c.CollectionInfo(context.Background(), "slow")
	if err != nil {
		t.Fatal(err)
	}
	if ci.Counters.RateLimitedTotal != 1 || ci.Counters.SearchesTotal != 2 {
		t.Fatalf("counters %+v, want 1 rate-limited and 2 served", ci.Counters)
	}
}

func TestTenantBusyOverHTTP(t *testing.T) {
	_, ts, _ := testRegistryServer(t, nil)
	code, _, _ := postJSON(t, ts.URL+"/v1/collections", `{"name":"narrow","quota":{"max_in_flight":1}}`)
	if code != http.StatusCreated {
		t.Fatalf("create = %d", code)
	}
	// A batch of two must take both in-flight slots at once, so against a
	// cap of one it is refused deterministically — no timing involved.
	code, hdr, m := postJSON(t, ts.URL+"/v1/collections/narrow/search/batch", `{"queries":[["x"],["y"]]}`)
	if code != http.StatusTooManyRequests || m["code"] != "tenant_busy" {
		t.Fatalf("over-cap batch = %d %v, want 429 tenant_busy", code, m)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("tenant_busy response missing Retry-After")
	}
	// A single search fits the cap.
	if code, _, m := postJSON(t, ts.URL+"/v1/collections/narrow/search", `{"query":["x"]}`); code != http.StatusOK {
		t.Fatalf("within-cap search = %d %v, want 200", code, m)
	}
}

func TestLatencyShedDeterministic(t *testing.T) {
	ds := datagen.GenerateDefault(datagen.Twitter, 0.02)
	srv := NewRegistry(registryFor(t, ds, testOpts, nil), Config{ShedLatencyP99: 10 * time.Millisecond})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Plant the exact overload signature the gate reads: a backlog
	// (queued > 0) and a latency ring whose p99 exceeds the threshold.
	for i := range srv.pool.lat {
		srv.pool.lat[i].Store(int64(50 * time.Millisecond))
	}
	srv.pool.pos.Store(latRingSize)
	srv.pool.queued.Add(1)

	code, hdr, _ := postJSON(t, ts.URL+"/v1/search", `{"query":["x"]}`)
	if code != http.StatusTooManyRequests {
		t.Fatalf("latency-shed search = %d, want 429", code)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("latency shed missing Retry-After")
	}
	if got := srv.pool.sheds.Load(); got != 1 {
		t.Fatalf("sheds = %d, want 1", got)
	}

	// With no backlog the same slow percentiles do NOT shed: an idle server
	// with a bad history still serves.
	srv.pool.queued.Add(-1)
	if code, _, m := postJSON(t, ts.URL+"/v1/search", `{"query":["x"]}`); code != http.StatusOK {
		t.Fatalf("idle search after backlog drained = %d %v, want 200", code, m)
	}
}

func TestClientQuotaErrorsNotRetried(t *testing.T) {
	var hits int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits++
		writeJSON(w, http.StatusRequestEntityTooLarge, errorBody{Error: "quota", Code: "quota_exceeded"})
	}))
	defer ts.Close()
	c := NewClient(ts.URL, nil)
	if _, err := c.Insert("a", []string{"x"}); err == nil {
		t.Fatal("quota refusal reported as success")
	}
	// 413 is a permanent condition: retrying cannot help and would hide the
	// quota signal from the caller.
	if hits != 1 {
		t.Fatalf("client retried a 413 %d times", hits-1)
	}
}
