package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/index"
	"repro/internal/segment"
	"repro/internal/sets"
	"repro/internal/store"
)

// Serving-layer resilience (DESIGN.md §11): panics answer 500 without
// killing the process, overload sheds with 429 + Retry-After, the client
// backs off and retries, the boot protocol separates liveness from
// readiness, and a degraded engine is visible and repairable over HTTP.

func getInfo(t *testing.T, ts *httptest.Server) InfoResponse {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/info")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info InfoResponse
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	return info
}

func TestPanicRecoveryAnswers500(t *testing.T) {
	ds := datagen.GenerateDefault(datagen.Twitter, 0.02)
	srv := NewRegistry(registryFor(t, ds, testOpts, nil), Config{})
	// A handler bug, planted: the recovery middleware must contain it to
	// this one request.
	srv.mux.HandleFunc("GET /v1/boom", func(w http.ResponseWriter, r *http.Request) {
		panic("planted bug")
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/boom")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking handler answered %d, want 500", resp.StatusCode)
	}
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || !strings.Contains(eb.Error, "planted bug") {
		t.Fatalf("error body = %+v (decode err %v)", eb, err)
	}

	// The process survived: normal queries still answer, and the panic is
	// counted where operators look.
	c := NewClient(ts.URL, nil)
	if _, err := c.Search(ds.Repo.Elements(0), 0); err != nil {
		t.Fatalf("search after panic: %v", err)
	}
	if info := getInfo(t, ts); info.Resilience.PanicsTotal != 1 {
		t.Fatalf("panics_total = %d, want 1", info.Resilience.PanicsTotal)
	}
}

func TestLoadSheddingAnswers429WithRetryAfter(t *testing.T) {
	ds := datagen.GenerateDefault(datagen.Twitter, 0.02)
	cfg := Config{SearchWorkers: 1, MaxQueueDepth: 1}
	srv := NewRegistry(registryFor(t, ds, testOpts, nil), cfg)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Saturate deterministically: occupy the single worker slot and fill
	// the tenant's admission queue to its bound, exactly the state a slow
	// query plus a burst of arrivals produces.
	srv.pool.sem <- struct{}{}
	fake := make([]*waiter, cfg.MaxQueueDepth)
	srv.pool.mu.Lock()
	tq := srv.pool.tenantLocked(collection.DefaultName, 1)
	for i := range fake {
		fake[i] = &waiter{ready: make(chan struct{})}
		tq.q = append(tq.q, fake[i])
	}
	srv.pool.mu.Unlock()

	body := `{"query":["x"]}`
	resp, err := http.Post(ts.URL+"/v1/search", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded server answered %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("Retry-After = %q, want a positive seconds hint", ra)
	}

	// Batches are shed whole at the same gate.
	bresp, err := http.Post(ts.URL+"/v1/search/batch", "application/json", strings.NewReader(`{"queries":[["x"]]}`))
	if err != nil {
		t.Fatal(err)
	}
	bresp.Body.Close()
	if bresp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded batch answered %d, want 429", bresp.StatusCode)
	}

	// Drain the synthetic overload: service resumes and the sheds remain
	// counted in /v1/info.
	srv.pool.mu.Lock()
	kept := tq.q[:0]
	for _, w := range tq.q {
		isFake := false
		for _, f := range fake {
			if w == f {
				isFake = true
				break
			}
		}
		if !isFake {
			kept = append(kept, w)
		}
	}
	tq.q = kept
	srv.pool.mu.Unlock()
	<-srv.pool.sem
	srv.pool.dispatch()
	c := NewClient(ts.URL, nil)
	if _, err := c.Search(ds.Repo.Elements(0), 0); err != nil {
		t.Fatalf("search after overload drained: %v", err)
	}
	if info := getInfo(t, ts); info.Resilience.ShedTotal != 2 {
		t.Fatalf("shed_total = %d, want 2", info.Resilience.ShedTotal)
	}
}

func TestClientRetriesTransientFailures(t *testing.T) {
	var hits int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits++
		switch hits {
		case 1:
			w.Header().Set("Retry-After", "1")
			httpError(w, http.StatusTooManyRequests, "overloaded")
		case 2:
			httpError(w, http.StatusInternalServerError, "transient")
		default:
			writeJSON(w, http.StatusOK, SearchResponse{Results: []SearchResult{{SetName: "s"}}})
		}
	}))
	defer ts.Close()

	c := NewClient(ts.URL, nil)
	c.SetRetry(RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, MaxDelay: 10 * time.Millisecond})
	start := time.Now()
	resp, err := c.Search([]string{"x"}, 0)
	if err != nil {
		t.Fatalf("retries did not recover: %v", err)
	}
	if hits != 3 || len(resp.Results) != 1 {
		t.Fatalf("hits = %d, results = %+v", hits, resp.Results)
	}
	// The 429's Retry-After (1s) must floor the first backoff, even though
	// the policy's own delays are milliseconds.
	if elapsed := time.Since(start); elapsed < 900*time.Millisecond {
		t.Fatalf("client ignored Retry-After: recovered in %v", elapsed)
	}
}

func TestClientGivesUpAfterMaxAttempts(t *testing.T) {
	var hits int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits++
		httpError(w, http.StatusServiceUnavailable, "down")
	}))
	defer ts.Close()

	c := NewClient(ts.URL, nil)
	c.SetRetry(RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond})
	_, err := c.Search([]string{"x"}, 0)
	if err == nil || !strings.Contains(err.Error(), "HTTP 503") {
		t.Fatalf("err = %v, want terminal HTTP 503", err)
	}
	if hits != 3 {
		t.Fatalf("server saw %d attempts, want 3", hits)
	}

	// 4xx other than 429 must NOT retry — the request is wrong, not the
	// moment.
	hits = 0
	ts2 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits++
		httpError(w, http.StatusBadRequest, "bad k")
	}))
	defer ts2.Close()
	c2 := NewClient(ts2.URL, nil)
	c2.SetRetry(RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond})
	if _, err := c2.Search([]string{"x"}, 0); err == nil {
		t.Fatal("expected a 400 error")
	}
	if hits != 1 {
		t.Fatalf("client retried a 400: %d attempts", hits)
	}
}

func TestClientContextCancelsRetries(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		httpError(w, http.StatusServiceUnavailable, "down")
	}))
	defer ts.Close()

	c := NewClient(ts.URL, nil)
	c.SetRetry(RetryPolicy{MaxAttempts: 10, BaseDelay: 200 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.SearchContext(ctx, []string{"x"}, 0)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("cancelled context did not stop the retry loop promptly")
	}
}

func TestSwapperBootProtocol(t *testing.T) {
	sw := NewSwapper()
	ts := httptest.NewServer(sw)
	defer ts.Close()
	c := NewClient(ts.URL, nil)

	// Recovering: alive, not ready, everything else 503 + Retry-After.
	if !c.Healthy() {
		t.Fatal("booting server must answer /healthz")
	}
	if c.Ready() {
		t.Fatal("booting server must not be ready")
	}
	resp, err := http.Post(ts.URL+"/v1/search", "application/json", strings.NewReader(`{"query":["x"]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("boot search: status %d, Retry-After %q", resp.StatusCode, resp.Header.Get("Retry-After"))
	}

	// Recovery done: swap in the real server, readiness flips.
	ds := datagen.GenerateDefault(datagen.Twitter, 0.02)
	sw.Swap(NewRegistry(registryFor(t, ds, testOpts, nil), Config{}))
	if !c.Ready() {
		t.Fatal("swapped server must be ready")
	}
	if _, err := c.Search(ds.Repo.Elements(0), 0); err != nil {
		t.Fatalf("search after swap: %v", err)
	}
}

// TestDegradedServingScrubRepair drives the full degradation lifecycle over
// HTTP: corrupt a checkpointed segment on disk, reopen, and the server
// reports degraded + quarantined in /v1/info and /readyz while still
// answering searches from the survivors; POST /v1/repair re-persists and
// clears the flag; POST /v1/scrub verifies the rewritten files.
func TestDegradedServingScrubRepair(t *testing.T) {
	segLogf := segment.Logf
	segment.Logf = func(string, ...any) {}
	defer func() { segment.Logf = segLogf }()

	ds := datagen.GenerateDefault(datagen.Twitter, 0.02)
	all := ds.Repo.Sets()
	if len(all) < 8 {
		t.Fatalf("dataset too small: %d sets", len(all))
	}
	dir := t.TempDir()
	opts := core.Options{K: 5, Alpha: 0.8, Partitions: 2, Workers: 2, ExactScores: true}.WithDefaults()
	build := func(dict *sets.Dictionary) index.NeighborSource {
		return index.NewDynamicExact(dict, ds.Model.Vector)
	}
	scfg := segment.Config{SealThreshold: 100, MaxSegments: 99, SyncWAL: true}

	m, err := segment.Open(dir, nil, build, opts, scfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range all[:4] {
		if _, err := m.Insert(s.Name, s.Elements); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for _, s := range all[4:8] {
		if _, err := m.Insert(s.Name, s.Elements); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	man, err := store.LoadManifest(store.OS, dir)
	if err != nil || len(man.Segments) == 0 {
		t.Fatalf("manifest: err=%v segments=%d", err, len(man.Segments))
	}
	victim := man.Segments[0].File
	path := filepath.Join(dir, victim)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x20
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	reg, err := collection.OpenRegistry(dir, nil, collection.Config{Build: build, Opts: opts, SegCfg: scfg})
	if err != nil {
		t.Fatalf("reopen over corruption must degrade, not fail: %v", err)
	}
	defer reg.Close()
	ts := httptest.NewServer(NewRegistry(reg, Config{}))
	defer ts.Close()
	c := NewClient(ts.URL, nil)

	info := getInfo(t, ts)
	if !info.Resilience.Degraded || info.Resilience.QuarantinedTotal == 0 {
		t.Fatalf("resilience info = %+v, want degraded with quarantined files", info.Resilience)
	}
	if info.Resilience.Quarantined[0].File != victim {
		t.Fatalf("quarantined %q, want %q", info.Resilience.Quarantined[0].File, victim)
	}
	// Degraded is ready (it serves the survivors) and says so.
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var ready ReadyResponse
	if err := json.NewDecoder(resp.Body).Decode(&ready); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !ready.Ready || !ready.Degraded {
		t.Fatalf("readyz = %+v, want ready and degraded", ready)
	}
	// Survivors answer: the WAL rows outlived the quarantined segment.
	sr, err := c.Search(all[5].Elements, 0)
	if err != nil || len(sr.Results) == 0 || sr.Results[0].SetName != all[5].Name {
		t.Fatalf("degraded search: err=%v results=%+v", err, sr)
	}

	rr, err := c.Repair(context.Background())
	if err != nil {
		t.Fatalf("repair: %v", err)
	}
	if rr.Degraded || len(rr.Corrupt) != 0 {
		t.Fatalf("post-repair = %+v, want healthy", rr)
	}
	scr, err := c.Scrub(context.Background())
	if err != nil || len(scr.Corrupt) != 0 || scr.Degraded {
		t.Fatalf("scrub after repair: err=%v resp=%+v", err, scr)
	}
	if info := getInfo(t, ts); info.Resilience.Degraded {
		t.Fatal("repair did not clear degraded in /v1/info")
	}
}
