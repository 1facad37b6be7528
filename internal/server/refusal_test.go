package server

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"repro/internal/collection"
	"repro/internal/datagen"
	"repro/internal/index"
	"repro/internal/sched"
	"repro/internal/segment"
	"repro/internal/sets"
)

// refusalCounters flattens every refusal counter /v1/info reports — the
// pool's and each collection's — keyed by where it lives.
func refusalCounters(info InfoResponse) map[string]int64 {
	m := map[string]int64{
		"resilience.shed_total":     info.Resilience.ShedTotal,
		"throughput.timeouts_total": info.Throughput.TimeoutsTotal,
	}
	for _, c := range info.Collections {
		k := c.Counters
		for name, v := range map[string]int64{
			"quota_rejected_total": k.QuotaRejectedTotal,
			"rate_limited_total":   k.RateLimitedTotal,
			"shed_total":           k.ShedTotal,
			"slowed_total":         k.SlowedTotal,
			"stalled_total":        k.StalledTotal,
		} {
			m[c.Name+"."+name] = v
		}
	}
	return m
}

// TestEveryRefusalOverHTTP drives each gate to its refusal through the
// real handler, one row per gate: the status, the code, a Retry-After of
// at least one second wherever waiting can help, and exactly one refusal
// counter moved, by the request's n. The 504 of a query timeout is a
// failure rather than a refusal (no code, no Retry-After), and the boot
// handler keeps no counters.
func TestEveryRefusalOverHTTP(t *testing.T) {
	ds := datagen.GenerateDefault(datagen.Twitter, 0.02)
	search := `{"query":["x"]}`
	rows := []struct {
		name string
		cfg  Config
		// setup brings the gate to its edge; url is the server's base URL.
		setup      func(t *testing.T, srv *Server, url string)
		path, body string // the refused request
		status     int
		code       string
		retry      bool   // a Retry-After ≥ 1 is due
		counter    string // the one refusal counter that moves ("" = none)
		n          int64
	}{
		{
			name:  "tenant queue depth 0",
			setup: func(t *testing.T, srv *Server, _ string) { srv.pool.maxQueue = 0 },
			path:  "/v1/search", body: search,
			status: http.StatusTooManyRequests, code: "overloaded", retry: true,
			counter: "resilience.shed_total", n: 1,
		},
		{
			name: "latency p99",
			cfg:  Config{ShedLatencyP99: 10 * time.Millisecond},
			setup: func(t *testing.T, srv *Server, _ string) {
				for i := range srv.pool.lat {
					srv.pool.lat[i].Store(int64(50 * time.Millisecond))
				}
				srv.pool.pos.Store(latRingSize)
				srv.pool.queued.Add(1)
			},
			path: "/v1/search", body: search,
			status: http.StatusTooManyRequests, code: "overloaded", retry: true,
			counter: "resilience.shed_total", n: 1,
		},
		{
			name: "rate limit",
			setup: func(t *testing.T, srv *Server, url string) {
				mustPost(t, url+"/v1/collections", `{"name":"slow","quota":{"rate_per_sec":1,"burst":1}}`, http.StatusCreated)
				mustPost(t, url+"/v1/collections/slow/search", search, http.StatusOK)
			},
			path: "/v1/collections/slow/search", body: search,
			status: http.StatusTooManyRequests, code: "rate_limited", retry: true,
			counter: "slow.rate_limited_total", n: 1,
		},
		{
			name: "in-flight cap",
			setup: func(t *testing.T, srv *Server, url string) {
				mustPost(t, url+"/v1/collections", `{"name":"narrow","quota":{"max_in_flight":1}}`, http.StatusCreated)
			},
			path: "/v1/collections/narrow/search/batch", body: `{"queries":[["x"],["y"]]}`,
			status: http.StatusTooManyRequests, code: "tenant_busy", retry: true,
			counter: "narrow.shed_total", n: 2,
		},
		{
			name: "sets quota",
			setup: func(t *testing.T, srv *Server, url string) {
				mustPost(t, url+"/v1/collections", `{"name":"small","quota":{"max_sets":1}}`, http.StatusCreated)
				mustPost(t, url+"/v1/collections/small/sets", `{"name":"a","elements":["x"]}`, http.StatusCreated)
			},
			path: "/v1/collections/small/sets", body: `{"name":"b","elements":["y"]}`,
			status: http.StatusRequestEntityTooLarge, code: "quota_exceeded",
			counter: "small.quota_rejected_total", n: 1,
		},
		{
			// SealThreshold 1 seals every insert and the stopped scheduler
			// never drains the debt: two inserts reach StallSealed.
			name: "maintenance stall",
			setup: func(t *testing.T, srv *Server, url string) {
				srv.reg.Scheduler().Stop()
				mustPost(t, url+"/v1/collections", `{"name":"w"}`, http.StatusCreated)
				for _, name := range []string{"a", "b"} {
					mustPost(t, url+"/v1/collections/w/sets", `{"name":"`+name+`","elements":["x"]}`, http.StatusCreated)
				}
			},
			path: "/v1/collections/w/sets", body: `{"name":"c","elements":["x"]}`,
			status: http.StatusServiceUnavailable, code: "maintenance_backlog", retry: true,
			counter: "w.stalled_total", n: 1,
		},
		{
			// The only worker is busy, so the search times out in the queue.
			name:  "query timeout",
			cfg:   Config{SearchWorkers: 1, QueryTimeout: 20 * time.Millisecond},
			setup: func(t *testing.T, srv *Server, _ string) { srv.pool.sem <- struct{}{} },
			path:  "/v1/search", body: search,
			status:  http.StatusGatewayTimeout,
			counter: "throughput.timeouts_total", n: 1,
		},
		{
			name: "boot",
			path: "/v1/search", body: search,
			status: http.StatusServiceUnavailable, code: "recovering", retry: true,
		},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			var srv *Server
			var handler http.Handler = BootHandler()
			if row.name != "boot" {
				reg := collection.NewRegistry(ds.Repo.Sets(), collection.Config{
					Build: func(dict *sets.Dictionary) index.NeighborSource {
						return index.NewDynamicExact(dict, ds.Model.Vector)
					},
					Opts:        testOpts,
					SegCfg:      segment.Config{SealThreshold: 1, MaxSegments: 1},
					Maintenance: collection.MaintenanceConfig{SlowdownSealed: 1, StallSealed: 2},
					Clock:       sched.NewManual(time.Unix(0, 0)),
				})
				t.Cleanup(func() { reg.Close() })
				srv = NewRegistry(reg, row.cfg)
				handler = srv
			}
			ts := httptest.NewServer(handler)
			t.Cleanup(ts.Close)
			if row.setup != nil {
				row.setup(t, srv, ts.URL)
			}
			var before map[string]int64
			if srv != nil {
				before = refusalCounters(getInfo(t, ts))
			}

			code, hdr, m := postJSON(t, ts.URL+row.path, row.body)
			if got, _ := m["code"].(string); code != row.status || got != row.code {
				t.Fatalf("answered %d %v, want %d code %q", code, m, row.status, row.code)
			}
			ra := hdr.Get("Retry-After")
			if secs, err := strconv.Atoi(ra); row.retry && (err != nil || secs < 1) {
				t.Fatalf("Retry-After %q, want whole seconds ≥ 1", ra)
			}
			if !row.retry && ra != "" {
				t.Fatalf("Retry-After %q on a refusal waiting cannot cure", ra)
			}
			if srv == nil {
				return
			}
			moved := make(map[string]int64)
			for k, v := range refusalCounters(getInfo(t, ts)) {
				if d := v - before[k]; d != 0 {
					moved[k] = d
				}
			}
			if len(moved) != 1 || moved[row.counter] != row.n {
				t.Fatalf("refusal counters moved %v, want only %s by %d", moved, row.counter, row.n)
			}
		})
	}
}

// mustPost issues one POST and fails the test unless it answers want.
func mustPost(t *testing.T, url, body string, want int) {
	t.Helper()
	if code, _, m := postJSON(t, url, body); code != want {
		t.Fatalf("POST %s = %d %v, want %d", url, code, m, want)
	}
}
