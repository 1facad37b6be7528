package server

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/index"
	"repro/internal/segment"
	"repro/internal/sets"
)

// TestConcurrentServingUnderMutation races parallel /v1/search and
// /v1/search/batch requests against a writer doing Insert/Delete/Compact —
// the race job's -race run proves the serving stack (worker pool, published
// vector view, snapshot views) is data-race free under full mutation load.
// While the writer runs, every response must be well-formed (exact scores,
// descending order); after the writer quiesces, single-query, batch, and
// direct serial engine execution must return identical results.
func TestConcurrentServingUnderMutation(t *testing.T) {
	ds := datagen.GenerateDefault(datagen.Twitter, 0.02)
	all := ds.Repo.Sets()
	nSeed := len(all) * 3 / 4
	reg := collection.NewRegistry(all[:nSeed], collection.Config{
		Build: func(dict *sets.Dictionary) index.NeighborSource {
			return index.NewDynamicExact(dict, ds.Model.Vector)
		},
		Opts:   testOpts,
		SegCfg: segment.Config{SealThreshold: 16, MaxSegments: 2},
	})
	defer reg.Close()
	mgr := reg.Default().Manager()
	ts := httptest.NewServer(NewRegistry(reg, Config{SearchWorkers: 4}))
	defer ts.Close()
	c := NewClient(ts.URL, nil)

	queries := make([][]string, 6)
	for i := range queries {
		queries[i] = all[(i*3)%nSeed].Elements
	}

	checkResponse := func(resp *SearchResponse) error {
		for i, r := range resp.Results {
			if !r.Verified {
				return fmt.Errorf("rank %d not verified (server promises exact scores)", i)
			}
			if i > 0 && r.Score > resp.Results[i-1].Score {
				return fmt.Errorf("results not in descending order at rank %d", i)
			}
		}
		return nil
	}

	var stop atomic.Bool
	errCh := make(chan error, 16)
	var wg sync.WaitGroup

	// 4 single-query readers + 2 batch readers.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				resp, err := c.Search(queries[(g+i)%len(queries)], 0)
				if err != nil {
					errCh <- fmt.Errorf("search: %w", err)
					return
				}
				if err := checkResponse(resp); err != nil {
					errCh <- err
					return
				}
			}
		}(g)
	}
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				resp, err := c.SearchBatch(queries, 0)
				if err != nil {
					errCh <- fmt.Errorf("batch: %w", err)
					return
				}
				if len(resp.Results) != len(queries) {
					errCh <- fmt.Errorf("batch returned %d responses for %d queries", len(resp.Results), len(queries))
					return
				}
				for i := range resp.Results {
					if resp.Results[i].Error != "" {
						errCh <- fmt.Errorf("batch entry %d errored: %s", i, resp.Results[i].Error)
						return
					}
					if err := checkResponse(&resp.Results[i].SearchResponse); err != nil {
						errCh <- err
						return
					}
				}
			}
		}()
	}

	// Writer: inserts from the held-out tail, deletes, replacements, and
	// explicit compactions, racing all readers.
	for _, s := range all[nSeed:] {
		if _, err := mgr.Insert(s.Name, s.Elements); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if _, err := mgr.Delete(all[i].Name); err != nil {
			t.Fatal(err)
		}
		if _, err := mgr.Insert(all[i].Name, all[i].Elements); err != nil {
			t.Fatal(err)
		}
		if i%4 == 0 {
			if err := mgr.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	// Quiesced: HTTP single, HTTP batch, and direct serial execution must
	// agree byte for byte.
	serial := make([][]segment.Result, len(queries))
	for i, q := range queries {
		res, _, err := mgr.Search(t.Context(), q, 0)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = res
	}
	batch, err := c.SearchBatch(queries, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		single, err := c.Search(q, 0)
		if err != nil {
			t.Fatal(err)
		}
		wantJSON, _ := json.Marshal(buildSearchResponse(serial[i], &core.Stats{}).Results)
		gotSingle, _ := json.Marshal(single.Results)
		gotBatch, _ := json.Marshal(batch.Results[i].Results)
		if !reflect.DeepEqual(gotSingle, wantJSON) {
			t.Fatalf("query %d: HTTP single diverged from serial engine:\n%s\nvs\n%s", i, gotSingle, wantJSON)
		}
		if !reflect.DeepEqual(gotBatch, wantJSON) {
			t.Fatalf("query %d: HTTP batch diverged from serial engine:\n%s\nvs\n%s", i, gotBatch, wantJSON)
		}
	}
}

// TestWorkerPoolInfoStats drives traffic through the pool and checks the
// /v1/info throughput section reports it.
func TestWorkerPoolInfoStats(t *testing.T) {
	ts, ds := testServer(t)
	c := NewClient(ts.URL, nil)
	queries := make([][]string, 4)
	for i := range queries {
		queries[i] = ds.Repo.Elements(i)
	}
	for round := 0; round < 3; round++ {
		for _, q := range queries {
			if _, err := c.Search(q, 0); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c.SearchBatch(queries, 0); err != nil {
			t.Fatal(err)
		}
	}
	info, err := c.Info()
	if err != nil {
		t.Fatal(err)
	}
	th := info.Throughput
	if th.SearchWorkers <= 0 {
		t.Fatalf("search_workers = %d, want > 0", th.SearchWorkers)
	}
	wantQueries := int64(3 * (len(queries) + len(queries))) // singles + batch entries
	if th.QueriesTotal < wantQueries {
		t.Fatalf("queries_total = %d, want >= %d", th.QueriesTotal, wantQueries)
	}
	if th.BatchesTotal != 3 {
		t.Fatalf("batches_total = %d, want 3", th.BatchesTotal)
	}
	if th.InFlight != 0 || th.QueueDepth != 0 {
		t.Fatalf("idle server reports in_flight=%d queue_depth=%d", th.InFlight, th.QueueDepth)
	}
	if th.LatencyP50US <= 0 || th.LatencyP99US < th.LatencyP50US {
		t.Fatalf("implausible latency percentiles: p50=%dus p99=%dus", th.LatencyP50US, th.LatencyP99US)
	}
}
