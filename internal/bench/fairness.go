package bench

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/index"
	"repro/internal/segment"
	"repro/internal/server"
	"repro/internal/sets"
	"repro/internal/store"
)

// Fairness is the ISSUE 10 acceptance experiment: tenant isolation under
// pressure, end to end over real HTTP. Three checked properties:
//
//  1. Query fairness — a weight-1 tenant flooding the shared search pool
//     must not destroy a weight-4 sibling's tail latency: the sibling's
//     p99 under flood stays within 2× its isolated baseline (plus a small
//     absolute epsilon for scheduler noise), because DRR drains its queue
//     at 4× the flooder's rate and the flooder's overflow is shed, never
//     queued in front of the sibling.
//  2. Write degradation — a tenant writing faster than the maintenance
//     scheduler drains surfaces as typed 503 maintenance_backlog with
//     Retry-After, and writes are admitted again once the backlog drains:
//     graceful slowdown and recovery, never silent latency.
//  3. Retry convergence — a transient failure injected into a
//     scheduler-driven background op is retried until the backlog drains,
//     and the store converges to exactly the acknowledged writes.
//
// Any violation returns an error so CI can gate on the experiment.
func (r *Runner) Fairness() error {
	r.header("Tenant fairness under pressure: DRR, write stalls, retry")
	b := r.bundleFor(datagen.Twitter)
	if err := r.fairnessQueryFlood(b); err != nil {
		return fmt.Errorf("bench: fairness: %w", err)
	}
	if err := r.fairnessWriteStall(b); err != nil {
		return fmt.Errorf("bench: fairness: %w", err)
	}
	if err := r.fairnessRetryConvergence(b); err != nil {
		return fmt.Errorf("bench: fairness: %w", err)
	}
	r.printf("  fairness: ok\n")
	return nil
}

func (r *Runner) fairnessBuild(b *bundle) segment.SourceBuilder {
	return func(dict *sets.Dictionary) index.NeighborSource {
		return index.NewDynamicExact(dict, b.ds.Model.Vector)
	}
}

func (r *Runner) fairnessOpts() core.Options {
	return core.Options{K: r.cfg.K, Alpha: r.cfg.Alpha, Partitions: 1, Workers: 1, ExactScores: true}.WithDefaults()
}

// fairnessQueryFlood measures the weighted sibling's p99 isolated, then
// under a weight-1 flood, and enforces the 2× isolation bound.
func (r *Runner) fairnessQueryFlood(b *bundle) error {
	reg := collection.NewRegistry(nil, collection.Config{
		Build: r.fairnessBuild(b), Opts: r.fairnessOpts(),
		SegCfg: segment.Config{ForegroundCompaction: true},
	})
	srv := server.NewRegistry(reg, server.Config{
		SearchWorkers: 2,
		QueryTimeout:  30 * time.Second,
		MaxQueueDepth: 4, // per-tenant: the flooder fills its own queue and sheds
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	cl := server.NewClient(ts.URL, nil)

	seed := b.ds.Repo.Sets()
	if _, err := cl.CreateCollection(context.Background(), "flood", collection.Quota{Weight: 1}); err != nil {
		return fmt.Errorf("create flood: %w", err)
	}
	if _, err := cl.CreateCollection(context.Background(), "sibling", collection.Quota{Weight: 4}); err != nil {
		return fmt.Errorf("create sibling: %w", err)
	}
	for i := 0; i < 16; i++ {
		s := seed[i%len(seed)]
		if _, err := cl.Collection("flood").Insert(fmt.Sprintf("f%d", i), s.Elements); err != nil {
			return fmt.Errorf("seed flood: %w", err)
		}
		if _, err := cl.Collection("sibling").Insert(fmt.Sprintf("s%d", i), s.Elements); err != nil {
			return fmt.Errorf("seed sibling: %w", err)
		}
	}

	const samples = 60
	sibP99 := func() (time.Duration, error) {
		lats := make([]time.Duration, 0, samples)
		for i := 0; i < samples; i++ {
			q := seed[i%16].Elements
			t0 := time.Now()
			status, _, eb, err := rawPost(ts.URL+"/v1/collections/sibling/search", server.SearchRequest{Query: q, K: r.cfg.K})
			if err != nil {
				return 0, err
			}
			if status != http.StatusOK {
				return 0, fmt.Errorf("sibling search answered %d %v — the sibling must never be shed for a flooder's load", status, eb)
			}
			lats = append(lats, time.Since(t0))
		}
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		return lats[int(0.99*float64(len(lats)-1))], nil
	}

	isolated, err := sibP99()
	if err != nil {
		return fmt.Errorf("isolated baseline: %w", err)
	}

	// Flood: 8 loops hammering the weight-1 tenant for the whole measured
	// window. Its own overflow sheds (429) — that is the backstop working.
	var stop atomic.Bool
	var floodSheds, floodOK atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for !stop.Load() {
				status, _, _, err := rawPost(ts.URL+"/v1/collections/flood/search",
					server.SearchRequest{Query: seed[g%16].Elements, K: r.cfg.K})
				if err != nil {
					return
				}
				switch status {
				case http.StatusOK:
					floodOK.Add(1)
				case http.StatusTooManyRequests:
					floodSheds.Add(1)
				}
			}
		}(g)
	}
	flooded, err := sibP99()
	stop.Store(true)
	wg.Wait()
	if err != nil {
		return fmt.Errorf("under flood: %w", err)
	}

	// The bound from the ISSUE: flooded p99 within 2× the isolated
	// baseline. The absolute epsilon absorbs timer/scheduler noise when the
	// isolated baseline is sub-millisecond.
	bound := 2*isolated + 25*time.Millisecond
	r.printf("  query flood: sibling p99 isolated=%v flooded=%v (bound %v); flooder ok=%d shed=%d\n",
		isolated, flooded, bound, floodOK.Load(), floodSheds.Load())
	if flooded > bound {
		return fmt.Errorf("sibling p99 %v under flood exceeds 2× isolated baseline %v", flooded, isolated)
	}
	return nil
}

// fairnessWriteStall floods a tenant with writes against a tight
// maintenance policy and requires the typed 503 plus post-drain recovery.
func (r *Runner) fairnessWriteStall(b *bundle) error {
	reg := collection.NewRegistry(nil, collection.Config{
		Build: r.fairnessBuild(b), Opts: r.fairnessOpts(),
		SegCfg: segment.Config{SealThreshold: 1},
		Maintenance: collection.MaintenanceConfig{
			Workers:         1,
			CompactSegments: 2,
			SlowdownSealed:  3,
			StallSealed:     6,
			Poll:            250 * time.Millisecond,
		},
	})
	defer reg.Close()
	srv := server.NewRegistry(reg, server.Config{
		SearchWorkers: 2, MaxQueueDepth: 1 << 20,
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	cl := server.NewClient(ts.URL, nil)
	if _, err := cl.CreateCollection(context.Background(), "wr", collection.Quota{}); err != nil {
		return fmt.Errorf("create wr: %w", err)
	}

	// Each set carries fresh vocabulary, so every compaction re-merges a
	// strictly larger store while the insert cost stays flat — the writer
	// must eventually outpace the drain, exactly the dynamic the slowdown
	// thresholds exist for. (Tiny uniform sets would let the scheduler win
	// the race forever and the experiment would assert nothing.)
	elemsFor := func(i int) []string {
		elems := make([]string, 120)
		for j := range elems {
			elems[j] = fmt.Sprintf("w%d-%d", i, j)
		}
		return elems
	}
	var refusals, admitted int
	var retryAfter string
	for i := 0; i < 3000 && refusals == 0; i++ {
		status, hdr, eb, err := rawPost(ts.URL+"/v1/collections/wr/sets",
			server.InsertRequest{Name: fmt.Sprintf("w%d", i), Elements: elemsFor(i)})
		if err != nil {
			return fmt.Errorf("write flood: %w", err)
		}
		switch {
		case status == http.StatusOK || status == http.StatusCreated:
			admitted++
		case status == http.StatusServiceUnavailable && eb["code"] == "maintenance_backlog":
			refusals++
			retryAfter = hdr.Get("Retry-After")
		default:
			return fmt.Errorf("write flood answered %d %v, want 2xx or typed 503", status, eb)
		}
	}
	if refusals == 0 {
		return fmt.Errorf("wrote %d sets against slowdown=3/stall=6 without one maintenance_backlog 503", admitted)
	}
	if retryAfter == "" || retryAfter == "0" {
		return fmt.Errorf("maintenance_backlog 503 without a positive Retry-After (%q)", retryAfter)
	}

	// Recovery: stop writing; the scheduler drains the backlog and inserts
	// are admitted again.
	deadline := time.Now().Add(15 * time.Second)
	for {
		status, _, eb, err := rawPost(ts.URL+"/v1/collections/wr/sets",
			server.InsertRequest{Name: "post-drain", Elements: elemsFor(0)})
		if err != nil {
			return fmt.Errorf("post-drain insert: %w", err)
		}
		if status == http.StatusOK || status == http.StatusCreated {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("writes still refused %d %v after the flood stopped — backlog never drained", status, eb)
		}
		time.Sleep(20 * time.Millisecond)
	}
	r.printf("  write stall: %d admitted, %d typed 503s (Retry-After %ss), recovered after drain\n",
		admitted, refusals, retryAfter)
	return nil
}

// fairnessRetryConvergence injects a one-shot failure into a
// scheduler-driven background op on a durable registry and requires the
// scheduler to retry it and converge to the acknowledged writes.
func (r *Runner) fairnessRetryConvergence(b *bundle) error {
	dir, err := os.MkdirTemp("", "koios-fairness-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	ffs := store.NewFaultFS(nil)
	reg, err := collection.OpenRegistry(dir, nil, collection.Config{
		Build: r.fairnessBuild(b), Opts: r.fairnessOpts(),
		SegCfg: segment.Config{SealThreshold: 1, FS: ffs},
		Maintenance: collection.MaintenanceConfig{
			Workers:         1,
			CompactSegments: 2,
			Poll:            10 * time.Millisecond,
			BaseBackoff:     5 * time.Millisecond,
			MaxBackoff:      50 * time.Millisecond,
		},
	})
	if err != nil {
		return fmt.Errorf("open durable registry: %w", err)
	}
	defer reg.Close()

	// Arm the fault before the debt exists: the next file creation is a
	// scheduler-driven checkpoint or compaction output (inserts only append
	// to the WAL), so the failure lands inside a background op.
	ffs.Inject(store.Fault{Op: store.OpCreate})

	col := reg.Default()
	seed := b.ds.Repo.Sets()
	const writes = 10
	for i := 0; i < writes; i++ {
		// A slowdown refusal here is the degradation doing its job while the
		// faulted background op is being retried — honor the Retry-After like
		// a well-behaved writer instead of failing the experiment.
		wrDeadline := time.Now().Add(15 * time.Second)
		for {
			_, err := col.Insert(fmt.Sprintf("c%d", i), seed[i%len(seed)].Elements)
			if err == nil {
				break
			}
			var mbe *collection.MaintenanceBacklogError
			if !errors.As(err, &mbe) {
				return fmt.Errorf("insert %d: %w", i, err)
			}
			if time.Now().After(wrDeadline) {
				return fmt.Errorf("insert %d refused past the deadline — the faulted background op never converged: %w", i, err)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	sc := reg.Scheduler()
	deadline := time.Now().Add(15 * time.Second)
	for {
		st := sc.Stats()
		d := col.Manager().MaintenanceDebt()
		if st.RetriesTotal >= 1 && d.SealedSegments <= 2 && d.UnpersistedSegments == 0 {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("scheduler never converged past the injected fault (debt %+v, stats %+v)", d, st)
		}
		time.Sleep(5 * time.Millisecond)
	}

	live := col.Manager().LiveSets()
	if len(live) != writes {
		return fmt.Errorf("converged store holds %d sets, want the %d acknowledged", len(live), writes)
	}
	byName := make(map[string][]string, len(live))
	for _, rec := range live {
		byName[rec.Name] = rec.Elements
	}
	for i := 0; i < writes; i++ {
		name := fmt.Sprintf("c%d", i)
		want := seed[i%len(seed)].Elements
		got, ok := byName[name]
		if !ok || len(got) != len(want) {
			return fmt.Errorf("set %s diverged after retried maintenance", name)
		}
		for j := range want {
			if got[j] != want[j] {
				return fmt.Errorf("set %s element %d diverged after retried maintenance", name, j)
			}
		}
	}
	r.printf("  retry convergence: injected background fault, %d retries, %d/%d sets byte-identical\n",
		sc.Stats().RetriesTotal, len(live), writes)
	return nil
}
