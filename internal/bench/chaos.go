package bench

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/chaos"
	"repro/internal/collection"
	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/segment"
	"repro/internal/server"
	"repro/internal/store"
)

// Chaos runs the resilience harness (DESIGN.md §11) as a bench experiment:
// first the storage-level fault/corruption sweep — every iteration either
// recovers byte-identically or degrades visibly, and any silent divergence
// fails the experiment — then a serving smoke that drives the degraded →
// repair lifecycle and the overload counters over real HTTP. This is the
// CI chaos gate's entry point: it exits nonzero on any divergence and
// prints "divergence: none" only after a clean sweep.
func (r *Runner) Chaos() error {
	iters := r.cfg.ChaosIters
	if iters <= 0 {
		iters = 100
	}
	seed := r.cfg.ChaosSeed
	if seed == 0 {
		seed = 1
	}
	r.printf("\n== chaos (fault injection + corruption quarantine) ==  (iters=%d, seed=%d)\n", iters, seed)
	rep, err := chaos.Run(chaos.Config{Iters: iters, Seed: seed, Out: r.out})
	if err != nil {
		return fmt.Errorf("bench: chaos divergence: %w", err)
	}
	r.printf("crashes=%d corruptions=%d sched_rounds=%d sched_retries=%d full_recoveries=%d degraded_recoveries=%d quarantined_files=%d repairs=%d\n",
		rep.Crashes, rep.Corruptions, rep.SchedRounds, rep.SchedRetries, rep.FullRecoveries, rep.DegradedRecoveries, rep.QuarantinedFiles, rep.Repairs)
	r.printf("divergence: none\n")

	if err := r.chaosServingSmoke(); err != nil {
		return fmt.Errorf("bench: serving smoke: %w", err)
	}
	return nil
}

// chaosServingSmoke checks the serving half of the failure model: a
// corrupted checkpoint file reopens degraded (visible in /v1/info and
// /readyz) while surviving rows still answer, /v1/repair clears it, and an
// overload burst sheds with 429s that the counters account for.
func (r *Runner) chaosServingSmoke() error {
	segLogf := segment.Logf
	segment.Logf = func(string, ...any) {}
	defer func() { segment.Logf = segLogf }()

	ds := datagen.GenerateDefault(datagen.Twitter, 0.02)
	all := ds.Repo.Sets()
	if len(all) < 8 {
		return fmt.Errorf("dataset too small: %d sets", len(all))
	}
	dir, err := os.MkdirTemp("", "koios-chaos-smoke-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	opts := core.Options{K: 5, Alpha: 0.8, Partitions: 2, Workers: 2, ExactScores: true}.WithDefaults()
	build := vectorSource(ds)
	scfg := segment.Config{SealThreshold: 100, MaxSegments: 99, SyncWAL: true}

	// Checkpoint half the rows into a segment file, keep the rest in the
	// WAL, then flip a bit in the segment: the reopened manager must serve
	// the WAL half degraded.
	m, err := segment.Open(dir, nil, build, opts, scfg)
	if err != nil {
		return err
	}
	for _, s := range all[:4] {
		if _, err := m.Insert(s.Name, s.Elements); err != nil {
			return err
		}
	}
	if err := m.Checkpoint(); err != nil {
		return err
	}
	for _, s := range all[4:8] {
		if _, err := m.Insert(s.Name, s.Elements); err != nil {
			return err
		}
	}
	if err := m.Close(); err != nil {
		return err
	}
	man, err := store.LoadManifest(store.OS, dir)
	if err != nil {
		return err
	}
	if len(man.Segments) == 0 {
		return fmt.Errorf("no checkpointed segment to corrupt")
	}
	path := filepath.Join(dir, man.Segments[0].File)
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	raw[len(raw)/2] ^= 0x10
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		return err
	}

	reg, err := collection.OpenRegistry(dir, nil, collection.Config{Build: build, Opts: opts, SegCfg: scfg})
	if err != nil {
		return fmt.Errorf("reopen over corruption must degrade, not fail: %w", err)
	}
	defer reg.Close()

	scfgSrv := server.Config{SearchWorkers: 1, MaxQueueDepth: 1}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: server.NewRegistry(reg, scfgSrv)}
	go hs.Serve(ln)
	defer hs.Close()
	c := server.NewClient("http://"+ln.Addr().String(), nil)

	info, err := c.Info()
	if err != nil {
		return err
	}
	if !info.Resilience.Degraded || info.Resilience.QuarantinedTotal == 0 {
		return fmt.Errorf("reopened server not degraded: %+v", info.Resilience)
	}
	if sr, err := c.Search(all[5].Elements, 0); err != nil || len(sr.Results) == 0 {
		return fmt.Errorf("degraded search: err=%v", err)
	}
	r.printf("serving smoke: degraded=true quarantined=%d, survivors answering\n", info.Resilience.QuarantinedTotal)

	if rr, err := c.Repair(context.Background()); err != nil || rr.Degraded {
		return fmt.Errorf("repair: err=%v resp=%+v", err, rr)
	}
	if scr, err := c.Scrub(context.Background()); err != nil || len(scr.Corrupt) != 0 {
		return fmt.Errorf("scrub after repair: err=%v resp=%+v", err, scr)
	}
	r.printf("serving smoke: repair cleared degraded mode, scrub clean\n")

	// Overload burst: one worker, queue depth one, no client retries —
	// concurrent arrivals must shed. Repeat rounds until a shed lands (the
	// race between arrivals is real concurrency, not a fixed script).
	burst := server.NewClient("http://"+ln.Addr().String(), nil)
	burst.SetRetry(server.RetryPolicy{MaxAttempts: 1})
	q := all[2].Elements
	for round := 0; round < 200; round++ {
		var wg sync.WaitGroup
		for i := 0; i < 16; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				burst.Search(q, 0) // 429s expected; errors are the point
			}()
		}
		wg.Wait()
		if info, err = c.Info(); err != nil {
			return err
		}
		if info.Resilience.ShedTotal > 0 {
			break
		}
	}
	if info.Resilience.ShedTotal == 0 {
		return fmt.Errorf("overload burst never shed (shed_total=0)")
	}
	if info.Resilience.PanicsTotal != 0 {
		return fmt.Errorf("panics_total = %d during smoke", info.Resilience.PanicsTotal)
	}
	r.printf("serving smoke: shed_total=%d panics_total=0\n", info.Resilience.ShedTotal)
	r.printf("serving smoke: ok\n")
	return nil
}
