package chaos

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"syscall"
	"time"

	"repro/internal/collection"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/segment"
	"repro/internal/store"
)

// errNoSpace is the realistic transient flavor: a background op hitting a
// momentarily full disk.
var errNoSpace error = syscall.ENOSPC

// Scheduler-fault mode: the coordinated scheduler is the only thing that
// compacts or checkpoints a collection, so its retry-with-backoff loop is
// load-bearing for durability — a compaction or checkpoint that fails
// transiently (ENOSPC, a flaky write) must be retried until the backlog
// drains, and the drained state must be byte-identical to the acknowledged
// operations. schedIteration drives a registry — the collection layer's own
// maintenance policy, not a copy of it — on a manual clock that waitIdle
// moves past each retry's backoff, and injects one-shot faults that
// fire only during scheduler-driven background ops (the foreground script
// runs while the scheduler is paused and before any fault is armed). It
// asserts:
//
//   - the scheduler observed at least one failure and retried it
//     (Stats().RetriesTotal > 0),
//   - the backlog converges to zero despite the faults,
//   - the converged state and a subsequent clean reopen both match the
//     reference model exactly, with no degraded flag — transient background
//     failures must never corrupt or silently lose acknowledged writes.

// schedIteration runs one scheduler-fault injection round.
func (h *harness) schedIteration(rng *rand.Rand) error {
	dir, err := os.MkdirTemp("", "koios-chaos-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	ffs := store.NewFaultFS(nil)
	cfg := h.config(rng, ffs)
	clk := sched.NewManual(time.Unix(0, 0))
	reg, err := collection.OpenRegistry(dir, nil, collection.Config{
		Clock:  clk,
		Build:  h.builder(),
		Opts:   h.opts,
		SegCfg: cfg,
		Maintenance: collection.MaintenanceConfig{
			Workers: 1 + rng.Intn(2),
			// Every logged byte is debt, so a drained backlog is a fully
			// persisted collection.
			CheckpointWALBytes: 1,
			// No write stalls and no urgency: while the load probe below
			// pauses the scheduler, nothing it owns may run.
			SlowdownSealed:   1 << 30,
			SlowdownWALBytes: 1 << 50,
			UrgentScore:      math.Inf(1),
		},
	})
	if err != nil {
		return fmt.Errorf("clean open: %w", err)
	}
	defer reg.Close()
	s := reg.Scheduler()
	s.SetLoadProbe(func() bool { return true })
	c := reg.Default()
	m := c.Manager()

	// Foreground phase, fault-free and with the scheduler paused: only
	// inserts and deletes — maintenance is the scheduler's job. Everything
	// is acked.
	want := model.NewCollection()
	for _, p := range h.script(rng) {
		switch p.kind {
		case opInsert:
			if _, err := c.Insert(p.name, p.elems); err != nil {
				return fmt.Errorf("foreground insert: %w", err)
			}
			apply(want, p)
		case opDelete:
			if _, err := c.Delete(p.name); err != nil {
				return fmt.Errorf("foreground delete: %w", err)
			}
			apply(want, p)
		}
	}

	// Arm the faults now: every mutating op from here on is scheduler-driven,
	// so each one-shot fault lands inside a background compaction or
	// checkpoint. The first is guaranteed to fire on the very next write.
	faults := 1 + rng.Intn(2)
	for i := 0; i < faults; i++ {
		f := store.Fault{After: i * rng.Intn(3)}
		if rng.Intn(2) == 0 {
			f.Op = store.OpWrite
		} else {
			f.Op = store.OpSync
		}
		if rng.Intn(2) == 0 {
			f.Err = errNoSpace
		}
		ffs.Inject(f)
	}
	s.SetLoadProbe(nil)
	s.Notify()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := waitIdle(ctx, s, clk); err != nil {
		return fmt.Errorf("scheduler never drained the backlog (debt %+v, stats %+v): %w",
			m.MaintenanceDebt(), s.Stats(), err)
	}

	st := s.Stats()
	if ffs.Fired() == 0 {
		return fmt.Errorf("no injected fault fired during scheduled maintenance (%d ops)", ffs.Ops())
	}
	if st.RetriesTotal == 0 {
		return fmt.Errorf("faults fired (%d) but the scheduler recorded no retries: %+v", ffs.Fired(), st)
	}
	h.rep.SchedRetries += int(st.RetriesTotal)

	if hlt := m.Health(); hlt.Degraded {
		return fmt.Errorf("transient background faults left the manager degraded: %+v", hlt.Quarantined)
	}
	if stateKey(m.LiveSets()) != setsKey(want.Sets()) {
		return fmt.Errorf("state diverged from the %d acked ops after scheduled maintenance converged", want.Len())
	}
	// Close may trip a still-armed fault; recovery below must absorb that
	// exactly like a crash mid-checkpoint.
	_ = reg.Close()

	// Clean reopen: the converged state must survive restart byte-identically.
	cleanCfg := cfg
	cleanCfg.FS = nil
	m2, err := segment.Open(dir, nil, h.builder(), h.opts, cleanCfg)
	if err != nil {
		return fmt.Errorf("reopen after scheduled maintenance: %w", err)
	}
	defer m2.Close()
	if hlt := m2.Health(); hlt.Degraded {
		return fmt.Errorf("reopen after scheduled maintenance degraded: %+v", hlt.Quarantined)
	}
	if stateKey(m2.LiveSets()) != setsKey(want.Sets()) {
		return fmt.Errorf("reopen after scheduled maintenance diverged from the acked ops")
	}
	if err := h.checkSearches(rng, m2, want.Sets()); err != nil {
		return fmt.Errorf("after scheduled maintenance: %w", err)
	}
	h.rep.FullRecoveries++
	return nil
}

// waitIdle is Scheduler.WaitIdle on a manual clock: while the scheduler
// has not drained, the clock moves a backoff cap further every
// millisecond, so each failed round's retry timer fires as soon as the
// round has ended instead of after a real 50 ms–5 s wait.
func waitIdle(ctx context.Context, s *sched.Scheduler, clk *sched.Manual) error {
	done := make(chan error, 1)
	go func() { done <- s.WaitIdle(ctx) }()
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case err := <-done:
			return err
		case <-tick.C:
			clk.Advance(8 * time.Second) // past the 5 s cap and its 50% jitter
		}
	}
}
