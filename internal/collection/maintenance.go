package collection

import (
	"context"
	"time"

	"repro/internal/segment"
)

// MaintenanceConfig is the registry-wide maintenance policy (DESIGN.md
// §15): when the coordinated scheduler runs a tenant's compactions and
// checkpoints, and at what backlog the write path degrades. Every registry
// runs the scheduler (managers never maintain themselves), so the zero
// value is a working policy: sched.Config's default worker count, a
// compaction once more than segment.Config.MaxSegments segments are sealed,
// and the bounds below at their defaults.
type MaintenanceConfig struct {
	// Workers is the global cap on concurrently running background ops
	// across ALL collections (the scheduler's K). 0 = sched.Config's
	// default.
	Workers int

	// CheckpointWALBytes is the un-checkpointed WAL volume at which a
	// maintenance round checkpoints. Checkpoints seal the memtable, so this
	// must be coarse enough not to shatter the store into one-set segments.
	// Default 1 MiB.
	CheckpointWALBytes int64

	// Slowdown/Stall thresholds: RocksDB-style graceful write degradation.
	// At the slowdown bound Insert starts refusing a growing fraction of
	// writes with a typed 503 (never by sleeping — a queued-but-slow write
	// is invisible latency, a 503 with Retry-After is an honest signal the
	// client can act on); at the stall bound every insert is refused until
	// maintenance drains the backlog. Defaults: slowdown at 4× / stall at
	// 8× segment.Config.MaxSegments, and 8× / 16× CheckpointWALBytes.
	SlowdownSealed   int
	StallSealed      int
	SlowdownWALBytes int64
	StallWALBytes    int64

	// UrgentScore is the backlog score at which a tenant runs even while
	// the load probe pauses maintenance (sched.Config.UrgentScore).
	// Default 16.
	UrgentScore float64

	// maxSegments is the compaction bound, segment.Config.MaxSegments with
	// its default applied.
	maxSegments int
}

// withDefaults resolves the policy against the registry's segment config.
func (mc MaintenanceConfig) withDefaults(segCfg segment.Config) MaintenanceConfig {
	mc.maxSegments = segCfg.WithDefaults().MaxSegments
	if mc.CheckpointWALBytes <= 0 {
		mc.CheckpointWALBytes = 1 << 20
	}
	if mc.SlowdownSealed <= 0 {
		mc.SlowdownSealed = 4 * mc.maxSegments
	}
	if mc.StallSealed <= 0 {
		mc.StallSealed = 8 * mc.maxSegments
	}
	if mc.StallSealed <= mc.SlowdownSealed {
		mc.StallSealed = mc.SlowdownSealed + 1
	}
	if mc.SlowdownWALBytes <= 0 {
		mc.SlowdownWALBytes = 8 * mc.CheckpointWALBytes
	}
	if mc.StallWALBytes <= 0 {
		mc.StallWALBytes = 16 * mc.CheckpointWALBytes
	}
	if mc.StallWALBytes <= mc.SlowdownWALBytes {
		mc.StallWALBytes = mc.SlowdownWALBytes + 1
	}
	if mc.UrgentScore <= 0 {
		mc.UrgentScore = 16
	}
	return mc
}

// maintTarget adapts one collection to sched.Target: Score measures the
// backlog against the policy, Run drains one round of it.
type maintTarget struct {
	col *Collection
	cfg MaintenanceConfig
}

// Score is the urgency of the collection's backlog: zero below the policy
// thresholds, growing with excess sealed segments and WAL volume, and
// boosted past UrgentScore the moment writers are being slowed — a tenant
// whose inserts are degrading must be drained even while the load probe
// pauses leisure maintenance, or a latency wobble turns into a write
// outage.
func (t *maintTarget) Score() float64 {
	d := t.col.mgr.MaintenanceDebt()
	var s float64
	if d.SealedSegments > t.cfg.maxSegments {
		s += float64(d.SealedSegments - t.cfg.maxSegments)
	}
	if d.WALBytes >= t.cfg.CheckpointWALBytes {
		s += float64(d.WALBytes) / float64(t.cfg.CheckpointWALBytes)
	}
	if d.SealedSegments >= t.cfg.SlowdownSealed || d.WALBytes >= t.cfg.SlowdownWALBytes {
		s += t.cfg.UrgentScore
	}
	// Sealed-but-unpersisted segments are actionable debt too (Run's
	// checkpoint case drains them): a checkpoint that failed halfway must
	// keep a positive score, or the retry the scheduler owes it would never
	// be dispatched — Score and Run must agree on what counts as work.
	if d.UnpersistedSegments > 0 {
		s++
	}
	return s
}

// Run performs one maintenance round: a compaction when sealed segments
// passed MaxSegments (Compact also checkpoints on durable managers,
// clearing WAL debt in the same round), else a checkpoint for WAL volume.
// Errors propagate to the scheduler's retry-with-backoff path; the debt
// that triggered the round survives the failure, so the retry has the
// same work to do.
func (t *maintTarget) Run(_ context.Context) error {
	d := t.col.mgr.MaintenanceDebt()
	switch {
	// The slowdown bounds are actionable on their own: even under a policy
	// where they sit below the compact/checkpoint bounds, a positive Score
	// must always have work behind it or the scheduler would spin.
	case d.SealedSegments > t.cfg.maxSegments || d.SealedSegments >= t.cfg.SlowdownSealed:
		return t.col.mgr.Compact()
	case d.WALBytes >= t.cfg.CheckpointWALBytes || d.WALBytes >= t.cfg.SlowdownWALBytes || d.UnpersistedSegments > 0:
		return t.col.mgr.Checkpoint()
	}
	return nil
}

// admitWrite applies the slowdown→stall policy to one insert. Callers hold
// writeMu, which makes the slowdown credit a plain field and the decision
// deterministic: in the slowdown band each write earns admitRatio credit
// and runs when a full unit has accrued, so exactly that fraction of the
// write stream is admitted — no randomness, no sleeping. The ratio falls
// linearly from 1 at the slowdown bound to a 0.1 floor at the stall bound,
// then everything is refused until maintenance drains the debt.
func (c *Collection) admitWrite() *Refusal {
	mc := c.maint
	d := c.mgr.MaintenanceDebt()
	if d.SealedSegments >= mc.StallSealed || d.WALBytes >= mc.StallWALBytes {
		c.stalls.Add(1)
		return &Refusal{Code: CodeMaintenanceBacklog, Collection: c.name, Stalled: true, Debt: d, RetryAfter: 2 * time.Second}
	}
	ratio := 1.0
	if f := band(d.SealedSegments, mc.SlowdownSealed, mc.StallSealed); f < ratio {
		ratio = f
	}
	if f := band(d.WALBytes, mc.SlowdownWALBytes, mc.StallWALBytes); f < ratio {
		ratio = f
	}
	if ratio >= 1 {
		return nil
	}
	c.slowCredit += ratio
	if c.slowCredit >= 1 {
		c.slowCredit--
		return nil
	}
	c.slowed.Add(1)
	return &Refusal{Code: CodeMaintenanceBacklog, Collection: c.name, Debt: d, RetryAfter: time.Second}
}

// band maps a debt measure to an admission ratio: 1 below the slowdown
// bound, falling linearly to a 0.1 floor as it approaches stall.
func band[T int | int64](v, slow, stall T) float64 {
	if v < slow {
		return 1
	}
	frac := float64(v-slow) / float64(stall-slow) // in [0, 1)
	r := 1 - 0.9*frac
	if r < 0.1 {
		r = 0.1
	}
	return r
}
