// Package sched is the coordinated maintenance scheduler (DESIGN.md §15)
// and the serving layer's fair-share rule (Pick) and time (Clock). Each
// tenant registers a Target — "how urgent is your backlog" plus "run one
// round of maintenance" — and the scheduler runs at most Config.Workers
// rounds at once, picks the next tenant by the rule, retries a failed
// round after a capped, jittered exponential backoff (its debt keeps it
// pending: a transient ENOSPC converges once the fault clears), and defers
// rounds while the load probe reports a blown serving tail — except for
// tenants past Config.UrgentScore, whose writers are being refused.
//
// Notify is the only producer-side call and is non-blocking by contract —
// segment.Manager invokes it under its writer lock.
package sched

import (
	"context"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The retry schedule after a failed run is baseBackoff·2^(failures−1),
// capped at maxBackoff, plus up to 50% jitter drawn from a source seeded
// with jitterSeed. poll is the idle re-scan interval: the safety net that
// re-examines scores and the load probe when no Notify arrives.
const (
	baseBackoff = 50 * time.Millisecond
	maxBackoff  = 5 * time.Second
	poll        = 250 * time.Millisecond
	jitterSeed  = 1
)

// Target is one tenant's maintenance surface.
type Target interface {
	// Score reports the urgency of the tenant's outstanding maintenance;
	// 0 (or less) means nothing to do. Must be cheap — it runs on every
	// dispatch round.
	Score() float64
	// Run performs one round of maintenance (a compaction and/or a
	// checkpoint). A non-nil error is treated as transient and retried
	// with backoff; ctx is cancelled by Stop.
	Run(ctx context.Context) error
}

// Config tunes the scheduler.
type Config struct {
	// Workers bounds concurrently running maintenance ops. Default 2.
	Workers int
	// UrgentScore is the backlog score at which a tenant is dispatched
	// even while the load probe pauses maintenance. Default 16.
	UrgentScore float64
	// Clock times the poll and the retries. nil = the wall clock.
	Clock Clock
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.UrgentScore <= 0 {
		c.UrgentScore = 16
	}
	if c.Clock == nil {
		c.Clock = WallClock{}
	}
	return c
}

// tenant is the scheduler's per-tenant state, guarded by Scheduler.mu.
type tenant struct {
	Share
	target  Target
	running bool
	gone    bool // unregistered while running; drop on completion

	failures     int // consecutive
	backoffUntil time.Time
	runs         int64
	retries      int64
	lastErr      string
}

// Scheduler coordinates maintenance across registered tenants.
type Scheduler struct {
	cfg  Config
	ctx  context.Context // the runs' context; done once Stop is called
	halt context.CancelFunc

	mu      sync.Mutex
	tenants map[string]*tenant
	running int
	rng     *rand.Rand
	settled chan struct{} // closed by the next dispatch round; nil until WaitIdle asks

	probe atomic.Pointer[func() bool] // load probe; nil = never paused

	wake chan struct{}
	wg   sync.WaitGroup // loop + in-flight runs

	runsTotal    atomic.Int64
	retriesTotal atomic.Int64
	pausedNow    atomic.Bool
}

// New builds and starts a scheduler.
func New(cfg Config) *Scheduler {
	cfg = cfg.withDefaults()
	ctx, halt := context.WithCancel(context.Background())
	s := &Scheduler{
		cfg:     cfg,
		ctx:     ctx,
		halt:    halt,
		tenants: make(map[string]*tenant),
		rng:     rand.New(rand.NewSource(jitterSeed)),
		wake:    make(chan struct{}, 1),
	}
	cfg.Clock.AfterFunc(poll, s.tick)
	s.wg.Add(1)
	go s.loop()
	return s
}

// SetLoadProbe installs the pause predicate: true defers non-urgent
// maintenance. Safe to call at any time (the serving layer wires it after
// construction, once its latency telemetry exists).
func (s *Scheduler) SetLoadProbe(f func() bool) { s.probe.Store(&f) }

// Register adds (or re-weights) a tenant. Weight is clamped to ≥ 1.
func (s *Scheduler) Register(name string, weight int, t Target) {
	weight = max(weight, 1)
	s.mu.Lock()
	if old, ok := s.tenants[name]; ok {
		old.Weight, old.target, old.gone = weight, t, false
	} else {
		s.tenants[name] = &tenant{Share: Share{Name: name, Weight: weight}, target: t}
	}
	s.mu.Unlock()
	s.Notify()
}

// Unregister removes a tenant; a run already in flight finishes but is not
// rescheduled.
func (s *Scheduler) Unregister(name string) {
	s.mu.Lock()
	if t, ok := s.tenants[name]; ok {
		if t.running {
			t.gone = true // completion handler deletes it
		} else {
			delete(s.tenants, name)
		}
	}
	s.mu.Unlock()
}

// Notify wakes the dispatch loop. Non-blocking and lock-free by contract:
// it is called from under segment.Manager's writer lock on every mutation
// that grows maintenance debt.
func (s *Scheduler) Notify() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// Stop cancels the run context, waits for the loop and every in-flight
// maintenance op to finish, and leaves the scheduler inert and without
// tenants: a poll or retry timer still pending holds the scheduler, not
// the collections. Idempotent.
func (s *Scheduler) Stop() {
	s.mu.Lock() // no dispatch round starts a run after this
	s.halt()
	clear(s.tenants)
	s.mu.Unlock()
	s.wg.Wait()
}

// WaitIdle blocks until no maintenance run is in flight and no tenant has
// work (every Score ≤ 0), or until ctx ends or the scheduler stops, whose
// errors it returns. A tenant backing off after a failure is not idle:
// WaitIdle waits through its retry.
func (s *Scheduler) WaitIdle(ctx context.Context) error {
	for {
		s.mu.Lock()
		idle := s.running == 0
		for _, t := range s.tenants {
			idle = idle && (t.gone || t.target.Score() <= 0)
		}
		if s.settled == nil {
			s.settled = make(chan struct{})
		}
		settled := s.settled
		s.mu.Unlock()
		if idle {
			return nil
		}
		select {
		case <-settled:
		case <-ctx.Done():
			return ctx.Err()
		case <-s.ctx.Done():
			return s.ctx.Err()
		}
	}
}

func (s *Scheduler) loop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.ctx.Done():
			return
		case <-s.wake:
			s.kick()
		}
	}
}

// tick is the poll: a dispatch round, then the next tick until Stop.
func (s *Scheduler) tick() {
	s.kick()
	if s.ctx.Err() == nil {
		s.cfg.Clock.AfterFunc(poll, s.tick)
	}
}

// kick runs one dispatch round. Clock timers call it directly, so a
// manual clock's Advance returns with the round done.
func (s *Scheduler) kick() {
	paused := s.paused()
	s.mu.Lock()
	s.dispatchLocked(paused)
	s.mu.Unlock()
}

// paused consults the load probe, outside the scheduler's lock.
func (s *Scheduler) paused() bool {
	p := s.probe.Load()
	return p != nil && *p != nil && (*p)()
}

// dispatchLocked fills free worker slots, one round of the fair-share
// rule per slot.
func (s *Scheduler) dispatchLocked(paused bool) {
	if s.settled != nil {
		close(s.settled)
		s.settled = nil
	}
	if s.ctx.Err() != nil {
		return
	}
	s.pausedNow.Store(paused)
	now := s.cfg.Clock.Now()
	for s.running < s.cfg.Workers {
		t := s.nextLocked(now, paused)
		if t == nil {
			return
		}
		t.running = true
		s.running++
		s.wg.Add(1)
		go s.runOne(t)
	}
}

// nextLocked is one round of the rule over the tenants: a tenant running,
// backing off or deferred by the load probe holds its credit, one with no
// backlog is idle.
func (s *Scheduler) nextLocked(now time.Time, paused bool) *tenant {
	return Pick(s.tenants, func(t *tenant) (*Share, Standing) {
		if t.running || t.gone || now.Before(t.backoffUntil) {
			return &t.Share, Hold
		}
		switch score := t.target.Score(); {
		case score <= 0:
			return &t.Share, Idle
		case paused && score < s.cfg.UrgentScore:
			return &t.Share, Hold
		}
		return &t.Share, Ready
	})
}

// runOne executes one maintenance round and records the outcome: success
// clears the failure streak; an error arms a capped-exponential, jittered
// retry on the clock. The tenant is never abandoned — its debt keeps it
// pending past the backoff. The outcome and the dispatch round after it
// happen under one lock, so Stats never shows an outcome without its
// consequences.
func (s *Scheduler) runOne(t *tenant) {
	defer s.wg.Done()
	err := t.target.Run(s.ctx)
	paused := s.paused()
	s.mu.Lock()
	defer s.mu.Unlock()
	t.running = false
	s.running--
	t.runs++
	s.runsTotal.Add(1)
	if t.gone {
		delete(s.tenants, t.Name)
	}
	if err != nil {
		t.failures++
		t.retries++
		t.lastErr = err.Error()
		backoff := min(baseBackoff<<min(t.failures-1, 7), maxBackoff) // 50 ms·2^7 > 5 s
		backoff += time.Duration(s.rng.Int63n(int64(backoff)/2 + 1))
		t.backoffUntil = s.cfg.Clock.Now().Add(backoff)
		s.cfg.Clock.AfterFunc(backoff, s.kick)
		s.retriesTotal.Add(1)
	} else {
		t.failures = 0
		t.lastErr = ""
	}
	s.dispatchLocked(paused)
}

// TenantStats is one tenant's row in Stats.
type TenantStats struct {
	Name    string  `json:"name"`
	Weight  int     `json:"weight"`
	Score   float64 `json:"score"`
	Running bool    `json:"running"`
	Runs    int64   `json:"runs"`
	// Retries counts failed runs (each one was retried after backoff);
	// Failures is the current consecutive-failure streak, 0 when healthy.
	Retries   int64  `json:"retries"`
	Failures  int    `json:"failures"`
	LastError string `json:"last_error,omitempty"`
}

// Stats is the scheduler section of /v1/info.
type Stats struct {
	Workers      int           `json:"workers"`
	Running      int           `json:"running"`
	Paused       bool          `json:"paused"`
	RunsTotal    int64         `json:"runs_total"`
	RetriesTotal int64         `json:"retries_total"`
	Tenants      []TenantStats `json:"tenants,omitempty"`
}

// Stats snapshots the scheduler state, tenants sorted by name.
func (s *Scheduler) Stats() Stats {
	st := Stats{
		Workers:      s.cfg.Workers,
		Paused:       s.pausedNow.Load(),
		RunsTotal:    s.runsTotal.Load(),
		RetriesTotal: s.retriesTotal.Load(),
	}
	s.mu.Lock()
	st.Running = s.running
	for _, t := range s.tenants {
		st.Tenants = append(st.Tenants, TenantStats{
			Name:      t.Name,
			Weight:    t.Weight,
			Score:     t.target.Score(),
			Running:   t.running,
			Runs:      t.runs,
			Retries:   t.retries,
			Failures:  t.failures,
			LastError: t.lastErr,
		})
	}
	s.mu.Unlock()
	slices.SortFunc(st.Tenants, func(a, b TenantStats) int { return strings.Compare(a.Name, b.Name) })
	return st
}
