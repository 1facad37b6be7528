package sched

import (
	"context"
	"errors"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

// fakeTarget adapts closures to the Target interface.
type fakeTarget struct {
	score func() float64
	run   func(ctx context.Context) error
}

func (f fakeTarget) Score() float64                { return f.score() }
func (f fakeTarget) Run(ctx context.Context) error { return f.run(ctx) }

func always() float64 { return 1 }

// waitFor yields until cond holds: it waits for goroutines to make
// progress, never for time to pass — every timer in these tests is on a
// manual clock.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		runtime.Gosched()
	}
}

func newManual() *Manual { return NewManual(time.Unix(0, 0)) }

// TestWeightedShares pins the scheduler's use of the fair-share rule with
// no goroutine and no clock: tenants at weights 1:1:4, all permanently
// pending, are picked exactly 100/100/400 times in 600 rounds.
func TestWeightedShares(t *testing.T) {
	s := &Scheduler{cfg: Config{}.withDefaults(), tenants: make(map[string]*tenant)}
	noop := func(context.Context) error { return nil }
	s.Register("a", 1, fakeTarget{score: always, run: noop})
	s.Register("b", 1, fakeTarget{score: always, run: noop})
	s.Register("c", 4, fakeTarget{score: always, run: noop})
	runs := make(map[string]int)
	for i := 0; i < 600; i++ {
		tn := s.nextLocked(time.Time{}, false)
		if tn == nil {
			t.Fatalf("round %d picked no tenant with three pending", i)
		}
		runs[tn.Name]++
	}
	if runs["a"] != 100 || runs["b"] != 100 || runs["c"] != 400 {
		t.Fatalf("runs a=%d b=%d c=%d, want 100/100/400", runs["a"], runs["b"], runs["c"])
	}
}

// TestPickRule pins the rule's two other promises on Pick itself: a
// weight-4 tenant arriving behind a weight-1 flood wins the very next
// round, and a tenant with nothing left to do drops to zero credit.
func TestPickRule(t *testing.T) {
	shares := map[string]*Share{"flood": {Name: "flood", Weight: 1}}
	ready := func(sh *Share) (*Share, Standing) { return sh, Ready }
	for i := 0; i < 50; i++ {
		if got := Pick(shares, ready); got != shares["flood"] {
			t.Fatalf("round %d: lone tenant not picked", i)
		}
	}
	shares["heavy"] = &Share{Name: "heavy", Weight: 4}
	if got := Pick(shares, ready); got != shares["heavy"] {
		t.Fatalf("weight-4 arrival lost its first round to %s", got.Name)
	}
	Pick(shares, func(sh *Share) (*Share, Standing) {
		if sh.Name == "heavy" {
			return sh, Idle
		}
		return sh, Ready
	})
	if c := shares["heavy"].Credit; c != 0 {
		t.Fatalf("idle tenant kept credit %d, want 0", c)
	}
	if got := Pick(shares, func(sh *Share) (*Share, Standing) { return sh, Hold }); got != nil {
		t.Fatalf("picked %s with every tenant held", got.Name)
	}
}

// TestConcurrencyCap pins the global K: four tenants with blocking runs on
// a 2-worker scheduler never have more than two in flight, whatever the
// number of dispatch rounds.
func TestConcurrencyCap(t *testing.T) {
	clk := newManual()
	s := New(Config{Workers: 2, Clock: clk})
	defer s.Stop()
	release := make(chan struct{})
	blocked := func(ctx context.Context) error {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil
	}
	for _, name := range []string{"w", "x", "y", "z"} {
		s.Register(name, 1, fakeTarget{score: always, run: blocked})
	}
	for i := 0; i < 8; i++ {
		clk.Advance(poll) // a dispatch round on this goroutine
		s.Notify()        // and one on the loop's
		if got := s.Stats().Running; got != 2 {
			t.Fatalf("round %d: %d runs in flight, want 2", i, got)
		}
	}
	close(release)
}

// TestRetryWithBackoff pins the failure path: transient errors are retried
// (with the streak visible in Stats) until the target recovers, and the
// failure streak clears on success.
func TestRetryWithBackoff(t *testing.T) {
	clk := newManual()
	s := New(Config{Workers: 1, Clock: clk})
	defer s.Stop()
	var attempts atomic.Int64
	var done atomic.Bool
	boom := errors.New("injected: no space left on device")
	s.Register("t", 1, fakeTarget{
		score: func() float64 {
			if done.Load() {
				return 0
			}
			return 1
		},
		run: func(context.Context) error {
			if attempts.Add(1) <= 3 {
				return boom
			}
			done.Store(true)
			return nil
		},
	})
	for n := 1; n <= 3; n++ {
		waitFor(t, "a failed run", func() bool { return s.Stats().Tenants[0].Failures == n })
		clk.Advance(baseBackoff << (n - 1) * 3 / 2) // the retry's timer, not the next one
	}
	if err := s.WaitIdle(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	ten := st.Tenants[0]
	if ten.Runs != 4 || ten.Retries != 3 || st.RetriesTotal != 3 {
		t.Fatalf("runs = %d, retries = %d (total %d), want 4 and 3", ten.Runs, ten.Retries, st.RetriesTotal)
	}
	if ten.Failures != 0 || ten.LastError != "" {
		t.Fatalf("failure streak not cleared after success: %+v", ten)
	}
	if attempts.Load() != 4 {
		t.Fatalf("attempts = %d, want 4 (3 failures + 1 success)", attempts.Load())
	}
}

// TestBackoffOnClock pins the retry schedule on a manual clock: after the
// n-th consecutive failure no retry runs before baseBackoff·2^(n−1) (capped
// at maxBackoff) has passed, and one runs within 1.5× of it — by its own
// timer, with no Notify and ahead of the next poll. Each run fails only
// when the test releases it, so the clock stands still while it does.
func TestBackoffOnClock(t *testing.T) {
	clk := newManual()
	s := New(Config{Workers: 1, Clock: clk})
	defer s.Stop()
	release := make(chan struct{})
	s.Register("t", 1, fakeTarget{
		score: always,
		run: func(ctx context.Context) error {
			select {
			case <-release:
			case <-ctx.Done():
			}
			return errors.New("injected")
		},
	})
	for n := 1; n <= 10; n++ {
		release <- struct{}{}
		waitFor(t, "a failed run", func() bool { return s.Stats().Tenants[0].Failures == n })
		backoff := min(baseBackoff<<(n-1), maxBackoff)
		clk.Advance(backoff - time.Nanosecond)
		if st := s.Stats(); st.Running != 0 || st.Tenants[0].Runs != int64(n) {
			t.Fatalf("failure %d: retried before its %v backoff (%+v)", n, backoff, st.Tenants[0])
		}
		clk.Advance(backoff/2 + time.Nanosecond)
		if st := s.Stats(); st.Running != 1 {
			t.Fatalf("failure %d: no retry within 1.5 × %v", n, backoff)
		}
	}
}

// TestWaitIdle: WaitIdle returns once the backlog is run, and a tenant
// backing off is not idle.
func TestWaitIdle(t *testing.T) {
	s := New(Config{Workers: 1, Clock: newManual()})
	defer s.Stop()
	var ok, failing atomic.Bool
	ok.Store(true)
	s.Register("t", 1, fakeTarget{
		score: func() float64 {
			if ok.Load() || failing.Load() {
				return 1
			}
			return 0
		},
		run: func(context.Context) error {
			if failing.Load() {
				return errors.New("injected")
			}
			ok.Store(false)
			return nil
		},
	})
	if err := s.WaitIdle(context.Background()); err != nil || ok.Load() {
		t.Fatalf("WaitIdle = %v before the backlog ran", err)
	}
	failing.Store(true)
	s.Notify()
	waitFor(t, "a failed run", func() bool { return s.Stats().Tenants[0].Failures == 1 })
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.WaitIdle(ctx); err != context.Canceled {
		t.Fatalf("WaitIdle = %v while a retry backs off, want context.Canceled", err)
	}
}

// TestManualClock pins the manual clock the other tests script time with:
// timers fire in deadline order with the clock at their deadline, and a
// timer set by a callback within the interval fires in the same Advance.
func TestManualClock(t *testing.T) {
	clk := newManual()
	t0 := clk.Now()
	var fired []time.Duration
	at := func() { fired = append(fired, clk.Now().Sub(t0)) }
	clk.AfterFunc(30*time.Millisecond, at)
	clk.AfterFunc(10*time.Millisecond, func() { at(); clk.AfterFunc(5*time.Millisecond, at) })
	clk.AfterFunc(50*time.Millisecond, at)
	clk.Advance(40 * time.Millisecond)
	want := []time.Duration{10 * time.Millisecond, 15 * time.Millisecond, 30 * time.Millisecond}
	if !slices.Equal(fired, want) {
		t.Fatalf("fired at %v, want %v", fired, want)
	}
	if got := clk.Now().Sub(t0); got != 40*time.Millisecond {
		t.Fatalf("clock at %v after Advance(40ms)", got)
	}
}

// TestLoadProbePausesExceptUrgent pins load-aware pausing: while the probe
// reports pressure, a mildly-pending tenant is deferred but one past
// UrgentScore still runs; when pressure clears, the deferred tenant runs.
func TestLoadProbePausesExceptUrgent(t *testing.T) {
	clk := newManual()
	s := New(Config{Workers: 2, UrgentScore: 5, Clock: clk})
	defer s.Stop()
	var hot atomic.Bool
	hot.Store(true)
	s.SetLoadProbe(func() bool { return hot.Load() })
	var mild, urgent atomic.Int64
	s.Register("mild", 1, fakeTarget{
		score: always,
		run:   func(context.Context) error { mild.Add(1); return nil },
	})
	s.Register("urgent", 1, fakeTarget{
		score: func() float64 { return 10 },
		run:   func(context.Context) error { urgent.Add(1); return nil },
	})
	clk.Advance(poll)
	waitFor(t, "urgent tenant runs despite pause", func() bool { return urgent.Load() > 0 })
	if !s.Stats().Paused {
		t.Fatal("Stats.Paused = false while the load probe reports pressure")
	}
	if mild.Load() != 0 {
		t.Fatalf("mild tenant ran %d times during pause, want 0", mild.Load())
	}
	hot.Store(false)
	clk.Advance(poll)
	waitFor(t, "mild tenant resumes after recovery", func() bool { return mild.Load() > 0 })
}

// TestStopWaitsForInflight pins shutdown: Stop cancels the run context,
// returns only after in-flight maintenance has finished, and lets go of
// its tenants, whose collections a pending timer would otherwise keep.
func TestStopWaitsForInflight(t *testing.T) {
	s := New(Config{Workers: 1, Clock: newManual()})
	started := make(chan struct{}, 1)
	var finished atomic.Bool
	s.Register("t", 1, fakeTarget{
		score: always,
		run: func(ctx context.Context) error {
			select {
			case started <- struct{}{}:
			default:
			}
			<-ctx.Done() // only Stop releases us
			finished.Store(true)
			return ctx.Err()
		},
	})
	<-started
	s.Stop()
	if !finished.Load() {
		t.Fatal("Stop returned while a maintenance run was still in flight")
	}
	if n := len(s.Stats().Tenants); n != 0 {
		t.Fatalf("a stopped scheduler still holds %d tenants", n)
	}
	s.Stop() // idempotent
}

// TestUnregisterWhileRunning pins teardown racing a run: the in-flight op
// finishes, the tenant is dropped, and it is never rescheduled.
func TestUnregisterWhileRunning(t *testing.T) {
	clk := newManual()
	s := New(Config{Workers: 1, Clock: clk})
	defer s.Stop()
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	var runs atomic.Int64
	s.Register("t", 1, fakeTarget{
		score: always,
		run: func(ctx context.Context) error {
			runs.Add(1)
			select {
			case started <- struct{}{}:
			default:
			}
			select {
			case <-release:
			case <-ctx.Done():
			}
			return nil
		},
	})
	<-started
	s.Unregister("t")
	close(release)
	waitFor(t, "tenant dropped from stats", func() bool { return len(s.Stats().Tenants) == 0 })
	clk.Advance(poll) // a dispatch round on this goroutine
	if st := s.Stats(); st.Running != 0 || runs.Load() != 1 {
		t.Fatalf("unregistered tenant was rescheduled: %d runs, %d running", runs.Load(), st.Running)
	}
}
