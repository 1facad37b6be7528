package sched

import (
	"slices"
	"sync"
	"time"
)

// Clock is the serving layer's one source of time: the scheduler's poll
// and retry timers and the rate limiters' refills read it. WallClock is
// the default; tests pass a Manual clock and move time themselves.
type Clock interface {
	Now() time.Time
	AfterFunc(d time.Duration, f func()) // calls f once d has passed
}

// WallClock is the real clock.
type WallClock struct{}

func (WallClock) Now() time.Time                      { return time.Now() }
func (WallClock) AfterFunc(d time.Duration, f func()) { time.AfterFunc(d, f) }

// Manual is a Clock that moves only when Advance is called: a test scripts
// time instead of sleeping through it.
type Manual struct {
	mu     sync.Mutex
	now    time.Time
	timers []manualTimer
}

type manualTimer struct {
	when time.Time
	f    func()
}

// NewManual returns a manual clock that reads start.
func NewManual(start time.Time) *Manual { return &Manual{now: start} }

func (m *Manual) Now() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.now
}

func (m *Manual) AfterFunc(d time.Duration, f func()) {
	m.mu.Lock()
	m.timers = append(m.timers, manualTimer{m.now.Add(d), f})
	m.mu.Unlock()
}

// Advance moves the clock d forward. Each timer due by then fires on the
// calling goroutine with the clock at its deadline, earliest first —
// timers its callbacks set within the interval included.
func (m *Manual) Advance(d time.Duration) {
	m.mu.Lock()
	end := m.now.Add(d)
	for len(m.timers) > 0 {
		slices.SortStableFunc(m.timers, func(a, b manualTimer) int { return a.when.Compare(b.when) })
		t := m.timers[0]
		if t.when.After(end) {
			break
		}
		m.timers = m.timers[1:]
		if t.when.After(m.now) {
			m.now = t.when
		}
		m.mu.Unlock()
		t.f()
		m.mu.Lock()
	}
	m.now = end
	m.mu.Unlock()
}
