package server

import (
	"testing"
	"time"
)

// retryAfterSecs feeds the Retry-After header on shed responses; ISSUE 10
// satellite: it must never answer 0 — in particular when the latency window
// is empty (cold server, first burst), where the old inline arithmetic
// computed 0 and clients treated it as "retry immediately", re-ramming an
// already-overloaded server.
func TestRetryAfterSecs(t *testing.T) {
	cases := []struct {
		name    string
		queued  int64
		workers int64
		p50     time.Duration
		want    int64
	}{
		{"empty latency window", 0, 4, 0, 1},
		{"zero workers guarded", 10, 0, 0, 1},
		{"shallow backlog rounds up to 1s", 2, 4, 10 * time.Millisecond, 1},
		{"backlog scales the hint", 100, 2, 200 * time.Millisecond, 11},
		{"deep backlog clamps at 30s", 100000, 1, time.Second, 30},
	}
	for _, tc := range cases {
		if got := retryAfterSecs(tc.queued, tc.workers, tc.p50); got != tc.want {
			t.Errorf("%s: retryAfterSecs(%d, %d, %v) = %d, want %d",
				tc.name, tc.queued, tc.workers, tc.p50, got, tc.want)
		}
		if got := retryAfterSecs(tc.queued, tc.workers, tc.p50); got < 1 {
			t.Errorf("%s: Retry-After below 1s", tc.name)
		}
	}
}

// TestRetrySecsRounding pins the one Retry-After rounding every refusal
// shares: up to whole seconds, at least 1.
func TestRetrySecsRounding(t *testing.T) {
	for _, tc := range []struct {
		d    time.Duration
		want int64
	}{
		{0, 1},
		{300 * time.Millisecond, 1},
		{time.Second, 1},
		{1500 * time.Millisecond, 2},
		{2 * time.Second, 2},
	} {
		if got := retrySecs(tc.d); got != tc.want {
			t.Errorf("retrySecs(%v) = %d, want %d", tc.d, got, tc.want)
		}
	}
}
