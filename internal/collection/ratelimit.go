package collection

import (
	"math"
	"sync"
	"time"
)

// tokenBucket is the per-collection search rate limiter: tokens refill
// continuously at rate per second up to burst, and each admitted search
// takes one. It is deliberately tiny — no timers, no goroutines, one
// mutex-guarded refill on each take — and it reads the registry's clock,
// so admission tests are deterministic.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64 // bucket capacity
	tokens float64
	last   time.Time
	now    func() time.Time
}

// newTokenBucket builds a bucket that starts full and refills on now.
// burst <= 0 defaults to rate rounded up, at least 1.
func newTokenBucket(rate float64, burst int, now func() time.Time) *tokenBucket {
	b := float64(burst)
	if burst <= 0 {
		b = math.Max(1, math.Ceil(rate))
	}
	return &tokenBucket{rate: rate, burst: b, tokens: b, last: now(), now: now}
}

// take attempts to consume n tokens. ok=true means they were taken;
// ok=false leaves the bucket untouched and returns how long until n
// tokens will be available — the Retry-After hint.
func (b *tokenBucket) take(n int) (wait time.Duration, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	t := b.now()
	b.tokens = math.Min(b.burst, b.tokens+t.Sub(b.last).Seconds()*b.rate)
	b.last = t
	need := float64(n)
	if b.tokens >= need {
		b.tokens -= need
		return 0, true
	}
	return time.Duration((need - b.tokens) / b.rate * float64(time.Second)), false
}

// refund gives back n tokens taken by an admission a later gate refused.
func (b *tokenBucket) refund(n int) {
	b.mu.Lock()
	b.tokens = math.Min(b.burst, b.tokens+float64(n))
	b.mu.Unlock()
}
