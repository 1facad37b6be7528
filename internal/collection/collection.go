// Package collection is the multi-tenant layer above segment.Manager
// (DESIGN.md §14): a Registry owns N named collections, each a fully
// independent segmented engine with its own dictionary, segments, WAL and
// manifest, plus the per-tenant accounting the serving layer enforces —
// set-count and memory quotas checked at insert, a token-bucket rate limit
// and an in-flight cap checked at search admission, and counters for every
// refusal so operators can see which tenant is hitting which wall.
//
// One collection is special: the default collection, named "default",
// always exists and (on durable registries) lives directly in the
// registry's root directory — the exact layout a pre-multi-tenant server
// used — so upgrading a single-collection deployment is opening the same
// directory, and the legacy un-scoped HTTP routes keep serving it
// byte-identically. Named collections live in their own sub-directories
// under root/collections/<name>.
package collection

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/segment"
	"repro/internal/sets"
)

// DefaultName is the name of the always-present default collection — the
// one the legacy un-scoped HTTP routes serve.
const DefaultName = "default"

// Quota bounds one collection. The zero value means unlimited everything —
// exactly the pre-multi-tenant behavior, which is what the default
// collection gets unless the operator configures otherwise.
type Quota struct {
	// MaxSets caps the number of live sets (0 = unlimited). Replacing an
	// existing name does not count against the cap twice.
	MaxSets int64 `json:"max_sets,omitempty"`
	// MaxBytes caps the collection's memory accounting: the summed byte
	// length of every element of every live set (0 = unlimited). It is an
	// accounting measure, not an RSS promise — indexes and dictionaries
	// add overhead — but it moves monotonically with the data and is cheap
	// to maintain incrementally.
	MaxBytes int64 `json:"max_bytes,omitempty"`
	// RatePerSec admits at most this many searches per second through a
	// token bucket (0 = unlimited). Batch requests take one token per
	// entry.
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	// Burst is the token bucket's capacity (default: RatePerSec rounded
	// up, at least 1).
	Burst int `json:"burst,omitempty"`
	// MaxInFlight caps the collection's concurrently executing searches
	// (0 = unlimited). On a shared worker pool this is the fairness knob:
	// a tenant at its cap is shed with 429 instead of queueing, leaving
	// pool slots for the other tenants.
	MaxInFlight int64 `json:"max_in_flight,omitempty"`
	// Weight is the tenant's share in both fair-queueing of the search
	// pool and the maintenance scheduler's budget (0 means 1). A weight-4
	// tenant gets 4× the dispatch share of a weight-1 tenant when both are
	// backlogged; an idle tenant's unused share costs it nothing.
	Weight int `json:"weight,omitempty"`
}

// IsZero reports whether q is the all-unlimited zero value.
func (q Quota) IsZero() bool { return q == Quota{} }

// The refusal codes: why a request was declined, stable and
// machine-readable — the "code" of the serving layer's error body, which
// maps each to one HTTP status.
const (
	CodeQuotaExceeded      = "quota_exceeded"       // 413: an insert past the sets/bytes quota
	CodeMaintenanceBacklog = "maintenance_backlog"  // 503: an insert while maintenance debt is past the slowdown bound
	CodeRateLimited        = "rate_limited"         // 429: a search past the rate limit
	CodeTenantBusy         = "tenant_busy"          // 429: a search past the in-flight cap
	CodeOverloaded         = "overloaded"           // 429: a search into a full tenant queue or a blown p99
	CodeRecovering         = "recovering"           // 503: any request while the process still recovers
	CodeNotFound           = "collection_not_found" // 404: an unknown or dropped collection
)

// A Refusal reports a request declined before it did anything: which gate
// said no (Code), for which collection, and when asking again may succeed.
// It is the one error type of admission — the collection's gates (quota,
// maintenance backlog, rate limit, in-flight cap) return it, and so do the
// serving layer's (overload, recovery, an unknown collection).
type Refusal struct {
	Code       string
	Collection string
	// RetryAfter is how long until the gate may admit the request; zero for
	// a refusal that waiting cannot cure (quota_exceeded).
	RetryAfter time.Duration
	// Resource ("sets" or "bytes") names the quota an insert would exceed:
	// Limit is its bound, Used the current accounting and Requested what the
	// insert would have added. Limit is also the cap a tenant_busy refusal
	// hit; an overloaded one carries the queued queries in Used and the
	// workers in Limit.
	Resource               string
	Limit, Used, Requested int64
	// Stalled and Debt detail a maintenance_backlog refusal: past the hard
	// stall bound (every write refused) or in the slowdown band (a
	// deterministic fraction refused), and the debt that triggered it.
	Stalled bool
	Debt    segment.Debt
}

func (r *Refusal) Error() string {
	switch r.Code {
	case CodeQuotaExceeded:
		return fmt.Sprintf("collection %q: %s quota exceeded: %d used + %d requested > limit %d",
			r.Collection, r.Resource, r.Used, r.Requested, r.Limit)
	case CodeMaintenanceBacklog:
		state := "slowed"
		if r.Stalled {
			state = "stalled"
		}
		return fmt.Sprintf("collection %q: writes %s by maintenance backlog (%s), retry shortly", r.Collection, state, r.Debt.String())
	case CodeRateLimited:
		return fmt.Sprintf("collection %q: rate limit exceeded, retry in %v", r.Collection, r.RetryAfter)
	case CodeTenantBusy:
		return fmt.Sprintf("collection %q: %d searches already in flight (the configured cap)", r.Collection, r.Limit)
	case CodeOverloaded:
		return fmt.Sprintf("overloaded: %d queries queued on %d workers", r.Used, r.Limit)
	case CodeRecovering:
		return "recovering: not ready to serve"
	case CodeNotFound:
		return fmt.Sprintf("no collection named %q", r.Collection)
	}
	return "refused: " + r.Code
}

// Counters is a snapshot of one collection's admission accounting.
type Counters struct {
	// SearchesTotal counts completed searches (single + batch entries);
	// InsertsTotal counts applied inserts.
	SearchesTotal int64 `json:"searches_total"`
	InsertsTotal  int64 `json:"inserts_total"`
	// QuotaRejectedTotal counts inserts refused by the sets/bytes quota
	// (HTTP 413), RateLimitedTotal searches refused by the rate limit and
	// ShedTotal searches refused at the in-flight cap (both HTTP 429).
	QuotaRejectedTotal int64 `json:"quota_rejected_total"`
	RateLimitedTotal   int64 `json:"rate_limited_total"`
	ShedTotal          int64 `json:"shed_total"`
	// SlowedTotal counts inserts refused in the maintenance-backlog
	// slowdown band and StalledTotal those refused at the hard stall bound
	// (both HTTP 503 maintenance_backlog).
	SlowedTotal  int64 `json:"slowed_total"`
	StalledTotal int64 `json:"stalled_total"`
}

// Collection is one named tenant: a segmented engine plus the quota and
// admission state. All methods are safe for concurrent use; searches go
// straight to the wait-free Manager and never take the accounting lock.
type Collection struct {
	name  string
	mgr   *segment.Manager
	quota Quota

	limiter *tokenBucket // nil when RatePerSec == 0

	// bytes is the live memory accounting (summed element bytes); mu-free
	// readers take the atomic, writers update it under the manager-facing
	// mutation path (Insert/Delete serialize on writeMu so the
	// check-then-apply quota decision is consistent).
	bytes    atomic.Int64
	inflight atomic.Int64

	searches    atomic.Int64
	inserts     atomic.Int64
	quotaRej    atomic.Int64
	rateLimited atomic.Int64
	sheds       atomic.Int64
	slowed      atomic.Int64
	stalls      atomic.Int64

	// maint points at the registry's resolved maintenance policy;
	// slowCredit is the slowdown band's deterministic admission
	// accumulator, guarded by writeMu like the rest of the write-path state.
	maint      *MaintenanceConfig
	slowCredit float64

	writeMu chan struct{} // 1-slot semaphore guarding quota check-then-insert
}

// newCollection wraps a manager. The initial byte accounting is the live
// sets' (seed or recovered state), summed by token ID.
func newCollection(name string, mgr *segment.Manager, q Quota, now func() time.Time) *Collection {
	c := &Collection{name: name, mgr: mgr, quota: q, writeMu: make(chan struct{}, 1)}
	if q.RatePerSec > 0 {
		c.limiter = newTokenBucket(q.RatePerSec, q.Burst, now)
	}
	c.bytes.Store(mgr.LiveBytes())
	return c
}

// setBytes is the quota measure of an incoming set: the summed element
// byte lengths. A stored row is measured by Manager.SetBytes.
func setBytes(elements []string) int64 {
	var n int64
	for _, e := range elements {
		n += int64(len(e))
	}
	return n
}

// Name returns the collection's name.
func (c *Collection) Name() string { return c.name }

// Manager returns the collection's segmented engine. Searches and reads go
// straight to it; mutations should go through Insert/Delete so the quota
// accounting stays consistent.
func (c *Collection) Manager() *segment.Manager { return c.mgr }

// Quota returns the collection's configured bounds.
func (c *Collection) Quota() Quota { return c.quota }

// Weight returns the collection's fair-share weight, never less than 1.
func (c *Collection) Weight() int {
	if c.quota.Weight < 1 {
		return 1
	}
	return c.quota.Weight
}

// Bytes returns the current memory accounting (summed element bytes of
// live sets).
func (c *Collection) Bytes() int64 { return c.bytes.Load() }

// Counters snapshots the admission accounting.
func (c *Collection) Counters() Counters {
	return Counters{
		SearchesTotal:      c.searches.Load(),
		InsertsTotal:       c.inserts.Load(),
		QuotaRejectedTotal: c.quotaRej.Load(),
		RateLimitedTotal:   c.rateLimited.Load(),
		ShedTotal:          c.sheds.Load(),
		SlowedTotal:        c.slowed.Load(),
		StalledTotal:       c.stalls.Load(),
	}
}

// InFlight returns the number of searches currently admitted and not yet
// released.
func (c *Collection) InFlight() int64 { return c.inflight.Load() }

// Insert adds (or replaces) a set, enforcing the maintenance-backlog
// policy and the sets/bytes quota first: a refused insert returns a
// *Refusal (maintenance_backlog or quota_exceeded) and mutates nothing.
// Replacement is quota-neutral on sets and charged by the size delta on bytes. The
// check-then-apply pair is serialized against other quota-checked writes,
// so concurrent inserts cannot both squeeze through the last quota slot.
func (c *Collection) Insert(name string, elements []string) (int64, error) {
	c.writeMu <- struct{}{}
	defer func() { <-c.writeMu }()

	if ref := c.admitWrite(); ref != nil {
		return 0, ref
	}
	add := setBytes(sets.Dedup(elements)) // the set as stored, repeats once
	var oldBytes, oldSets int64
	if name != "" {
		if n, ok := c.mgr.SetBytes(name); ok {
			oldBytes, oldSets = n, 1
		}
	}
	if ref := c.quotaRefusal(1-oldSets, add-oldBytes); ref != nil {
		c.quotaRej.Add(1)
		return 0, ref
	}
	id, err := c.mgr.Insert(name, elements)
	var durErr *segment.DurabilityError
	if err == nil || errors.As(err, &durErr) {
		// Applied (a DurabilityError means the mutation IS in the
		// collection; only a follow-on durability step failed).
		c.bytes.Add(add - oldBytes)
		c.inserts.Add(1)
	}
	return id, err
}

// Delete removes the named set, keeping the byte accounting in step.
func (c *Collection) Delete(name string) (bool, error) {
	c.writeMu <- struct{}{}
	defer func() { <-c.writeMu }()

	old, _ := c.mgr.SetBytes(name)
	deleted, err := c.mgr.Delete(name)
	var durErr *segment.DurabilityError
	if deleted && (err == nil || errors.As(err, &durErr)) {
		c.bytes.Add(-old)
	}
	return deleted, err
}

// quotaRefusal is the sets/bytes gate: the refusal an insert adding sets
// and bytes (net of the set it replaces) draws, or nil.
func (c *Collection) quotaRefusal(sets, bytes int64) *Refusal {
	q := c.quota
	if q.MaxSets > 0 {
		if used := int64(c.mgr.Len()); used+sets > q.MaxSets {
			return &Refusal{Code: CodeQuotaExceeded, Collection: c.name, Resource: "sets", Limit: q.MaxSets, Used: used, Requested: sets}
		}
	}
	if q.MaxBytes > 0 {
		if used := c.bytes.Load(); used+bytes > q.MaxBytes {
			return &Refusal{Code: CodeQuotaExceeded, Collection: c.name, Resource: "bytes", Limit: q.MaxBytes, Used: used, Requested: bytes}
		}
	}
	return nil
}

// AdmitSearch runs the per-tenant admission checks for n searches (a batch
// admits all its entries at once): the rate limit first, then the
// in-flight cap. nil means admitted — the caller must pair it with
// ReleaseSearch(n). A refusal is a *Refusal (rate_limited or tenant_busy)
// and admits nothing: a search refused at the cap gives back the rate
// tokens it took.
func (c *Collection) AdmitSearch(n int) error {
	if c.limiter != nil {
		if wait, ok := c.limiter.take(n); !ok {
			c.rateLimited.Add(int64(n))
			return &Refusal{Code: CodeRateLimited, Collection: c.name, RetryAfter: wait}
		}
	}
	if c.quota.MaxInFlight > 0 {
		for {
			cur := c.inflight.Load()
			if cur+int64(n) > c.quota.MaxInFlight {
				if c.limiter != nil {
					c.limiter.refund(n)
				}
				c.sheds.Add(int64(n))
				// The tenant's own searches drain on query-latency
				// timescales, so a short fixed wait suffices.
				return &Refusal{Code: CodeTenantBusy, Collection: c.name, Limit: c.quota.MaxInFlight, RetryAfter: time.Second}
			}
			if c.inflight.CompareAndSwap(cur, cur+int64(n)) {
				return nil
			}
		}
	}
	c.inflight.Add(int64(n))
	return nil
}

// ReleaseSearch returns n admitted searches, counting completed ones.
func (c *Collection) ReleaseSearch(n int) {
	c.inflight.Add(-int64(n))
	c.searches.Add(int64(n))
}
