package server

import (
	"context"
	"errors"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// workerPool bounds the number of searches executing concurrently across
// all requests — single and batch — so a traffic spike degrades into
// queueing instead of unbounded goroutine/CPU oversubscription (each search
// already fans out across partitions internally). A slot is held for the
// duration of one query; batch requests acquire one slot per query, which
// lets a batch use the whole pool when it is idle and interleave fairly
// with single queries when it is not.
//
// Waiting is organized as weighted fair queueing (DESIGN.md §15): each
// tenant has its own bounded FIFO queue, and free slots are granted by
// deficit round robin — every visit a tenant's deficit is topped up by its
// weight and it drains one query per unit until the deficit is spent, so
// backlogged tenants complete queries in proportion to their weights
// (weights 1:1:4 → shares 1/6:1/6:4/6) and a flooding tenant fills only
// its own queue. Shedding remains the backstop: a query arriving to a full
// tenant queue is refused (429) rather than enqueued, so the flooder's own
// tail is bounded too, and no one else's queue ever absorbs its overflow.
//
// The pool also owns the serving telemetry: queue depth and cumulative
// queue wait, queries completed and timed out, and fixed rings of recent
// query latencies — one global, one per tenant — from which /v1/info
// derives p50/p95/p99.
type workerPool struct {
	sem      chan struct{}
	maxQueue int // per-tenant queue depth beyond which new queries are shed

	mu      sync.Mutex
	tenants map[string]*tenantQ
	order   []string // DRR visit order (registration order)
	cursor  int      // persistent position in order — fairness has memory

	queued   atomic.Int64 // waiting for a slot right now (all tenants)
	active   atomic.Int64 // holding a slot right now
	queries  atomic.Int64 // queries completed (single + per batch entry)
	batches  atomic.Int64 // batch requests completed
	timeouts atomic.Int64 // queries that hit the per-query timeout
	sheds    atomic.Int64 // queries refused at admission (429)
	waitNS   atomic.Int64 // cumulative time spent waiting for a slot

	// lat is a lock-free ring of the most recent query latencies in
	// nanoseconds; pos is the total number of recordings ever made.
	lat [latRingSize]atomic.Int64
	pos atomic.Int64
}

const (
	latRingSize       = 1024
	tenantLatRingSize = 256
)

// tenantQ is one tenant's wait queue plus its DRR state and latency ring,
// all guarded by workerPool.mu except the ring (atomic slots).
type tenantQ struct {
	name    string
	weight  int
	deficit float64
	topped  bool // deficit already topped up in the current DRR visit
	q       []*waiter

	lat [tenantLatRingSize]atomic.Int64
	pos atomic.Int64
}

// waiter is one queued query. ready is closed, under workerPool.mu, when
// the wait is over: with granted set, a slot is the waiter's; without, its
// tenant was removed. A canceling waiter can so tell "still queued" from
// "slot already granted" without racing dispatch.
type waiter struct {
	ready   chan struct{}
	granted bool
}

// errTenantRemoved fails the queries a tenant had queued when it was removed.
var errTenantRemoved = errors.New("server: collection dropped while the query was queued")

func newWorkerPool(workers, maxQueue int) *workerPool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if maxQueue <= 0 {
		maxQueue = 8 * workers
	}
	return &workerPool{
		sem:      make(chan struct{}, workers),
		maxQueue: maxQueue,
		tenants:  make(map[string]*tenantQ),
	}
}

func (p *workerPool) size() int { return cap(p.sem) }

// tenantLocked returns the tenant's queue, creating it on first use and
// keeping its weight current (quota updates arrive via the collection).
func (p *workerPool) tenantLocked(name string, weight int) *tenantQ {
	if weight < 1 {
		weight = 1
	}
	t, ok := p.tenants[name]
	if !ok {
		t = &tenantQ{name: name}
		p.tenants[name] = t
		p.order = append(p.order, name)
	}
	t.weight = weight
	return t
}

// removeTenant drops a tenant's queue state (its collection was dropped)
// and fails its queued waiters at once with errTenantRemoved: dispatch can
// no longer reach them, and under the default QueryTimeout of 0 nothing
// else would ever wake them.
func (p *workerPool) removeTenant(name string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	t, ok := p.tenants[name]
	if !ok {
		return
	}
	for _, w := range t.q {
		close(w.ready)
	}
	t.q = nil
	delete(p.tenants, name)
	idx := -1
	for i, n := range p.order {
		if n == name {
			idx = i
			break
		}
	}
	p.order = append(p.order[:idx], p.order[idx+1:]...)
	if p.cursor > idx {
		p.cursor--
	}
	if len(p.order) > 0 {
		p.cursor %= len(p.order)
	} else {
		p.cursor = 0
	}
}

// admit decides whether a new query may join its tenant's queue; false
// sheds it (the caller answers 429). The bound is per tenant: a flooding
// tenant exhausts its own queue and gets shed while its siblings' queues
// — and their latency — are untouched. The check-then-enqueue pair is not
// atomic, so the bound is approximate under racing admissions — load
// shedding needs a level, not an exact count.
func (p *workerPool) admit(tenant string, weight int) bool {
	p.mu.Lock()
	depth := len(p.tenantLocked(tenant, weight).q)
	p.mu.Unlock()
	if depth >= p.maxQueue {
		p.sheds.Add(1)
		return false
	}
	return true
}

// acquire blocks until a worker slot is granted to this tenant by the DRR
// dispatcher, the tenant is removed (errTenantRemoved) or ctx is done,
// accounting the queue wait either way.
func (p *workerPool) acquire(ctx context.Context, tenant string, weight int) error {
	p.queued.Add(1)
	start := time.Now()
	defer func() {
		p.queued.Add(-1)
		p.waitNS.Add(int64(time.Since(start)))
	}()
	w := &waiter{ready: make(chan struct{})}
	p.mu.Lock()
	t := p.tenantLocked(tenant, weight)
	t.q = append(t.q, w)
	p.mu.Unlock()
	p.dispatch()
	select {
	case <-w.ready:
		if !w.granted {
			return errTenantRemoved
		}
		p.active.Add(1)
		return nil
	case <-ctx.Done():
		p.mu.Lock()
		if w.granted {
			// Lost the race: dispatch granted us a slot between the
			// deadline firing and this lock. The slot is ours to return.
			p.mu.Unlock()
			<-p.sem
			p.dispatch()
			return ctx.Err()
		}
		// Still queued — unlink so the dispatcher never grants a dead
		// waiter (and the tenant's queue bound frees a slot for live ones).
		for i, qw := range t.q {
			if qw == w {
				t.q = append(t.q[:i], t.q[i+1:]...)
				break
			}
		}
		p.mu.Unlock()
		return ctx.Err()
	}
}

// dispatch grants free worker slots to queued waiters in DRR order until
// either the slots or the waiters run out. Called after every enqueue and
// every release; safe from any goroutine.
func (p *workerPool) dispatch() {
	for {
		select {
		case p.sem <- struct{}{}:
		default:
			return // no free slot
		}
		p.mu.Lock()
		w := p.nextLocked()
		if w == nil {
			p.mu.Unlock()
			<-p.sem // no waiter; hand the slot back
			return
		}
		w.granted = true
		close(w.ready)
		p.mu.Unlock()
	}
}

// nextLocked pops the next waiter by deficit round robin: visiting a
// backlogged tenant tops its deficit up by its weight (once per visit) and
// the cursor stays on it until the deficit is spent — so over any busy
// interval a tenant's grant share converges to weight/Σweights. An emptied
// queue forfeits its remaining deficit: idleness must not bank priority.
func (p *workerPool) nextLocked() *waiter {
	n := len(p.order)
	// 2n hops suffice: the first sweep serves at the first backlogged tenant
	// that has not already been topped up this visit (topping up and serving
	// happen in the same hop), and it clears the topped flag on every tenant
	// it skips — so the second sweep must serve if any backlog exists.
	for hops := 0; hops < 2*n; hops++ {
		t := p.tenants[p.order[p.cursor]]
		if len(t.q) == 0 {
			t.deficit = 0
			t.topped = false
			p.cursor = (p.cursor + 1) % n
			continue
		}
		if t.deficit < 1 {
			if t.topped {
				// Deficit spent for this visit — on to the next tenant.
				t.topped = false
				p.cursor = (p.cursor + 1) % n
				continue
			}
			t.topped = true
			t.deficit += float64(t.weight) // ≥ 1, so serve now
		}
		t.deficit--
		w := t.q[0]
		t.q = t.q[1:]
		return w
	}
	return nil
}

// release returns a slot, records the query's latency in the global and
// per-tenant rings, and hands the freed slot to the next DRR waiter.
func (p *workerPool) release(tenant string, latency time.Duration) {
	p.active.Add(-1)
	slot := (p.pos.Add(1) - 1) % latRingSize
	p.lat[slot].Store(int64(latency))
	p.queries.Add(1)
	p.mu.Lock()
	if t, ok := p.tenants[tenant]; ok {
		ts := (t.pos.Add(1) - 1) % tenantLatRingSize
		t.lat[ts].Store(int64(latency))
	}
	p.mu.Unlock()
	<-p.sem
	p.dispatch()
}

// percentiles snapshots the global latency ring and returns the p50/p95/
// p99 query latencies. Recordings racing the snapshot can tear across ring
// slots; each slot read is atomic, so the worst case is mixing latencies
// from adjacent queries — fine for telemetry.
func (p *workerPool) percentiles() (p50, p95, p99 time.Duration) {
	return ringPercentiles(p.lat[:], p.pos.Load())
}

// tenantPercentiles returns the named tenant's recent latency percentiles
// (zeros for an unknown or not-yet-queried tenant).
func (p *workerPool) tenantPercentiles(tenant string) (p50, p95, p99 time.Duration) {
	p.mu.Lock()
	t, ok := p.tenants[tenant]
	p.mu.Unlock()
	if !ok {
		return 0, 0, 0
	}
	return ringPercentiles(t.lat[:], t.pos.Load())
}

func ringPercentiles(ring []atomic.Int64, n int64) (p50, p95, p99 time.Duration) {
	if n > int64(len(ring)) {
		n = int64(len(ring))
	}
	if n == 0 {
		return 0, 0, 0
	}
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = ring[i].Load()
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	pick := func(q float64) time.Duration {
		idx := int(q * float64(n-1))
		return time.Duration(vals[idx])
	}
	return pick(0.50), pick(0.95), pick(0.99)
}
