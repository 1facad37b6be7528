package server

import (
	"context"
	"testing"
	"time"
)

// White-box tests of the pool's fair queueing (DESIGN.md §15): grants
// follow sched.Pick's weights exactly, the per-tenant bound sheds without
// touching siblings, and canceled or dropped waiters never receive a
// grant. Most drive nextLocked or dispatch directly: no goroutines, no
// clock.

// backlog queues depth waiters for tenant name at weight and returns them.
func backlog(p *workerPool, name string, weight, depth int) []*waiter {
	p.mu.Lock()
	defer p.mu.Unlock()
	tq := p.tenantLocked(name, weight)
	for i := 0; i < depth; i++ {
		tq.q = append(tq.q, &waiter{ready: make(chan struct{})})
	}
	return tq.q
}

// grants pops n waiters through nextLocked and counts them by tenant.
func grants(t *testing.T, p *workerPool, n int) map[string]int {
	t.Helper()
	owner := make(map[*waiter]string)
	p.mu.Lock()
	defer p.mu.Unlock()
	for name, tq := range p.tenants {
		for _, w := range tq.q {
			owner[w] = name
		}
	}
	got := make(map[string]int)
	for i := 0; i < n; i++ {
		w := p.nextLocked()
		if w == nil {
			t.Fatalf("grant %d: nextLocked returned nil with backlog remaining", i)
		}
		got[owner[w]]++
	}
	return got
}

// TestGrantSharesTrackWeights: over deep backlogs weighted 1:1:4 the pool
// grants exactly 100/100/400 of 600 slots — the rule's cycle is six
// grants long from the first round.
func TestGrantSharesTrackWeights(t *testing.T) {
	p := newWorkerPool(1, 1<<20)
	backlog(p, "a", 1, 200)
	backlog(p, "b", 1, 200)
	backlog(p, "c", 4, 500)
	if g := grants(t, p, 600); g["a"] != 100 || g["b"] != 100 || g["c"] != 400 {
		t.Fatalf("grant shares a=%d b=%d c=%d, want 100/100/400", g["a"], g["b"], g["c"])
	}
}

// TestWeightedArrivalGrantedNext: a weight-4 tenant whose first query
// arrives behind a weight-1 tenant's flood is granted the very next slot.
func TestWeightedArrivalGrantedNext(t *testing.T) {
	p := newWorkerPool(1, 1<<20)
	backlog(p, "flood", 1, 100)
	grants(t, p, 50)
	w := backlog(p, "heavy", 4, 1)[0]
	p.mu.Lock()
	got := p.nextLocked()
	p.mu.Unlock()
	if got != w {
		t.Fatal("weight-4 arrival was not granted the next slot")
	}
}

// TestEmptiedQueueCreditReturnsToZero: a tenant whose queue runs empty
// keeps no credit, whatever it held while backlogged.
func TestEmptiedQueueCreditReturnsToZero(t *testing.T) {
	p := newWorkerPool(1, 1<<20)
	backlog(p, "a", 1, 100)
	backlog(p, "c", 4, 3)
	grants(t, p, 4) // c, c, a, c: c's queue is empty, its credit is 1
	p.mu.Lock()
	defer p.mu.Unlock()
	if c := p.tenants["c"].Credit; c != 1 {
		t.Fatalf("c's credit after its last grant = %d, want 1", c)
	}
	p.nextLocked()
	if c := p.tenants["c"].Credit; c != 0 {
		t.Fatalf("emptied queue kept credit %d, want 0", c)
	}
}

// TestLoneTenantServedWhenSlotFrees: a lone backlogged tenant is granted
// every slot that frees, whatever credit it holds, until its queue is
// empty — and a free slot with no waiter goes back to the pool.
func TestLoneTenantServedWhenSlotFrees(t *testing.T) {
	p := newWorkerPool(1, 1<<20)
	ws := append([]*waiter(nil), backlog(p, "only", 1, 5)...)
	p.tenants["only"].Credit = -1000
	p.dispatch()
	for i, w := range ws {
		select {
		case <-w.ready:
		default:
			t.Fatalf("waiter %d not granted after its slot freed", i)
		}
		if !w.granted {
			t.Fatalf("waiter %d woken without a grant", i)
		}
		<-p.sem // the holder releases
		p.dispatch()
	}
	if n := len(p.sem); n != 0 {
		t.Fatalf("%d slots held with no waiter", n)
	}
}

// TestDropTenantFailsWaitersKeepsShares: removing a tenant wakes each of
// its queued waiters without a grant (acquire answers collection_not_found)
// and the surviving tenants go on sharing slots by weight.
func TestDropTenantFailsWaitersKeepsShares(t *testing.T) {
	p := newWorkerPool(1, 1<<20)
	backlog(p, "a", 1, 300)
	dropped := append([]*waiter(nil), backlog(p, "b", 1, 300)...)
	backlog(p, "c", 4, 600)
	before := grants(t, p, 63) // mid-cycle: credits are nonzero
	p.removeTenant("b")
	p.removeTenant("b") // idempotent
	for i, w := range dropped[before["b"]:] {
		select {
		case <-w.ready:
		default:
			t.Fatalf("dropped tenant's waiter %d still queued", i)
		}
		if w.granted {
			t.Fatalf("dropped tenant's waiter %d was granted a slot", i)
		}
	}
	g := grants(t, p, 500)
	if g["b"] != 0 || g["a"] < 99 || g["a"] > 101 || g["a"]+g["c"] != 500 {
		t.Fatalf("grants after the drop a=%d b=%d c=%d, want 100/0/400 within one", g["a"], g["b"], g["c"])
	}
}

// TestPerTenantShedBound verifies admission is per tenant: a flooder at its
// queue bound is shed while a sibling with an empty queue is admitted.
func TestPerTenantShedBound(t *testing.T) {
	p := newWorkerPool(1, 2)
	p.mu.Lock()
	tq := p.tenantLocked("flooder", 1)
	tq.q = append(tq.q, &waiter{ready: make(chan struct{})}, &waiter{ready: make(chan struct{})})
	p.mu.Unlock()

	if p.admit("flooder", 1) {
		t.Fatal("flooder admitted past its queue bound")
	}
	if !p.admit("sibling", 1) {
		t.Fatal("sibling shed for the flooder's backlog")
	}
	if sheds := p.sheds.Load(); sheds != 1 {
		t.Fatalf("sheds = %d, want 1", sheds)
	}
}

// TestAcquireCancelUnlinks: a waiter whose context dies while queued is
// removed from its tenant queue, and a waiter granted in the race window
// returns its slot — the pool's slot accounting stays balanced either way.
func TestAcquireCancelUnlinks(t *testing.T) {
	p := newWorkerPool(1, 1<<20)
	// Hold the only slot so acquire must queue.
	p.sem <- struct{}{}

	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() { errCh <- p.acquire(ctx, "t", 1) }()

	// Wait until the waiter is queued, then cancel.
	deadline := time.Now().Add(5 * time.Second)
	for {
		p.mu.Lock()
		queued := len(p.tenantLocked("t", 1).q)
		p.mu.Unlock()
		if queued == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("waiter never queued")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-errCh; err != context.Canceled {
		t.Fatalf("acquire = %v, want context.Canceled", err)
	}
	p.mu.Lock()
	left := len(p.tenantLocked("t", 1).q)
	p.mu.Unlock()
	if left != 0 {
		t.Fatalf("canceled waiter still queued (%d left)", left)
	}

	// Release the held slot: a fresh acquire must now succeed immediately,
	// proving no slot leaked to the canceled waiter.
	<-p.sem
	p.dispatch()
	ctx2, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	if err := p.acquire(ctx2, "t", 1); err != nil {
		t.Fatalf("acquire after cancel: %v", err)
	}
	p.release("t", time.Millisecond)
}
