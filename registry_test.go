package koios

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/collection"
	"repro/internal/index"
	"repro/internal/sched"
	"repro/internal/sets"
)

// TestRegistryMaintenancePassthrough drives the public Config.Maintenance
// plumbing end to end: a registry with coordinated maintenance enabled must
// surface write pressure as a typed *Refusal (never silent
// latency) and admit writes again once the scheduler drains the backlog.
func TestRegistryMaintenancePassthrough(t *testing.T) {
	reg := NewRegistry(nil, Exact(), Config{
		SealThreshold: 1, // every insert seals: debt accrues per write
		MaxSegments:   2,
		Maintenance: MaintenanceConfig{
			Workers:        1,
			SlowdownSealed: 3,
			StallSealed:    6,
		},
	})
	defer reg.Close()
	eng := reg.Default()

	// Sets of fresh unique tokens make each compaction cost grow with the
	// admitted total while the per-insert cost stays flat, so the writer
	// outruns the single maintenance worker and must hit the policy.
	elems := func(i int) []string {
		out := make([]string, 40)
		for j := range out {
			out[j] = fmt.Sprintf("t%d-%d", i, j)
		}
		return out
	}
	var mbe *Refusal
	refused := -1
	for i := 0; i < 5000; i++ {
		_, err := eng.Insert(Set{Name: fmt.Sprintf("s%d", i), Elements: elems(i)})
		if err == nil {
			continue
		}
		if !errors.As(err, &mbe) {
			t.Fatalf("insert %d: unexpected error %v", i, err)
		}
		refused = i
		break
	}
	if refused < 0 {
		t.Fatal("5000 inserts never tripped the slowdown/stall policy")
	}
	if mbe.Collection != DefaultCollection || mbe.RetryAfter <= 0 {
		t.Fatalf("backlog error = %+v, want default collection and positive RetryAfter", mbe)
	}

	// The refusal is transient by design: once maintenance catches up,
	// the insert is admitted.
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := reg.reg.Scheduler().WaitIdle(ctx); err != nil {
		t.Fatalf("backlog never drained: %v", err)
	}
	if _, err := eng.Insert(Set{Name: "post-drain", Elements: elems(refused)}); err != nil {
		t.Fatalf("post-drain insert: %v", err)
	}
}

// TestStandaloneEngineIsMaintained: a standalone engine is a one-collection
// registry's, so its scheduler compacts it back under MaxSegments with no
// explicit Compact.
func TestStandaloneEngineIsMaintained(t *testing.T) {
	eng := New(nil, Exact(), Config{
		SealThreshold: 1, // every insert seals
		MaxSegments:   2,
	})
	defer eng.Close()
	for i := 0; i < 6; i++ { // below the slowdown bound, 4 × MaxSegments
		if _, err := eng.Insert(Set{Name: fmt.Sprintf("s%d", i), Elements: []string{"x", fmt.Sprint(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := eng.reg.Scheduler().WaitIdle(ctx); err != nil {
		t.Fatal(err)
	}
	if sealed, _, _ := eng.Segments(); sealed > 2 {
		t.Fatalf("%d sealed segments, MaxSegments 2: the scheduler never compacted", sealed)
	}
	if runs := eng.reg.Scheduler().Stats().RunsTotal; runs == 0 {
		t.Fatal("segments merged without a scheduled run")
	}
	if eng.Collection() != 6 {
		t.Fatalf("Collection = %d, want 6", eng.Collection())
	}
}

// TestNoGoroutineOutlivesEngineClose: Close stops a standalone engine's
// scheduler, maintenance in flight included.
func TestNoGoroutineOutlivesEngineClose(t *testing.T) {
	base := settledGoroutines()
	eng, err := Open(t.TempDir(), demoCollection(), newFigure1Sim(), Config{
		SealThreshold: 1,
		MaxSegments:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		var mbe *Refusal
		if _, err := eng.Insert(Set{Name: fmt.Sprintf("s%d", i), Elements: []string{"LA", fmt.Sprint(i)}}); err != nil && !errors.As(err, &mbe) {
			t.Fatal(err)
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for projectGoroutines() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines outlived Close (baseline %d):\n%s", projectGoroutines(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
	runtime.KeepAlive(eng) // Close, not the collector, must have stopped it
}

// scoreProbe is a scheduler tenant that counts the dispatch rounds that
// consult it.
type scoreProbe struct{ rounds atomic.Int64 }

func (p *scoreProbe) Score() float64            { p.rounds.Add(1); return 0 }
func (p *scoreProbe) Run(context.Context) error { return nil }

// TestUnreachableEngineStopsScheduler: the scheduler of a standalone engine
// nobody references any more stops once the engine is collected, instead of
// polling — and pinning the collection — forever. The engine's clock is a
// manual one: a second of it holds four polls, each a dispatch round that
// consults the probe while the scheduler runs.
func TestUnreachableEngineStopsScheduler(t *testing.T) {
	probe := &scoreProbe{}
	clk := sched.NewManual(time.Unix(0, 0))
	func() {
		rc := Config{}.registryConfig(func(dict *sets.Dictionary) index.NeighborSource {
			return index.NewDynamicFunc(dict, newFigure1Sim())
		})
		rc.Clock = clk
		eng := standalone(collection.NewRegistry(rawSets(demoCollection()), rc), Config{})
		eng.reg.Scheduler().Register("probe", 1, probe)
	}()
	clk.Advance(time.Second)
	if probe.rounds.Load() == 0 {
		t.Fatal("the probe was never dispatched")
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		before := probe.rounds.Load()
		clk.Advance(time.Second)
		if probe.rounds.Load() == before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("the scheduler of an unreachable engine kept dispatching")
		}
		runtime.Gosched() // let the cleanup's Stop run
	}
}

// projectGoroutines counts the goroutines running this module's code — the
// runtime's own come and go on their own schedule.
func projectGoroutines() int {
	buf := make([]byte, 1<<20)
	n := 0
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, "\nrepro") {
			n++
		}
	}
	return n
}

// settledGoroutines is projectGoroutines once what earlier tests left
// behind has finished exiting: their goroutines past their last wait, and
// the cleanups (unmaps, a dropped engine's scheduler stop) a collection
// queues.
func settledGoroutines() int {
	runtime.GC()
	n := projectGoroutines()
	for i := 0; i < 100; i++ {
		time.Sleep(10 * time.Millisecond)
		m := projectGoroutines()
		if m == n {
			break
		}
		n = m
	}
	return n
}
