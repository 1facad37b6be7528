package collection

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/segment"
	"repro/internal/sets"
)

// testBuilder/testOptions mirror testConfig for direct manager builds.
func testBuilder() segment.SourceBuilder {
	return func(dict *sets.Dictionary) index.NeighborSource {
		return index.NewDynamicFunc(dict, eqSim{})
	}
}

func testOptions() core.Options {
	return core.Options{K: 5, Alpha: 0.8, ExactScores: true}.WithDefaults()
}

// TestWriteSlowdownAndStall pins the graceful-degradation contract from
// DESIGN.md §15 with no scheduler in the loop (a collection built outside
// any registry): as maintenance debt crosses the slowdown bound, Insert
// refuses a deterministic, growing fraction of writes with a typed
// *Refusal; at the stall bound it refuses everything; and
// the moment maintenance drains the debt, writes are admitted again.
// SealThreshold 1 makes every admitted insert one sealed segment, so debt
// is exactly the admitted-write count.
func TestWriteSlowdownAndStall(t *testing.T) {
	segCfg := segment.Config{SealThreshold: 1, MaxSegments: 4}
	mgr := segment.NewManager(nil, testBuilder(), testOptions(), segCfg)
	c := newCollection(DefaultName, mgr, Quota{}, time.Now)
	mc := MaintenanceConfig{
		Workers:        1,
		SlowdownSealed: 4,
		StallSealed:    8,
	}.withDefaults(segCfg)
	c.maint = &mc

	var admitted, slowed int
	var stallErr *Refusal
	for i := 0; i < 50 && stallErr == nil; i++ {
		_, err := c.Insert(fmt.Sprintf("s%d", i), []string{"x"})
		var mbe *Refusal
		switch {
		case err == nil:
			admitted++
		case errors.As(err, &mbe):
			if mbe.Stalled {
				stallErr = mbe
			} else {
				slowed++
			}
			if mbe.RetryAfter <= 0 {
				t.Fatalf("backlog refusal without RetryAfter: %v", mbe)
			}
		default:
			t.Fatalf("insert %d: unexpected error %v", i, err)
		}
	}
	if stallErr == nil {
		t.Fatal("debt never reached the stall bound")
	}
	if admitted != mc.StallSealed {
		t.Fatalf("admitted %d inserts before stall, want exactly StallSealed=%d", admitted, mc.StallSealed)
	}
	if slowed == 0 {
		t.Fatal("no slowdown-band refusals before the stall — degradation was a cliff")
	}
	if d := stallErr.Debt; d.SealedSegments < mc.StallSealed {
		t.Fatalf("stall error carries debt %+v, want ≥ %d sealed", d, mc.StallSealed)
	}

	// Stalled means stalled: further writes are refused too.
	if _, err := c.Insert("again", []string{"x"}); err == nil {
		t.Fatal("insert admitted while stalled")
	}

	// Maintenance drains the debt → writes flow again.
	if err := mgr.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Insert("after", []string{"x"}); err != nil {
		t.Fatalf("insert still refused after compaction drained the debt: %v", err)
	}

	ctr := c.Counters()
	if ctr.SlowedTotal != int64(slowed) || ctr.StalledTotal == 0 {
		t.Fatalf("counters = %+v, want slowed=%d and stalled>0", ctr, slowed)
	}
	// Refused inserts must not count as applied.
	if ctr.InsertsTotal != int64(admitted)+1 {
		t.Fatalf("inserts_total = %d, want %d admitted + 1 post-recovery", ctr.InsertsTotal, admitted)
	}
}
