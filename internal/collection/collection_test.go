package collection

import (
	"errors"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/sched"
	"repro/internal/sets"
)

// testConfig builds a registry config with the equality similarity — fast,
// deterministic, and quota semantics do not depend on the index at all.
func testConfig() Config {
	return Config{
		Build: func(dict *sets.Dictionary) index.NeighborSource {
			return index.NewDynamicFunc(dict, eqSim{})
		},
		Opts: core.Options{K: 5, Alpha: 0.8, ExactScores: true}.WithDefaults(),
	}
}

type eqSim struct{}

func (eqSim) Sim(a, b string) float64 {
	if a == b {
		return 1
	}
	return 0
}
func (eqSim) Name() string { return "eq" }

func TestSetQuotaExactThreshold(t *testing.T) {
	reg := NewRegistry(nil, testConfig())
	c, err := reg.Create("t", Quota{MaxSets: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Exactly at the cap is admitted; one past it is refused.
	for _, name := range []string{"a", "b"} {
		if _, err := c.Insert(name, []string{"x"}); err != nil {
			t.Fatalf("insert %s under quota: %v", name, err)
		}
	}
	_, err = c.Insert("c", []string{"x"})
	var qe *Refusal
	if !errors.As(err, &qe) {
		t.Fatalf("insert past MaxSets: got %v, want *Refusal", err)
	}
	if qe.Resource != "sets" || qe.Limit != 2 || qe.Used != 2 {
		t.Fatalf("quota error %+v, want sets limit=2 used=2", qe)
	}
	if c.Manager().Len() != 2 {
		t.Fatalf("refused insert mutated the collection: %d sets", c.Manager().Len())
	}

	// Replacing a live name is quota-neutral at the cap.
	if _, err := c.Insert("b", []string{"y", "z"}); err != nil {
		t.Fatalf("replacement at the cap: %v", err)
	}

	// Deleting frees a slot.
	if _, err := c.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Insert("c", []string{"x"}); err != nil {
		t.Fatalf("insert after delete: %v", err)
	}
	if got := c.Counters().QuotaRejectedTotal; got != 1 {
		t.Fatalf("quota_rejected_total = %d, want 1", got)
	}
}

func TestByteQuotaExactThreshold(t *testing.T) {
	reg := NewRegistry(nil, testConfig())
	c, err := reg.Create("t", Quota{MaxBytes: 8})
	if err != nil {
		t.Fatal(err)
	}
	// "abcd" + "efgh" = exactly 8 accounted bytes: admitted.
	if _, err := c.Insert("a", []string{"abcd", "efgh"}); err != nil {
		t.Fatalf("insert at exact byte quota: %v", err)
	}
	if got := c.Bytes(); got != 8 {
		t.Fatalf("bytes accounting = %d, want 8", got)
	}
	// One more byte is refused.
	_, err = c.Insert("b", []string{"i"})
	var qe *Refusal
	if !errors.As(err, &qe) || qe.Resource != "bytes" {
		t.Fatalf("insert past MaxBytes: got %v, want *Refusal{bytes}", err)
	}
	// Replacement is charged by delta: shrinking "a" to 4 bytes frees room.
	if _, err := c.Insert("a", []string{"wxyz"}); err != nil {
		t.Fatalf("shrinking replacement: %v", err)
	}
	if got := c.Bytes(); got != 4 {
		t.Fatalf("bytes after shrink = %d, want 4", got)
	}
	if _, err := c.Insert("b", []string{"ijkl"}); err != nil {
		t.Fatalf("insert into freed room: %v", err)
	}
	// Delete returns the accounting to the survivors' size.
	if _, err := c.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if got := c.Bytes(); got != 4 {
		t.Fatalf("bytes after delete = %d, want 4", got)
	}
}

func TestTokenBucketDeterministic(t *testing.T) {
	clock := sched.NewManual(time.Unix(0, 0))
	b := newTokenBucket(2, 2, clock.Now)

	// The bucket starts full: exactly burst tokens, no more.
	for i := 0; i < 2; i++ {
		if _, ok := b.take(1); !ok {
			t.Fatalf("take %d from a full burst-2 bucket refused", i)
		}
	}
	wait, ok := b.take(1)
	if ok {
		t.Fatal("take past the burst admitted")
	}
	if wait != 500*time.Millisecond {
		t.Fatalf("retry hint %v, want 500ms (1 token at 2/s)", wait)
	}

	// Refill is continuous: after 499ms still short, at 500ms admitted.
	clock.Advance(499 * time.Millisecond)
	if _, ok := b.take(1); ok {
		t.Fatal("admitted before the refill completed")
	}
	clock.Advance(1 * time.Millisecond)
	if _, ok := b.take(1); !ok {
		t.Fatal("refused after the refill completed")
	}

	// Tokens cap at burst no matter how long the idle stretch.
	clock.Advance(time.Hour)
	if _, ok := b.take(3); ok {
		t.Fatal("take(3) admitted from a burst-2 bucket")
	}
}

func TestRateLimitAdmission(t *testing.T) {
	clock := sched.NewManual(time.Unix(0, 0))
	cfg := testConfig()
	cfg.Clock = clock
	reg := NewRegistry(nil, cfg)
	c, err := reg.Create("t", Quota{RatePerSec: 1, Burst: 2})
	if err != nil {
		t.Fatal(err)
	}
	// A batch of 2 drains the burst; the next search is rate-limited with
	// the exact refill as the retry hint.
	if err := c.AdmitSearch(2); err != nil {
		t.Fatalf("batch within burst: %v", err)
	}
	c.ReleaseSearch(2)
	err = c.AdmitSearch(1)
	var re *Refusal
	if !errors.As(err, &re) {
		t.Fatalf("got %v, want *Refusal", err)
	}
	if re.RetryAfter != time.Second {
		t.Fatalf("RetryAfter %v, want 1s", re.RetryAfter)
	}
	clock.Advance(time.Second)
	if err := c.AdmitSearch(1); err != nil {
		t.Fatalf("after refill: %v", err)
	}
	c.ReleaseSearch(1)
	if got := c.Counters().RateLimitedTotal; got != 1 {
		t.Fatalf("rate_limited_total = %d, want 1", got)
	}
}

// TestBusyRefusalRefundsRateTokens: a search refused at the in-flight cap
// admits nothing, rate budget included, so the tenant's next admissible
// search is not rate-limited for searches that never ran.
func TestBusyRefusalRefundsRateTokens(t *testing.T) {
	clock := sched.NewManual(time.Unix(0, 0))
	cfg := testConfig()
	cfg.Clock = clock
	reg := NewRegistry(nil, cfg)
	c, err := reg.Create("t", Quota{RatePerSec: 1, Burst: 2, MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AdmitSearch(1); err != nil {
		t.Fatal(err)
	}
	var ref *Refusal
	if err := c.AdmitSearch(1); !errors.As(err, &ref) || ref.Code != CodeTenantBusy {
		t.Fatalf("second search at cap 1 = %v, want tenant_busy", err)
	}
	c.ReleaseSearch(1)
	if err := c.AdmitSearch(1); err != nil {
		t.Fatalf("search after the busy refusal = %v, want admitted: the refusal spent a rate token", err)
	}
	c.ReleaseSearch(1)
	if ctr := c.Counters(); ctr.ShedTotal != 1 || ctr.RateLimitedTotal != 0 {
		t.Fatalf("counters %+v, want 1 shed and 0 rate-limited", ctr)
	}
}

func TestInFlightCapExactThreshold(t *testing.T) {
	reg := NewRegistry(nil, testConfig())
	c, err := reg.Create("t", Quota{MaxInFlight: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AdmitSearch(1); err != nil {
		t.Fatal(err)
	}
	if err := c.AdmitSearch(1); err != nil {
		t.Fatal(err)
	}
	// Exactly at the cap: the next admission (and any over-cap batch) is a
	// Refusal that admits nothing.
	err = c.AdmitSearch(1)
	var be *Refusal
	if !errors.As(err, &be) || be.Limit != 2 {
		t.Fatalf("got %v, want *Refusal{Limit: 2}", err)
	}
	if got := c.InFlight(); got != 2 {
		t.Fatalf("refused admission changed in-flight to %d", got)
	}
	c.ReleaseSearch(1)
	if err := c.AdmitSearch(1); err != nil {
		t.Fatalf("after release: %v", err)
	}
	c.ReleaseSearch(2)
	// A batch larger than the whole cap can never be admitted.
	if err := c.AdmitSearch(3); err == nil {
		t.Fatal("batch of 3 admitted against cap 2")
	}
	if got := c.Counters().ShedTotal; got != 4 {
		// 1 refused single + 3 entries of the refused batch.
		t.Fatalf("shed_total = %d, want 4", got)
	}
	if got := c.Counters().SearchesTotal; got != 3 {
		t.Fatalf("searches_total = %d, want 3", got)
	}
}

// TestByteQuotaCountsDistinctElements: the byte quota charges a set as the
// manager stores it, its repeated elements once, so inserting a set with
// repeats, replacing it and deleting everything leaves 0 bytes, a set that
// fits only without its repeats is admitted, and a durable reopen (which
// sums the stored rows by token ID, a token once per set holding it) reads
// the same bytes as before it.
func TestByteQuotaCountsDistinctElements(t *testing.T) {
	dir := t.TempDir()
	reg, err := OpenRegistry(dir, nil, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	c, err := reg.Create("t", Quota{MaxBytes: 8})
	if err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		name  string
		elems []string // nil: delete
		bytes int64
	}{
		{"a", []string{"xx", "xx", "xx"}, 2},
		{"a", nil, 0},
		{"a", []string{"xx", "xx", "xx", "xx", "xx"}, 2}, // 10 bytes as sent
		{"a", []string{"yyy", "zz", "yyy"}, 5},
		{"b", []string{"q", "zz", "q"}, 8}, // "zz" is a's too
	}
	for i, st := range steps {
		if st.elems == nil {
			if ok, err := c.Delete(st.name); !ok || err != nil {
				t.Fatalf("step %d: Delete(%q) = %v, %v", i, st.name, ok, err)
			}
		} else if _, err := c.Insert(st.name, st.elems); err != nil {
			t.Fatalf("step %d: Insert(%q, %v): %v", i, st.name, st.elems, err)
		}
		if got := c.Bytes(); got != st.bytes {
			t.Fatalf("step %d: Bytes() = %d, want %d", i, got, st.bytes)
		}
	}
	if err := reg.Close(); err != nil {
		t.Fatal(err)
	}
	if reg, err = OpenRegistry(dir, nil, testConfig()); err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	c, ok := reg.Get("t")
	if !ok {
		t.Fatal("collection t lost by the reopen")
	}
	if got := c.Bytes(); got != 8 {
		t.Fatalf("Bytes() after reopen = %d, want 8", got)
	}
	for _, name := range []string{"a", "b"} {
		if ok, err := c.Delete(name); !ok || err != nil {
			t.Fatalf("Delete(%q) after reopen = %v, %v", name, ok, err)
		}
	}
	if got := c.Bytes(); got != 0 {
		t.Fatalf("Bytes() of the emptied collection = %d, want 0", got)
	}
}

// TestReplaceAndDeleteRefundTheCharge: a row with repeated elements,
// whether in the memtable or sealed, refunds on a replace and on a delete
// exactly the bytes its insert charged, its distinct elements' lengths, so
// the accounting returns to where it stood before the insert.
func TestReplaceAndDeleteRefundTheCharge(t *testing.T) {
	reg, err := OpenRegistry(t.TempDir(), nil, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	c, err := reg.Create("t", Quota{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Insert("other", []string{"ab", "z"}); err != nil {
		t.Fatal(err)
	}
	for _, sealed := range []bool{false, true} {
		for _, replace := range []bool{false, true} {
			before := c.Bytes()
			if _, err := c.Insert("r", []string{"ab", "cde", "ab", "ab", "cde"}); err != nil {
				t.Fatal(err)
			}
			if charged := c.Bytes() - before; charged != 5 {
				t.Fatalf("sealed %v: insert charged %d bytes, want 5", sealed, charged)
			}
			if sealed {
				if err := c.Manager().Flush(); err != nil {
					t.Fatal(err)
				}
			}
			want := before
			if replace {
				if _, err := c.Insert("r", []string{"f", "f"}); err != nil {
					t.Fatal(err)
				}
				want++
			} else if ok, err := c.Delete("r"); !ok || err != nil {
				t.Fatalf("Delete = %v, %v", ok, err)
			}
			if got := c.Bytes(); got != want {
				t.Fatalf("sealed %v, replace %v: %d bytes after, want %d", sealed, replace, got, want)
			}
			if replace {
				if ok, err := c.Delete("r"); !ok || err != nil || c.Bytes() != before {
					t.Fatalf("Delete after the replace = %v, %v, %d bytes, want %d", ok, err, c.Bytes(), before)
				}
			}
		}
	}
	if got, want := c.Bytes(), c.Manager().LiveBytes(); got != want {
		t.Fatalf("Bytes() = %d, the live rows hold %d", got, want)
	}
}

func TestDurableInsertAccounting(t *testing.T) {
	dir := t.TempDir()
	reg, err := OpenRegistry(dir, nil, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	c, err := reg.Create("t", Quota{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Insert("a", []string{"abcd"}); err != nil {
		t.Fatal(err)
	}
	if got := c.Bytes(); got != 4 {
		t.Fatalf("bytes = %d, want 4", got)
	}
}
