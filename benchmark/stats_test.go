package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i + 1)
	}
	for _, tc := range []struct {
		q      float64
		want   float64
		beyond int
		ok     bool
	}{
		{0.50, 50, 50, true},
		{0.90, 90, 10, true}, // exactly ten beyond: supported
		{0.91, 91, 9, false}, // nine beyond: not
		{0.99, 99, 1, false},
		{0.999, 100, 0, false},
	} {
		v, beyond, ok := percentile(vals, tc.q)
		if v != tc.want || beyond != tc.beyond || ok != tc.ok {
			t.Errorf("percentile(1..100, %v) = %v, %d beyond, ok=%v; want %v, %d, %v", tc.q, v, beyond, ok, tc.want, tc.beyond, tc.ok)
		}
	}
	if _, _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples is supported")
	}
	// A p90 needs at least 100 samples, a p99 at least 1000.
	if _, _, ok := percentile(make([]float64, 99), 0.90); ok {
		t.Error("p90 of 99 samples is supported")
	}
	if _, _, ok := percentile(make([]float64, 1000), 0.99); !ok {
		t.Error("p99 of 1000 samples is not supported")
	}
}

func TestMedianOfRounds(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{9, 1, 5}, 5},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{50, 48, 12, 49, 51}, 49}, // one stalled round does not move it
	} {
		in := append([]float64(nil), tc.in...)
		if got := median(tc.in); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.in, got, tc.want)
		}
		for i := range in {
			if in[i] != tc.in[i] {
				t.Fatalf("median reordered its input: %v", tc.in)
			}
		}
	}
	if got, want := spread([]float64{90, 100, 110}), 0.2; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 40, 20, 30, 50}, 15, 30, 45},
		{[]float64{3, 1}, 0.5, 2, 3.5},
		{[]float64{46.0, 47.4, 51.0, 46.0, 48.6, 49.6}, 46.0, 48.0, 49.95},
	} {
		q1, q2, q3 := quartiles(tc.in)
		if math.Abs(q1-tc.q1) > 1e-9 || math.Abs(q2-tc.q2) > 1e-9 || math.Abs(q3-tc.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.in, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestSpanSelfTime(t *testing.T) {
	ms := func(n int) int64 { return int64(n) * int64(time.Millisecond) }
	spans := []span{
		{ID: 1, Parent: 0, Layer: "server", Name: "client.search", StartNS: 0, EndNS: ms(100)},
		// Two sibling children of 1, one of them with a child of its own.
		{ID: 2, Parent: 1, Layer: "collection", Name: "search", StartNS: ms(200), EndNS: ms(270)},
		{ID: 3, Parent: 1, Layer: "collection", Name: "admit", StartNS: ms(270), EndNS: ms(275)},
		{ID: 4, Parent: 2, Layer: "core", Name: "refine", StartNS: ms(200), EndNS: ms(240)},
		// A child re-run that came out slower than its parent.
		{ID: 5, Parent: 4, Layer: "index", Name: "stream", StartNS: ms(300), EndNS: ms(345)},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{
		1: 25 * time.Millisecond, // 100 − 70 − 5: siblings both subtract
		2: 30 * time.Millisecond, // 70 − 40: only the direct child, not the grandchild
		3: 5 * time.Millisecond,
		4: -5 * time.Millisecond, // 40 − 45
		5: 45 * time.Millisecond,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
	m := meansOf(spans)
	if got := m.self["core/refine"]; got != 0 {
		t.Errorf("mean self time of core/refine = %v us, want 0 (floored)", got)
	}
	if got := m.self["server/client.search"]; got != 25000 {
		t.Errorf("mean self time of server/client.search = %v us, want 25000", got)
	}
	if got := m.dur["collection/search"]; got != 70000 {
		t.Errorf("mean duration of collection/search = %v us, want 70000", got)
	}
}

func TestOpListDeterminism(t *testing.T) {
	for _, s := range specs {
		s = s.quickened()
		a, err := buildWorkload(s, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, err := buildWorkload(s, 7)
		if err != nil {
			t.Fatal(err)
		}
		c, err := buildWorkload(s, 8)
		if err != nil {
			t.Fatal(err)
		}
		if a.hash() != b.hash() {
			t.Errorf("%s: the same seed gave two different op lists", s.name)
		}
		if a.hash() == c.hash() {
			t.Errorf("%s: seeds 7 and 8 gave the same op list", s.name)
		}
		if a.opsPerRound() != c.opsPerRound() {
			t.Errorf("%s: seeds 7 and 8 gave %d and %d ops per round", s.name, a.opsPerRound(), c.opsPerRound())
		}
		// Every round must leave the seed sets live: each insert is deleted
		// again, on the same collection, and only held-out sets are written.
		live := make(map[string]bool)
		for _, st := range a.seedSets {
			live[st.Name] = true
		}
		open := make(map[string]int)
		for _, phase := range a.phases {
			for _, o := range phase {
				switch o.kind {
				case opInsert:
					if live[o.name] {
						t.Errorf("%s: op list inserts live set %q", s.name, o.name)
					}
					open[o.name] = o.coll + 1
				case opDelete:
					if open[o.name] != o.coll+1 {
						t.Errorf("%s: delete of %q does not follow its insert on collection %d", s.name, o.name, o.coll)
					}
					delete(open, o.name)
				}
			}
		}
		if len(open) != 0 {
			t.Errorf("%s: %d inserted sets are never deleted", s.name, len(open))
		}
	}
}

func TestStratifiedKeepsCardinalities(t *testing.T) {
	s, _ := specByName("search_small")
	s = s.quickened()
	a, _ := buildWorkload(s, 1)
	b, _ := buildWorkload(s, 2)
	if len(a.queries) != len(b.queries) {
		t.Fatalf("%d and %d queries", len(a.queries), len(b.queries))
	}
	count := func(w *workload) map[int]int {
		m := make(map[int]int)
		for _, q := range w.queries {
			m[len(q)]++
		}
		return m
	}
	ca, cb := count(a), count(b)
	for card, n := range ca {
		if cb[card] != n {
			t.Errorf("seed 1 has %d queries of cardinality %d, seed 2 has %d", n, card, cb[card])
		}
	}
	seen := make(map[string]bool)
	for _, q := range a.queries {
		key := ""
		for _, e := range q {
			key += e + "\x00"
		}
		if seen[key] {
			t.Errorf("query picked twice")
		}
		seen[key] = true
	}
}

// hash digests the generated inputs — live sets and every op in order — so a
// test can show that a seed fixes them and a different seed changes them.
func (w *workload) hash() uint64 {
	h := fnv.New64a()
	str := func(s string) {
		var n [4]byte
		binary.LittleEndian.PutUint32(n[:], uint32(len(s)))
		h.Write(n[:])
		h.Write([]byte(s))
	}
	strs := func(ss []string) {
		str(fmt.Sprint(len(ss)))
		for _, s := range ss {
			str(s)
		}
	}
	for _, c := range w.collections {
		str(c)
	}
	for _, st := range w.seedSets {
		str(st.Name)
		strs(st.Elements)
	}
	for _, p := range w.phases {
		str("phase")
		for _, o := range p {
			h.Write([]byte{byte(o.kind), byte(o.coll)})
			str(o.name)
			strs(o.elems)
		}
	}
	return h.Sum64()
}
