package datagen

import (
	"math"
	"testing"
)

// Small scale for fast tests.
const testScale = 0.08

func TestGenerateAllKindsShape(t *testing.T) {
	for _, kind := range Kinds() {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			ds := GenerateDefault(kind, testScale)
			st := ds.Stats()
			spec := ds.Spec
			if st.NumSets != spec.NumSets {
				t.Fatalf("NumSets = %d, want %d", st.NumSets, spec.NumSets)
			}
			if st.MaxSize > spec.MaxCard {
				t.Fatalf("MaxSize = %d exceeds cap %d", st.MaxSize, spec.MaxCard)
			}
			if st.AvgSize < float64(spec.MinCard) || st.AvgSize > float64(spec.MaxCard) {
				t.Fatalf("AvgSize = %v outside [%d,%d]", st.AvgSize, spec.MinCard, spec.MaxCard)
			}
			if st.UniqueElems == 0 {
				t.Fatal("empty vocabulary")
			}
			// Cardinalities respect MinCard unless the vocabulary cap binds
			// (small scales shrink the vocabulary below the nominal caps).
			vocabCap := len(ds.Model.Tokens()) * 3 / 5
			minWant := spec.MinCard
			if vocabCap < minWant {
				minWant = vocabCap
			}
			for _, s := range ds.Repo.Sets() {
				if len(s.Elements) < minWant/2 {
					t.Fatalf("set %d has %d elements, want ≥ %d", s.ID, len(s.Elements), minWant/2)
				}
			}
		})
	}
}

func TestParseKind(t *testing.T) {
	for _, kind := range Kinds() {
		if got, err := ParseKind(string(kind)); got != kind || err != nil {
			t.Fatalf("ParseKind(%q) = %q, %v", kind, got, err)
		}
	}
	if _, err := ParseKind("bogus"); err == nil || err.Error() != `unknown dataset kind "bogus" (want dblp, opendata, twitter, or wdc)` {
		t.Fatalf("ParseKind(bogus) error = %v", err)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	d1 := GenerateDefault(Twitter, testScale)
	d2 := GenerateDefault(Twitter, testScale)
	if d1.Repo.Len() != d2.Repo.Len() {
		t.Fatal("set counts differ")
	}
	for i := 0; i < d1.Repo.Len(); i++ {
		a, b := d1.Repo.Elements(i), d2.Repo.Elements(i)
		if len(a) != len(b) {
			t.Fatalf("set %d cardinality differs", i)
		}
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("set %d element %d differs", i, j)
			}
		}
	}
}

func TestPowerLawSkew(t *testing.T) {
	// OpenData/WDC cardinalities must be skewed: median far below mean of
	// extremes, most sets small.
	ds := GenerateDefault(WDC, testScale)
	small, total := 0, 0
	maxCard := 0
	for _, s := range ds.Repo.Sets() {
		c := len(s.Elements)
		total++
		if c < 4*ds.Spec.MinCard {
			small++
		}
		if c > maxCard {
			maxCard = c
		}
	}
	if frac := float64(small) / float64(total); frac < 0.6 {
		t.Fatalf("only %.0f%% of WDC sets are small; want heavy skew", frac*100)
	}
	if maxCard < ds.Spec.MaxCard/4 {
		t.Fatalf("no large sets generated (max %d, cap %d)", maxCard, ds.Spec.MaxCard)
	}
}

func TestZipfianPostingSkew(t *testing.T) {
	// WDC must have some very frequent elements (long posting lists)
	// relative to its median, per §VIII-A1.
	ds := GenerateDefault(WDC, testScale)
	freq := map[string]int{}
	for _, s := range ds.Repo.Sets() {
		for _, e := range s.Elements {
			freq[e]++
		}
	}
	maxF, sum := 0, 0
	for _, f := range freq {
		if f > maxF {
			maxF = f
		}
		sum += f
	}
	avg := float64(sum) / float64(len(freq))
	if float64(maxF) < 20*avg {
		t.Fatalf("max posting %d vs avg %.1f: Zipf skew too weak", maxF, avg)
	}
}

func TestSemanticStructureAcrossSets(t *testing.T) {
	// Two sets sharing a topic cluster should contain distinct tokens from
	// the same cluster — the situation semantic overlap detects and vanilla
	// overlap misses. Verify such cross-set same-cluster pairs exist.
	ds := GenerateDefault(OpenData, testScale)
	m := ds.Model
	found := false
	setsList := ds.Repo.Sets()
	for i := 0; i < len(setsList) && !found; i += 7 {
		for j := i + 1; j < len(setsList) && !found; j += 13 {
			for _, a := range setsList[i].Elements {
				for _, b := range setsList[j].Elements {
					if a != b && m.Cluster(a) == m.Cluster(b) && m.Sim(a, b) >= 0.8 {
						found = true
					}
				}
			}
		}
	}
	if !found {
		t.Fatal("no cross-set semantic pairs at α=0.8; quality experiment would be vacuous")
	}
}

func TestSampleCardinalityBounds(t *testing.T) {
	spec := DefaultSpec(OpenData, testScale)
	ds := Generate(spec)
	for _, s := range ds.Repo.Sets() {
		if c := len(s.Elements); c > spec.MaxCard {
			t.Fatalf("cardinality %d above MaxCard %d", c, spec.MaxCard)
		}
	}
}

// TestGenerateTinyScaleTerminates regression-tests the hang where nominal
// cardinality caps exceeded the scaled-down vocabulary: generation must
// clamp and finish.
func TestGenerateTinyScaleTerminates(t *testing.T) {
	for _, kind := range Kinds() {
		ds := GenerateDefault(kind, 0.02) // vocabulary « nominal MaxCard
		vocab := len(ds.Model.Tokens())
		for _, s := range ds.Repo.Sets() {
			if len(s.Elements) > vocab {
				t.Fatalf("%s: set with %d elements from %d-token vocabulary", kind, len(s.Elements), vocab)
			}
		}
	}
}

func TestBenchmarkIntervals(t *testing.T) {
	ds := GenerateDefault(OpenData, testScale)
	b := NewBenchmark(ds, 1)
	if len(b.Queries) == 0 {
		t.Fatal("no queries sampled")
	}
	perInterval := map[int]int{}
	for _, q := range b.Queries {
		if q.Interval < 0 || q.Interval >= len(b.Intervals) {
			t.Fatalf("query interval %d out of range", q.Interval)
		}
		iv := b.Intervals[q.Interval]
		if len(q.Elements) < iv[0] || len(q.Elements) >= iv[1] {
			t.Fatalf("query cardinality %d outside interval %v", len(q.Elements), iv)
		}
		if got := ds.Repo.Elements(q.SourceSet); len(got) != len(q.Elements) {
			t.Fatal("query does not match its source set")
		}
		perInterval[q.Interval]++
	}
	for i, n := range perInterval {
		if n > ds.Spec.QueriesPerInterval {
			t.Fatalf("interval %d has %d queries, cap %d", i, n, ds.Spec.QueriesPerInterval)
		}
	}
	// At this scale at least the small intervals must be populated.
	if perInterval[0] == 0 {
		t.Fatal("smallest interval empty")
	}
}

func TestBenchmarkUniform(t *testing.T) {
	ds := GenerateDefault(DBLP, testScale)
	b := NewBenchmark(ds, 2)
	if len(b.Queries) != ds.Spec.QueriesPerInterval {
		t.Fatalf("uniform benchmark has %d queries, want %d", len(b.Queries), ds.Spec.QueriesPerInterval)
	}
	for _, q := range b.Queries {
		if q.Interval != -1 {
			t.Fatalf("uniform benchmark query has interval %d", q.Interval)
		}
		if len(q.Elements) == 0 {
			t.Fatal("empty query sampled")
		}
	}
	groups := b.ByInterval()
	if len(groups) != 1 {
		t.Fatalf("ByInterval groups = %d, want 1", len(groups))
	}
}

func TestDirtyBenchmark(t *testing.T) {
	ds := GenerateDefault(OpenData, testScale)
	b := NewBenchmark(ds, 1)
	dirty := b.Dirty(ds, 0.5, 7)
	if len(dirty.Queries) != len(b.Queries) {
		t.Fatal("query count changed")
	}
	changedTotal, kept := 0, 0
	for i, q := range dirty.Queries {
		orig := b.Queries[i]
		if len(q.Elements) != len(orig.Elements) {
			t.Fatal("query cardinality changed")
		}
		if q.SourceSet != orig.SourceSet || q.Interval != orig.Interval {
			t.Fatal("query metadata changed")
		}
		seen := map[string]bool{}
		for j, el := range q.Elements {
			if seen[el] {
				t.Fatalf("dirtying produced duplicate element %q", el)
			}
			seen[el] = true
			if el != orig.Elements[j] {
				changedTotal++
				// Replacement must stay in the same semantic cluster.
				if ds.Model.Cluster(el) != ds.Model.Cluster(orig.Elements[j]) {
					t.Fatalf("replacement %q left cluster of %q", el, orig.Elements[j])
				}
			} else {
				kept++
			}
		}
	}
	if changedTotal == 0 {
		t.Fatal("no elements dirtied at rate 0.5")
	}
	if kept == 0 {
		t.Fatal("every element dirtied at rate 0.5 — suspicious")
	}
	// Deterministic in seed.
	dirty2 := b.Dirty(ds, 0.5, 7)
	for i := range dirty.Queries {
		for j := range dirty.Queries[i].Elements {
			if dirty.Queries[i].Elements[j] != dirty2.Queries[i].Elements[j] {
				t.Fatal("Dirty not deterministic")
			}
		}
	}
	// Rate 0 is the identity.
	clean := b.Dirty(ds, 0, 7)
	for i := range clean.Queries {
		for j := range clean.Queries[i].Elements {
			if clean.Queries[i].Elements[j] != b.Queries[i].Elements[j] {
				t.Fatal("rate 0 modified a query")
			}
		}
	}
}

func TestBenchmarkDeterministic(t *testing.T) {
	ds := GenerateDefault(WDC, testScale)
	b1 := NewBenchmark(ds, 5)
	b2 := NewBenchmark(ds, 5)
	if len(b1.Queries) != len(b2.Queries) {
		t.Fatal("benchmark sizes differ")
	}
	for i := range b1.Queries {
		if b1.Queries[i].SourceSet != b2.Queries[i].SourceSet {
			t.Fatal("benchmark sampling not deterministic")
		}
	}
}

func TestDefaultSpecScaling(t *testing.T) {
	small := DefaultSpec(WDC, 0.1)
	big := DefaultSpec(WDC, 1.0)
	if small.NumSets >= big.NumSets {
		t.Fatalf("scaling failed: %d vs %d", small.NumSets, big.NumSets)
	}
	ratio := float64(big.NumSets) / float64(small.NumSets)
	if math.Abs(ratio-10) > 1 {
		t.Fatalf("scale ratio %v, want ≈10", ratio)
	}
	if zero := DefaultSpec(DBLP, 0); zero.NumSets != DefaultSpec(DBLP, 1).NumSets {
		t.Fatal("scale 0 should default to 1")
	}
}

func TestDefaultSpecUnknownKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for unknown kind")
		}
	}()
	DefaultSpec(Kind("bogus"), 1)
}
