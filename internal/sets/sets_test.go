package sets

import (
	"testing"
)

func sample() *Repository {
	return NewRepository([]Set{
		{Name: "a", Elements: []string{"x", "y", "z", "y"}},
		{Name: "b", Elements: []string{"x", "w"}},
		{Name: "", Elements: nil},
		{Name: "d", Elements: []string{"v", "w", "u", "t", "s"}},
	})
}

func TestRepositoryBasics(t *testing.T) {
	r := sample()
	if r.Len() != 4 {
		t.Fatalf("Len = %d", r.Len())
	}
	if got := r.Set(0).Elements; len(got) != 3 {
		t.Fatalf("duplicates not removed: %v", got)
	}
	if r.Set(2).Name != "set-2" {
		t.Fatalf("empty name not defaulted: %q", r.Set(2).Name)
	}
	if r.Set(3).ID != 3 {
		t.Fatalf("ID = %d, want 3", r.Set(3).ID)
	}
}

func TestVocabulary(t *testing.T) {
	r := sample()
	vocab := r.Vocabulary()
	want := map[string]bool{"x": true, "y": true, "z": true, "w": true, "v": true, "u": true, "t": true, "s": true}
	if len(vocab) != len(want) {
		t.Fatalf("vocab = %v", vocab)
	}
	for _, v := range vocab {
		if !want[v] {
			t.Fatalf("unexpected vocab token %q", v)
		}
	}
}

func TestStats(t *testing.T) {
	r := sample()
	st := r.Stats()
	if st.NumSets != 4 || st.MaxSize != 5 || st.UniqueElems != 8 {
		t.Fatalf("Stats = %+v", st)
	}
	if st.AvgSize != (3+2+0+5)/4.0 {
		t.Fatalf("AvgSize = %v", st.AvgSize)
	}
}

func TestStatsEmptyRepository(t *testing.T) {
	r := NewRepository(nil)
	st := r.Stats()
	if st.NumSets != 0 || st.AvgSize != 0 || st.MaxSize != 0 {
		t.Fatalf("Stats on empty = %+v", st)
	}
}

func TestPartitionCoversAllSetsExactlyOnce(t *testing.T) {
	raw := make([]Set, 103)
	for i := range raw {
		raw[i] = Set{Elements: []string{"e"}}
	}
	r := NewRepository(raw)
	for _, n := range []int{1, 2, 7, 10, 103, 500} {
		parts := r.Partition(n, 42)
		seen := map[int]bool{}
		for _, p := range parts {
			for _, id := range p {
				if seen[id] {
					t.Fatalf("n=%d: set %d in two partitions", n, id)
				}
				seen[id] = true
			}
		}
		if len(seen) != 103 {
			t.Fatalf("n=%d: %d sets covered, want 103", n, len(seen))
		}
		// Near-equal sizes: max-min ≤ 1.
		min, max := 104, 0
		for _, p := range parts {
			if len(p) < min {
				min = len(p)
			}
			if len(p) > max {
				max = len(p)
			}
		}
		if max-min > 1 {
			t.Fatalf("n=%d: partition sizes unbalanced (min=%d max=%d)", n, min, max)
		}
	}
}

func TestPartitionDeterministic(t *testing.T) {
	r := sample()
	p1 := r.Partition(2, 9)
	p2 := r.Partition(2, 9)
	for i := range p1 {
		if len(p1[i]) != len(p2[i]) {
			t.Fatal("partitions differ across calls with same seed")
		}
		for j := range p1[i] {
			if p1[i][j] != p2[i][j] {
				t.Fatal("partitions differ across calls with same seed")
			}
		}
	}
}

func TestPartitionZeroAndNegative(t *testing.T) {
	r := sample()
	if got := r.Partition(0, 1); len(got) != 1 {
		t.Fatalf("Partition(0) produced %d partitions", len(got))
	}
	if got := r.Partition(-3, 1); len(got) != 1 {
		t.Fatalf("Partition(-3) produced %d partitions", len(got))
	}
}

func TestCardinalityPercentiles(t *testing.T) {
	r := sample()
	got := r.CardinalityPercentiles(0, 50, 100)
	if got[0] != 0 || got[2] != 5 {
		t.Fatalf("percentiles = %v", got)
	}
	if got[1] < got[0] || got[1] > got[2] {
		t.Fatalf("median %d outside range", got[1])
	}
}

func TestTokenInterning(t *testing.T) {
	r := sample()
	// IDs are first-seen positions: Vocabulary()[id] inverts TokenID.
	for i, tok := range r.Vocabulary() {
		if got := r.TokenID(tok); got != int32(i) {
			t.Fatalf("TokenID(%q) = %d, want %d", tok, got, i)
		}
		if got := r.Token(int32(i)); got != tok {
			t.Fatalf("Token(%d) = %q, want %q", i, got, tok)
		}
	}
	if r.VocabSize() != len(r.Vocabulary()) {
		t.Fatalf("VocabSize = %d, want %d", r.VocabSize(), len(r.Vocabulary()))
	}
	if got := r.TokenID("no-such-token"); got != -1 {
		t.Fatalf("TokenID(miss) = %d, want -1", got)
	}
	ids := r.TokenIDs([]string{"x", "no-such-token", "w"})
	if ids[0] != r.TokenID("x") || ids[1] != -1 || ids[2] != r.TokenID("w") {
		t.Fatalf("TokenIDs = %v", ids)
	}
}

func TestSetElemIDs(t *testing.T) {
	r := sample()
	for _, s := range r.Sets() {
		if len(s.ElemIDs) != len(s.Elements) {
			t.Fatalf("set %d: %d ElemIDs for %d elements", s.ID, len(s.ElemIDs), len(s.Elements))
		}
		for j, e := range s.Elements {
			if s.ElemIDs[j] != r.TokenID(e) {
				t.Fatalf("set %d pos %d: ElemID %d != TokenID(%q) %d", s.ID, j, s.ElemIDs[j], e, r.TokenID(e))
			}
		}
	}
}

func TestDictionaryFromTokens(t *testing.T) {
	orig := NewDictionary()
	for _, tok := range []string{"c", "a", "b", "a"} {
		orig.Intern(tok)
	}
	d, err := NewDictionaryFromTokens(orig.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if d.Size() != orig.Size() {
		t.Fatalf("rebuilt size %d, want %d", d.Size(), orig.Size())
	}
	for _, tok := range []string{"c", "a", "b"} {
		if d.Lookup(tok) != orig.Lookup(tok) {
			t.Fatalf("%q: rebuilt ID %d, want %d", tok, d.Lookup(tok), orig.Lookup(tok))
		}
	}
	// Interning continues with the next dense ID.
	if id := d.Intern("new"); id != 3 {
		t.Fatalf("post-rebuild intern = %d, want 3", id)
	}
	// Duplicate tokens mean a corrupt vocabulary file.
	if _, err := NewDictionaryFromTokens([]string{"x", "y", "x"}); err == nil {
		t.Fatal("duplicate vocabulary accepted")
	}
}

func TestNewMappedSegment(t *testing.T) {
	dict := NewDictionary()
	seg1 := NewSegment(dict, []Set{{Name: "s1", Elements: []string{"a", "b"}}})
	// Two rows over one borrowed CSR: r1 = {b, a}, unnamed = {a}.
	elemIDs := []int32{1, 0, 0}
	repo, err := NewMappedSegment(dict, []string{"r1", ""}, []int64{0, 2, 3}, elemIDs, seg1.VocabSize())
	if err != nil {
		t.Fatal(err)
	}
	got := repo.Set(0)
	if got.Elements != nil || len(got.ElemIDs) != 2 || &got.ElemIDs[0] != &elemIDs[0] {
		t.Fatalf("row 0 = %+v, want a view of the borrowed IDs and no strings", got)
	}
	if el := repo.Elements(0); len(el) != 2 || el[0] != "b" || el[1] != "a" {
		t.Fatalf("row 0 elements = %v", el)
	}
	if repo.Set(1).Name != "set-1" {
		t.Fatalf("empty name not defaulted: %q", repo.Set(1).Name)
	}
	if repo.VocabSize() != seg1.VocabSize() {
		t.Fatalf("horizon %d, want %d", repo.VocabSize(), seg1.VocabSize())
	}
	// Horizons beyond the dictionary and offsets that do not fit the names
	// fail.
	if _, err := NewMappedSegment(dict, nil, []int64{0}, nil, dict.Size()+1); err == nil {
		t.Fatal("horizon beyond dictionary accepted")
	}
	if _, err := NewMappedSegment(dict, []string{"x"}, []int64{0}, nil, dict.Size()); err == nil {
		t.Fatal("one offset for one name accepted")
	}
}
