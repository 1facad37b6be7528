package model

import (
	"slices"
	"testing"

	"repro/internal/sets"
	"repro/internal/sim"
)

// TestCollectionOrder: a replacing insert moves its set to the end, and a
// delete of a name the collection lacks changes nothing.
func TestCollectionOrder(t *testing.T) {
	c := NewCollection()
	c.Insert("a", []string{"x"})
	c.Insert("b", []string{"y"})
	c.Insert("a", []string{"z"})
	c.Delete("b")
	c.Delete("b")
	c.Insert("c", nil)
	if got := c.Sets(); len(got) != 2 || got[0].Name != "a" || got[0].Elements[0] != "z" || got[1].Name != "c" {
		t.Fatalf("Sets = %v, want a [z], c []", got)
	}
}

// TestTopKRule: equal scores rank by name, then by position; sets of no
// overlap are no answer; repeated elements count once.
func TestTopKRule(t *testing.T) {
	rows := []sets.Set{
		{Name: "b", Elements: []string{"q1"}},
		{Name: "a", Elements: []string{"q2", "q2"}},
		{Name: "b", Elements: []string{"q2"}},
		{Name: "c", Elements: []string{"q1", "q2"}},
		{Name: "d", Elements: []string{"other"}},
	}
	got, err := NewRanker(rows, sim.EditSimilarity{}, 1).TopK([]string{"q2", "q1", "q1"}, 10)
	if err != nil {
		t.Fatal(err)
	}
	want := []Result{{3, "c", 2}, {1, "a", 1}, {0, "b", 1}, {2, "b", 1}}
	if !slices.Equal(got, want) {
		t.Fatalf("TopK = %v, want %v", got, want)
	}
	if so, err := Score([]string{"q1"}, []string{"q1", "q1"}, sim.EditSimilarity{}, 1); err != nil || so != 1 {
		t.Fatalf("Score = %v, %v; want 1", so, err)
	}
}
