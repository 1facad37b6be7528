package koios

import (
	"context"
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/sets"
)

const tol = 1e-9

func demoCollection() []Set {
	return []Set{
		{Name: "C1", Elements: []string{"LA", "Blain", "Appleton", "MtPleasant", "Lexington", "WestCoast"}},
		{Name: "C2", Elements: []string{"LA", "Sacramento", "Southern", "Blain", "SC", "Minnesota", "NewYorkCity"}},
	}
}

type figure1Sim struct{ m map[[2]string]float64 }

func newFigure1Sim() figure1Sim {
	f := figure1Sim{m: map[[2]string]float64{}}
	set := func(a, b string, s float64) { f.m[[2]string{a, b}] = s; f.m[[2]string{b, a}] = s }
	set("Blaine", "Blain", 0.99)
	set("Seattle", "WestCoast", 0.70)
	set("Columbia", "Lexington", 0.70)
	set("Charleston", "MtPleasant", 0.70)
	set("BigApple", "NewYorkCity", 0.90)
	set("Columbia", "Southern", 0.85)
	set("Columbia", "SC", 0.80)
	set("Charleston", "Southern", 0.80)
	return f
}

func (f figure1Sim) Sim(a, b string) float64 {
	if a == b {
		return 1
	}
	return f.m[[2]string{a, b}]
}
func (f figure1Sim) Name() string { return "figure1" }

var figure1Query = []string{"LA", "Seattle", "Columbia", "Blaine", "BigApple", "Charleston"}

func TestPublicAPIFigure1(t *testing.T) {
	eng := New(demoCollection(), newFigure1Sim(), Config{K: 2, Alpha: 0.7, ExactScores: true})
	results, stats := eng.Search(figure1Query)
	if len(results) != 2 {
		t.Fatalf("got %d results", len(results))
	}
	if results[0].SetName != "C2" || math.Abs(results[0].Score-4.49) > tol {
		t.Fatalf("top-1 = %+v, want C2 @ 4.49", results[0])
	}
	if results[1].SetName != "C1" || math.Abs(results[1].Score-4.09) > tol {
		t.Fatalf("top-2 = %+v, want C1 @ 4.09", results[1])
	}
	if !results[0].Verified {
		t.Fatal("ExactScores did not verify results")
	}
	if stats.Candidates != 2 {
		t.Fatalf("candidates = %d, want 2", stats.Candidates)
	}
	if eng.Collection() != 2 || eng.Vocabulary() != 11 {
		t.Fatalf("Collection/Vocabulary = %d/%d", eng.Collection(), eng.Vocabulary())
	}
}

func TestSemanticOverlapUtility(t *testing.T) {
	fn := newFigure1Sim()
	c2 := demoCollection()[1].Elements
	if got := SemanticOverlap(figure1Query, c2, fn, 0.7); math.Abs(got-4.49) > tol {
		t.Fatalf("SemanticOverlap = %v, want 4.49", got)
	}
	// Symmetry (Def. 1: the measure is symmetric).
	if ab, ba := SemanticOverlap(figure1Query, c2, fn, 0.7), SemanticOverlap(c2, figure1Query, fn, 0.7); math.Abs(ab-ba) > tol {
		t.Fatalf("asymmetric: %v vs %v", ab, ba)
	}
	if got := SemanticOverlap(nil, c2, fn, 0.7); got != 0 {
		t.Fatalf("empty set overlap = %v", got)
	}
	// α above every edge leaves only the exact match LA.
	if got := SemanticOverlap(figure1Query, c2, fn, 0.995); math.Abs(got-1) > tol {
		t.Fatalf("high-α overlap = %v, want 1 (identity only)", got)
	}
}

func TestVanillaOverlapIsLowerBound(t *testing.T) {
	fn := newFigure1Sim()
	for _, c := range demoCollection() {
		v := float64(VanillaOverlap(figure1Query, c.Elements))
		s := SemanticOverlap(figure1Query, c.Elements, fn, 0.7)
		if v > s+tol {
			t.Fatalf("vanilla %v exceeds semantic %v for %s (Lemma 1)", v, s, c.Name)
		}
	}
	if got := VanillaOverlap([]string{"a", "a", "b"}, []string{"a", "b", "b"}); got != 2 {
		t.Fatalf("VanillaOverlap with duplicates = %d, want 2", got)
	}
}

func TestGreedyOverlapPaperGap(t *testing.T) {
	fn := newFigure1Sim()
	c2 := demoCollection()[1].Elements
	g := GreedyOverlap(figure1Query, c2, fn, 0.7)
	if math.Abs(g-3.74) > tol {
		t.Fatalf("GreedyOverlap = %v, want 3.74", g)
	}
	s := SemanticOverlap(figure1Query, c2, fn, 0.7)
	if g > s+tol || g < s/2-tol {
		t.Fatalf("greedy %v outside [opt/2, opt] for opt %v", g, s)
	}
}

func TestExactSimilarityReducesToVanilla(t *testing.T) {
	a := []string{"x", "y", "z"}
	b := []string{"y", "z", "w"}
	if got := SemanticOverlap(a, b, Exact(), 0.5); got != float64(VanillaOverlap(a, b)) {
		t.Fatalf("Exact semantic overlap %v != vanilla %d", got, VanillaOverlap(a, b))
	}
}

func TestBuiltinSimilarities(t *testing.T) {
	if got := JaccardQGrams(3).Sim("Blaine", "Blain"); math.Abs(got-0.75) > tol {
		t.Fatalf("JaccardQGrams = %v", got)
	}
	if got := JaccardWords().Sim("new york", "york city"); math.Abs(got-1.0/3.0) > tol {
		t.Fatalf("JaccardWords = %v", got)
	}
	if got := EditSimilarity().Sim("abc", "abd"); math.Abs(got-2.0/3.0) > tol {
		t.Fatalf("EditSimilarity = %v", got)
	}
	vec := func(tok string) ([]float32, bool) {
		switch tok {
		case "a":
			return []float32{1, 0}, true
		case "b":
			return []float32{0.8, 0.6}, true
		}
		return nil, false
	}
	cs := CosineSimilarity(VectorFunc(vec))
	if got := cs.Sim("a", "b"); math.Abs(got-0.8) > 1e-6 {
		t.Fatalf("CosineSimilarity = %v", got)
	}
	if cs.Sim("a", "oov") != 0 || cs.Sim("oov", "oov") != 1 {
		t.Fatal("OOV rules broken")
	}
}

func TestGenerateDatasetPublic(t *testing.T) {
	ds, err := GenerateDataset("twitter", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Collection) == 0 || len(ds.Queries) == 0 {
		t.Fatal("empty dataset")
	}
	if _, err := GenerateDataset("nope", 1); err == nil {
		t.Fatal("unknown kind accepted")
	}
	// The dataset must be searchable end to end through the public API.
	eng := NewWithVectors(ds.Collection, ds.Vectors, Config{K: 3, Alpha: 0.8})
	results, _ := eng.Search(ds.Queries[0].Elements)
	if len(results) == 0 {
		t.Fatal("no results for a benchmark query sampled from the data")
	}
	// The query is a set of the collection: top-1 must reach at least its
	// own cardinality (self-similarity).
	if results[0].Score < float64(len(sets.Dedup(ds.Queries[0].Elements)))-tol {
		t.Fatalf("top-1 score %v below self overlap %d", results[0].Score, len(ds.Queries[0].Elements))
	}
}

func TestInsertDeletePublicAPI(t *testing.T) {
	eng := New(demoCollection(), newFigure1Sim(), Config{K: 3, Alpha: 0.7, ExactScores: true})

	// Insert a third set that beats both demo sets on the Figure 1 query.
	id, err := eng.Insert(Set{Name: "C3", Elements: figure1Query})
	if err != nil {
		t.Fatal(err)
	}
	if id != 2 {
		t.Fatalf("insert SetID = %d, want 2", id)
	}
	if eng.Collection() != 3 {
		t.Fatalf("Collection = %d after insert", eng.Collection())
	}
	results, _ := eng.Search(figure1Query)
	if len(results) != 3 || results[0].SetName != "C3" {
		t.Fatalf("inserted set not ranked first: %+v", results)
	}
	if math.Abs(results[0].Score-float64(len(figure1Query))) > tol {
		t.Fatalf("self score = %v", results[0].Score)
	}
	// The original ranking holds below it.
	if results[1].SetName != "C2" || math.Abs(results[1].Score-4.49) > tol {
		t.Fatalf("rank 2 = %+v, want C2 @ 4.49", results[1])
	}

	// Replace C3 with a single element; it drops to the bottom.
	if _, err := eng.Insert(Set{Name: "C3", Elements: []string{"LA"}}); err != nil {
		t.Fatal(err)
	}
	if eng.Collection() != 3 {
		t.Fatalf("Collection = %d after replace", eng.Collection())
	}
	results, _ = eng.Search(figure1Query)
	if results[0].SetName != "C2" || results[2].SetName != "C3" {
		t.Fatalf("replace did not take: %+v", results)
	}

	// Delete it; the engine behaves like the original two-set collection.
	if ok, err := eng.Delete("C3"); err != nil || !ok {
		t.Fatalf("delete failed: %v, %v", ok, err)
	}
	if ok, err := eng.Delete("C3"); err != nil || ok {
		t.Fatalf("double delete succeeded: %v, %v", ok, err)
	}
	eng.Compact()
	results, stats := eng.Search(figure1Query)
	if len(results) != 2 || results[0].SetName != "C2" || math.Abs(results[0].Score-4.49) > tol {
		t.Fatalf("post-delete search = %+v", results)
	}
	if stats.Segments < 1 {
		t.Fatalf("stats.Segments = %d", stats.Segments)
	}
	if sealed, _, _ := eng.Segments(); sealed != 1 {
		t.Fatalf("sealed = %d after Compact", sealed)
	}
}

func TestInsertRejectedOnApproximateSource(t *testing.T) {
	ds, err := GenerateDataset("twitter", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewWithSource(ds.Collection, SourceMinHashLSH(3, 16, 4), Config{K: 3, Alpha: 0.5})
	if _, err := eng.Insert(Set{Name: "x", Elements: []string{"a"}}); err != ErrImmutable {
		t.Fatalf("Insert on approximate source: %v", err)
	}
	// Deletes still work: they need no index support.
	if ok, err := eng.Delete(ds.Collection[0].Name); err != nil || !ok {
		t.Fatalf("delete on approximate source failed: %v, %v", ok, err)
	}
}

// TestOpenFlushCheckpointClose drives the durable lifecycle through the
// public API: a fresh directory is seeded, mutated, checkpointed, and
// reopened; results and scores are identical before and after, and the
// directory recovers even without a graceful Close (WAL replay).
func TestOpenFlushCheckpointClose(t *testing.T) {
	dir := t.TempDir()
	eng, err := Open(dir, demoCollection(), newFigure1Sim(), Config{K: 2, Alpha: 0.7, ExactScores: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Insert(Set{Name: "C3", Elements: []string{"LA", "Blain", "Columbia"}}); err != nil {
		t.Fatal(err)
	}
	if err := eng.Flush(); err != nil {
		t.Fatal(err)
	}
	if sealed, memtable, _ := eng.Segments(); sealed < 2 || memtable != 0 {
		t.Fatalf("Flush left %d sealed, %d memtable", sealed, memtable)
	}
	if ok, err := eng.Delete("C1"); err != nil || !ok {
		t.Fatalf("durable delete: %v, %v", ok, err)
	}
	before, _ := eng.Search(figure1Query)
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Insert(Set{Name: "x", Elements: []string{"y"}}); err != ErrClosed {
		t.Fatalf("insert after Close: %v", err)
	}

	// Reopen: the collection (insert + flush + delete) survived; the seed
	// argument is ignored on initialized directories.
	eng2, err := Open(dir, nil, newFigure1Sim(), Config{K: 2, Alpha: 0.7, ExactScores: true})
	if err != nil {
		t.Fatal(err)
	}
	if eng2.Collection() != 2 {
		t.Fatalf("reopened Collection = %d, want 2", eng2.Collection())
	}
	after, _ := eng2.Search(figure1Query)
	if len(after) != len(before) {
		t.Fatalf("%d results after reopen, %d before", len(after), len(before))
	}
	for i := range before {
		if after[i].SetName != before[i].SetName || after[i].Score != before[i].Score {
			t.Fatalf("rank %d: %+v after reopen, %+v before", i, after[i], before[i])
		}
	}
	// Checkpoint is an explicit durability point: mutate, checkpoint, and
	// abandon the engine without Close — the next Open must still see it.
	if _, err := eng2.Insert(Set{Name: "C4", Elements: []string{"Sacramento"}}); err != nil {
		t.Fatal(err)
	}
	if err := eng2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	eng3, err := Open(dir, nil, newFigure1Sim(), Config{K: 2, Alpha: 0.7, ExactScores: true})
	if err != nil {
		t.Fatal(err)
	}
	defer eng3.Close()
	if eng3.Collection() != 3 {
		t.Fatalf("post-checkpoint reopen Collection = %d, want 3", eng3.Collection())
	}
	// In-memory engines answer the durability calls with no-ops.
	mem := New(demoCollection(), newFigure1Sim(), Config{K: 2, Alpha: 0.7})
	if err := mem.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := mem.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSearchContextCanceled(t *testing.T) {
	eng := New(demoCollection(), newFigure1Sim(), Config{K: 2, Alpha: 0.7})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := eng.SearchContext(ctx, figure1Query); err != context.Canceled {
		t.Fatalf("canceled SearchContext returned %v", err)
	}
	// And a live context still works through the same path.
	if results, _, err := eng.SearchContext(context.Background(), figure1Query); err != nil || len(results) != 2 {
		t.Fatalf("SearchContext = %v, %v", results, err)
	}
}

func TestConcurrentSearchInsertPublicAPI(t *testing.T) {
	ds, err := GenerateDataset("twitter", 0.01)
	if err != nil {
		t.Fatal(err)
	}
	half := len(ds.Collection) / 2
	eng := NewWithVectors(ds.Collection[:half], ds.Vectors, Config{
		K: 5, Alpha: 0.8, SealThreshold: 8, MaxSegments: 2,
	})
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				q := ds.Collection[(g*31+i)%len(ds.Collection)].Elements
				eng.Search(q)
			}
		}(g)
	}
	for _, s := range ds.Collection[half:] {
		if _, err := eng.Insert(Set{Name: s.Name, Elements: s.Elements}); err != nil {
			t.Error(err)
			break
		}
	}
	stop.Store(true)
	wg.Wait()
	if eng.Collection() != len(ds.Collection) {
		t.Fatalf("Collection = %d, want %d", eng.Collection(), len(ds.Collection))
	}
	// Everything inserted is now findable.
	last := ds.Collection[len(ds.Collection)-1]
	results, _ := eng.Search(last.Elements)
	found := false
	for _, r := range results {
		if r.SetName == last.Name {
			found = true
		}
	}
	if !found {
		t.Fatal("set inserted under concurrent searches is not findable")
	}
}

func TestApproximateSources(t *testing.T) {
	ds, err := GenerateDataset("twitter", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	exact := NewWithVectors(ds.Collection, ds.Vectors, Config{K: 5, Alpha: 0.8, ExactScores: true})
	ivf := NewWithSource(ds.Collection, SourceIVF(ds.Vectors, 16, 16), Config{K: 5, Alpha: 0.8, ExactScores: true})
	q := ds.Queries[1].Elements
	re, _ := exact.Search(q)
	ri, _ := ivf.Search(q)
	// Full-probe IVF equals the exact index.
	if len(re) != len(ri) {
		t.Fatalf("full-probe IVF differs: %d vs %d results", len(ri), len(re))
	}
	for i := range re {
		if math.Abs(re[i].Score-ri[i].Score) > 1e-6 {
			t.Fatalf("rank %d: IVF %v vs exact %v", i, ri[i].Score, re[i].Score)
		}
	}
	lsh := NewWithSource(ds.Collection, SourceMinHashLSH(3, 16, 4), Config{K: 5, Alpha: 0.5})
	if r, _ := lsh.Search(q); len(r) == 0 {
		t.Fatal("LSH source found nothing for a self query")
	}
	hnsw := NewWithSource(ds.Collection, SourceHNSW(ds.Vectors, 0, 0, 0), Config{K: 5, Alpha: 0.8, ExactScores: true})
	rh, _ := hnsw.Search(q)
	if len(rh) == 0 {
		t.Fatal("HNSW source found nothing for a self query")
	}
	// The self set must surface despite approximate retrieval (identity
	// tuples bypass the index entirely).
	if rh[0].Score < float64(len(sets.Dedup(q)))-tol {
		t.Fatalf("HNSW top-1 %v below self overlap", rh[0].Score)
	}
}

func TestSearchBatchPublicAPI(t *testing.T) {
	ds, err := GenerateDataset("twitter", 0.01)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewWithVectors(ds.Collection, ds.Vectors, Config{K: 5, Alpha: 0.8, BatchWorkers: 3})
	queries := [][]string{
		ds.Collection[0].Elements,
		ds.Collection[3].Elements,
		ds.Collection[0].Elements, // repeated
		ds.Collection[7].Elements,
	}
	batch, stats, err := eng.SearchBatch(context.Background(), queries)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(queries) || len(stats) != len(queries) {
		t.Fatalf("batch returned %d results / %d stats for %d queries", len(batch), len(stats), len(queries))
	}
	for i, q := range queries {
		want, _ := eng.Search(q)
		if len(batch[i]) != len(want) {
			t.Fatalf("query %d: batch %d results, serial %d", i, len(batch[i]), len(want))
		}
		for j := range want {
			if batch[i][j] != want[j] {
				t.Fatalf("query %d rank %d: batch %+v, serial %+v", i, j, batch[i][j], want[j])
			}
		}
	}
	// Canceled batches surface the context error.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := eng.SearchBatch(ctx, queries); err == nil {
		t.Fatal("canceled SearchBatch returned nil error")
	}
}
