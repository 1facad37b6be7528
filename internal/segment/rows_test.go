package segment

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/datagen"
	"repro/internal/model"
	"repro/internal/sets"
	"repro/internal/sim"
)

// TestRowRoundTrip holds the one row shape (DESIGN.md §3) on three seeded
// op sequences (runOps).
func TestRowRoundTrip(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Logf("ops: %v", runOps(t, seededOps(seed)))
		})
	}
}

// FuzzOpsVsModel runs the op sequences fuzz bytes decode into (runOps),
// from TestRowRoundTrip's sequences on.
func FuzzOpsVsModel(f *testing.F) {
	for _, seed := range []int64{1, 2, 3} {
		f.Add(seededOps(seed))
	}
	f.Fuzz(func(t *testing.T, ops []byte) { runOps(t, ops) })
}

// seededOps is the op sequence of a seed: 600 bytes of its generator.
func seededOps(seed int64) []byte {
	ops := make([]byte, 600)
	rand.New(rand.NewSource(seed)).Read(ops)
	return ops
}

// opBytes hands out an op sequence's choices, one byte each.
type opBytes []byte

// intn is the next choice in [0, n), 0 once the bytes run out.
func (b *opBytes) intn(n int) int {
	if len(*b) == 0 {
		return 0
	}
	v := int((*b)[0]) % n
	*b = (*b)[1:]
	return v
}

// roundTripData is runOps' corpus: twitter at scale 0.01.
var roundTripData = sync.OnceValue(func() *datagen.Dataset { return datagen.GenerateDefault(datagen.Twitter, 0.01) })

// runOps decodes ops into at most 60 steps of inserts (with repeated
// elements, with tokens the dictionary lacks, and empty), replacements,
// deletes, seals, compactions, checkpoints and durable reopens (which serve
// mapped segments) on one durable manager in a temporary directory, and
// applies them to a model.Collection too. After every step Len, LiveSets
// and SetByName must equal the model — each set's distinct elements in
// first-occurrence order, an empty set as [] and never nil — and a fixed
// query set, with a live set's elements and those twice over, must answer
// as a from-scratch engine over the model's sets does (assertEquivalentTo),
// in the memtable as after a seal. The reference model answers each search
// as well (rankerTopK, under liveDot): the manager, and a from-scratch
// engine over the model's sets in a shuffled order, must return its names
// and score bits. Each check builds the in-order engine, the shuffled one
// and the model's ranker once, for all of its queries.
// It returns how often each op ran.
func runOps(t *testing.T, ops []byte) map[string]int {
	ds := roundTripData()
	pool := ds.Repo.Sets()
	vec := ds.Model.Vector
	opts := testOpts()
	cfg := Config{SealThreshold: 6}
	dir := t.TempDir()
	open := func() *Manager {
		t.Helper()
		m, err := Open(dir, pool[:5], dynamicBuilder(vec), opts, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	m := open()
	defer func() { m.Close() }()
	o := model.NewCollection()
	for _, s := range pool[:5] {
		o.Insert(s.Name, s.Elements)
	}
	src := opBytes(ops)

	// raw draws a request's elements: a pool set with some of its
	// elements repeated out of order, now and then a token no set holds
	// (twice), now and then nothing.
	fresh := 0
	raw := func() []string {
		if src.intn(12) == 0 {
			return nil
		}
		elems := slices.Clone(pool[src.intn(len(pool))].Elements)
		for n := src.intn(4); n > 0 && len(elems) > 0; n-- {
			elems = slices.Insert(elems, src.intn(len(elems)+1), elems[src.intn(len(elems))])
		}
		if src.intn(3) == 0 {
			fresh++
			tok := fmt.Sprintf("fresh-%d", fresh)
			elems = append(append([]string{tok}, elems...), tok)
		}
		return elems
	}
	liveName := func() string { return o.Name(src.intn(o.Len())) }
	fixed := [][]string{pool[7].Elements, append(slices.Clone(pool[11].Elements), pool[11].Elements[0]), append([]string{"nowhere"}, pool[13].Elements...)}
	check := func(label string) {
		t.Helper()
		if m.Len() != o.Len() {
			t.Fatalf("%s: Len %d, model %d", label, m.Len(), o.Len())
		}
		live := m.LiveSets()
		if len(live) != o.Len() {
			t.Fatalf("%s: %d live sets, model %d", label, len(live), o.Len())
		}
		for i, rec := range live {
			elems, _ := o.Elements(o.Name(i))
			want := sets.Dedup(elems)
			if rec.Name != o.Name(i) || rec.Elements == nil || !slices.Equal(rec.Elements, want) {
				t.Fatalf("%s: live set %d = %q %#v, model %q %v", label, i, rec.Name, rec.Elements, o.Name(i), want)
			}
			got, ok := m.SetByName(rec.Name)
			if !ok || got.ID != rec.ID || got.Elements == nil || !slices.Equal(got.Elements, want) {
				t.Fatalf("%s: SetByName(%q) = %+v, %v; want handle %d, %v", label, rec.Name, got, ok, rec.ID, want)
			}
		}
		q, _ := o.Elements(liveName())
		shuffled := o.Sets()
		rand.New(rand.NewSource(int64(len(ops)))).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		eng, repo := scratchEngine(shuffled, vec, opts)
		rows := o.Sets()
		ref, refRepo := scratchEngine(rows, vec, opts)
		held := make(map[string]bool)
		for _, s := range shuffled {
			for _, e := range s.Elements {
				held[e] = true
			}
		}
		rk := model.NewRanker(rows, liveDot{held, vec}, opts.Alpha)
		for _, query := range append([][]string{q, append(slices.Clone(q), q...)}, fixed...) {
			if len(query) == 0 {
				continue
			}
			assertEquivalentTo(t, label, m, ref, refRepo, query, 0)
			want := rankerTopK(t, rk, query, opts.K)
			got, _, err := m.Search(context.Background(), query, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !sameAnswer(got, want) {
				t.Fatalf("%s: manager answered %v, the model %v (query %v)", label, got, want, query)
			}
			res, _ := eng.Search(query)
			fromScratch := make([]Result, len(res))
			for i, r := range res {
				fromScratch[i] = Result{Name: repo.Set(r.SetID).Name, Score: r.Score}
			}
			if !sameAnswer(fromScratch, want) {
				t.Fatalf("%s: a from-scratch engine over the sets shuffled answered %v, the model %v", label, fromScratch, want)
			}
		}
	}

	check("open")
	ran := make(map[string]int)
	for step := 0; len(src) > 0 && step < 60; step++ {
		label := fmt.Sprintf("step %d", step)
		switch op := src.intn(20); {
		case op < 8:
			name := fmt.Sprintf("n-%d", step)
			elems := raw()
			mustInsert(t, m, name, elems)
			o.Insert(name, elems)
			label += " insert " + name
			ran["insert"]++
		case op < 12:
			name, elems := liveName(), raw()
			mustInsert(t, m, name, elems)
			o.Insert(name, elems)
			label += " replace " + name
			ran["replace"]++
		case op < 15 && o.Len() > 1:
			name := liveName()
			mustDelete(t, m, name)
			o.Delete(name)
			label += " delete " + name
			ran["delete"]++
		case op < 16:
			if err := m.Flush(); err != nil {
				t.Fatal(err)
			}
			label += " seal"
			ran["seal"]++
		case op < 18:
			if err := m.Compact(); err != nil {
				t.Fatal(err)
			}
			label += " compact"
			ran["compact"]++
		case op < 19:
			if err := m.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			label += " checkpoint"
			ran["checkpoint"]++
		default:
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			m = open()
			for _, s := range m.sealed {
				if s.mseg == nil {
					t.Fatalf("%s: reopened segment %s is not served from its file", label, s.file)
				}
			}
			label += " reopen"
			ran["reopen"]++
		}
		check(label)
	}
	return ran
}

// liveDot is the similarity a from-scratch index over a collection's sets
// scores with: 1 between equal elements, sim.Dot of their vectors between
// others, and none for an element that no set holds (live), since such an
// index has no vector for it.
type liveDot struct {
	live map[string]bool
	vec  func(string) ([]float32, bool)
}

func (d liveDot) Sim(a, b string) float64 {
	if a == b {
		return 1
	}
	va, ok := d.vec(a)
	vb, ok2 := d.vec(b)
	if !d.live[a] || !d.live[b] || !ok || !ok2 {
		return 0
	}
	return sim.Dot(va, vb)
}
func (liveDot) Name() string { return "live dot" }

// modelTopK is the reference model's first k sets of rows for query, under
// fn at alpha, by name and score.
func modelTopK(t testing.TB, rows []sets.Set, fn sim.Func, alpha float64, query []string, k int) []Result {
	t.Helper()
	return rankerTopK(t, model.NewRanker(rows, fn, alpha), query, k)
}

// rankerTopK is modelTopK on a ranker already built: one ranker answers
// every query over the same rows.
func rankerTopK(t testing.TB, rk *model.Ranker, query []string, k int) []Result {
	t.Helper()
	res, err := rk.TopK(query, k)
	if err != nil {
		t.Fatalf("model: %v", err)
	}
	out := make([]Result, len(res))
	for i, r := range res {
		out[i] = Result{Name: r.Name, Score: r.Score}
	}
	return out
}

// BenchmarkCompact times one merge of several sealed segments with
// tombstones: the twitter corpus at scale 0.5 inserted at SealThreshold 256
// and sealed, every fifth set deleted, then compacted, outside any durable
// directory so no checkpoint is timed. allocs/op and B/op are the merge's (DESIGN.md §4:
// it copies token IDs and resolves no string).
func BenchmarkCompact(b *testing.B) {
	ds := datagen.GenerateDefault(datagen.Twitter, 0.5)
	all := ds.Repo.Sets()
	opts := core.Options{K: 10, Alpha: 0.8, Partitions: 1, Workers: 1, ExactScores: true}.WithDefaults()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := NewManager(nil, dynamicBuilder(ds.Model.Vector), opts, Config{SealThreshold: 256})
		for _, s := range all {
			mustInsert(b, m, s.Name, s.Elements)
		}
		if err := m.Flush(); err != nil {
			b.Fatal(err)
		}
		for j := 0; j < len(all); j += 5 {
			mustDelete(b, m, all[j].Name)
		}
		segs, _, dead := m.Segments()
		b.StartTimer()
		if err := m.Compact(); err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(segs), "segments")
		b.ReportMetric(float64(dead), "tombstones")
	}
}
