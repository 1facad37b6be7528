package index

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/embedding"
	"repro/internal/sets"
	"repro/internal/sim"
)

func repo() *sets.Repository {
	return sets.NewRepository([]sets.Set{
		{Name: "c0", Elements: []string{"a", "b", "c"}},
		{Name: "c1", Elements: []string{"b", "c", "d"}},
		{Name: "c2", Elements: []string{"e"}},
		{Name: "c3", Elements: nil},
	})
}

func TestInvertedPostings(t *testing.T) {
	r := repo()
	inv := NewInverted(r)
	if got := inv.Sets("b"); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Fatalf("postings for b = %v", got)
	}
	if got := inv.Sets("zzz"); got != nil {
		t.Fatalf("postings for unknown token = %v", got)
	}
	// Five tokens have postings, seven in all (Σ|C|).
	tokens, entries := 0, 0
	for tid := int32(0); tid < int32(r.VocabSize()); tid++ {
		sids, _ := inv.Postings(tid)
		if len(sids) > 0 {
			tokens++
		}
		entries += len(sids)
	}
	if tokens != 5 || entries != 7 {
		t.Fatalf("%d tokens with %d postings, want 5 and 7", tokens, entries)
	}
}

func TestInvertedSubset(t *testing.T) {
	inv := NewInvertedSubset(repo(), 1, 3)
	if got := inv.Sets("b"); len(got) != 1 || got[0] != 1 {
		t.Fatalf("subset postings for b = %v", got)
	}
	if got := inv.Sets("a"); got != nil {
		t.Fatalf("subset should not index set 0: %v", got)
	}
}

func testModel() *embedding.Model {
	return embedding.NewModel(embedding.Config{Clusters: 60, Seed: 5})
}

func TestExactNeighborsMatchBruteForce(t *testing.T) {
	m := testModel()
	vocab := m.Tokens()
	ex := NewExact(vocab, m.Vector)
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 30; trial++ {
		q := vocab[rng.Intn(len(vocab))]
		alpha := 0.5 + rng.Float64()*0.4
		got := ex.Neighbors(q, alpha)
		// Brute force truth via the model's own sim.
		var want []Neighbor
		for _, tok := range vocab {
			if tok == q {
				continue
			}
			if s := m.Sim(q, tok); s >= alpha {
				want = append(want, Neighbor{Token: tok, Sim: s})
			}
		}
		if len(got) != len(want) {
			t.Fatalf("q=%q α=%.2f: %d neighbors, want %d", q, alpha, len(got), len(want))
		}
		if !sort.SliceIsSorted(got, func(i, j int) bool {
			if got[i].Sim != got[j].Sim {
				return got[i].Sim > got[j].Sim
			}
			return got[i].Token < got[j].Token
		}) {
			t.Fatalf("neighbors not sorted: %v", got)
		}
		wantSet := map[string]bool{}
		for _, n := range want {
			wantSet[n.Token] = true
		}
		for _, n := range got {
			if !wantSet[n.Token] {
				t.Fatalf("unexpected neighbor %q", n.Token)
			}
		}
	}
}

func TestExactOOVQuery(t *testing.T) {
	m := testModel()
	ex := NewExact(m.Tokens(), m.Vector)
	if got := ex.Neighbors("no-such-token", 0.5); got != nil {
		t.Fatalf("OOV query returned %v", got)
	}
}

func TestExactExcludesSelf(t *testing.T) {
	m := testModel()
	vocab := m.Tokens()
	ex := NewExact(vocab, m.Vector)
	for _, q := range vocab[:20] {
		for _, n := range ex.Neighbors(q, 0.0) {
			if n.Token == q {
				t.Fatalf("self token %q in neighbors", q)
			}
		}
	}
}

func TestIVFRecall(t *testing.T) {
	m := testModel()
	vocab := m.Tokens()
	ex := NewExact(vocab, m.Vector)
	ivf := NewIVF(vocab, m.Vector, 16, 4, 1)
	rng := rand.New(rand.NewSource(9))
	found, want := 0, 0
	for trial := 0; trial < 40; trial++ {
		q := vocab[rng.Intn(len(vocab))]
		truth := ex.Neighbors(q, 0.8)
		got := ivf.Neighbors(q, 0.8)
		gotSet := map[string]bool{}
		for _, n := range got {
			gotSet[n.Token] = true
			// Precision must be 1: IVF verifies with the exact dot product.
			okInTruth := false
			for _, tr := range truth {
				if tr.Token == n.Token {
					okInTruth = true
					break
				}
			}
			if !okInTruth {
				t.Fatalf("IVF returned non-neighbor %q", n.Token)
			}
		}
		want += len(truth)
		for _, tr := range truth {
			if gotSet[tr.Token] {
				found++
			}
		}
	}
	if want == 0 {
		t.Fatal("no ground-truth neighbors at α=0.8")
	}
	if recall := float64(found) / float64(want); recall < 0.6 {
		t.Fatalf("IVF recall %.2f too low for nprobe=4/16", recall)
	}
}

func TestIVFFullProbeIsExact(t *testing.T) {
	m := testModel()
	vocab := m.Tokens()
	ex := NewExact(vocab, m.Vector)
	ivf := NewIVF(vocab, m.Vector, 8, 8, 1) // probe every list
	for _, q := range vocab[:15] {
		truth := ex.Neighbors(q, 0.75)
		got := ivf.Neighbors(q, 0.75)
		if len(got) != len(truth) {
			t.Fatalf("full-probe IVF differs from exact for %q: %d vs %d", q, len(got), len(truth))
		}
	}
}

func TestFuncIndexAgainstDirectScan(t *testing.T) {
	vocab := []string{"Blaine", "Blain", "BigApple", "Appleton", "NewYorkCity", "LA"}
	fi := NewFuncIndex(vocab, sim.JaccardQGrams{Q: 3})
	got := fi.Neighbors("Blaine", 0.5)
	if len(got) != 1 || got[0].Token != "Blain" {
		t.Fatalf("Neighbors(Blaine) = %v", got)
	}
	got = fi.Neighbors("BigApple", 0.3)
	if len(got) != 1 || got[0].Token != "Appleton" {
		t.Fatalf("Neighbors(BigApple) = %v", got)
	}
}

func TestMinHashLSHRecallAndPrecision(t *testing.T) {
	// Vocabulary of typo-heavy tokens: LSH must find most high-Jaccard pairs.
	m := embedding.NewModel(embedding.Config{Clusters: 200, TypoFraction: 0.9, Seed: 31})
	vocab := m.Tokens()
	l := NewMinHashLSH(vocab, 3, 16, 4, 7)
	if l.Len() != len(vocab) {
		t.Fatalf("Len = %d, want %d", l.Len(), len(vocab))
	}
	queries := vocab[:40]
	if recall := lshRecall(l, queries, 0.5); recall < 0.7 {
		t.Fatalf("LSH recall %.2f < 0.7 at α=0.5 with 16 bands", recall)
	}
	// Precision is exact by construction: every returned neighbor verifies.
	jac := sim.JaccardQGrams{Q: 3}
	for _, q := range queries {
		for _, n := range l.Neighbors(q, 0.5) {
			if jac.Sim(q, n.Token) < 0.5 {
				t.Fatalf("LSH returned sub-threshold pair (%q,%q)", q, n.Token)
			}
		}
	}
}

func TestMinHashLSHUnindexedQuery(t *testing.T) {
	l := NewMinHashLSH([]string{"alpha", "alphas", "beta"}, 3, 16, 2, 1)
	got := l.Neighbors("alpha!", 0.3) // not indexed; signature computed on the fly
	found := false
	for _, n := range got {
		if n.Token == "alpha" || n.Token == "alphas" {
			found = true
		}
		if n.Token == "alpha!" {
			t.Fatal("query token returned as its own neighbor")
		}
	}
	if !found {
		t.Fatalf("expected near-duplicate of alpha!, got %v", got)
	}
}

func TestStreamDescendingOrder(t *testing.T) {
	m := testModel()
	vocab := m.Tokens()
	ex := NewExact(vocab, m.Vector)
	query := vocab[:8]
	st := NewStream(query, ex, 0.7)
	prev := 2.0
	identitySeen := map[string]bool{}
	for {
		tup, ok := st.Next()
		if !ok {
			break
		}
		if tup.Sim > prev+1e-9 {
			t.Fatalf("stream not descending: %v after %v", tup.Sim, prev)
		}
		prev = tup.Sim
		if tup.Sim < 0.7 {
			t.Fatalf("sub-threshold tuple emitted: %+v", tup)
		}
		if tup.Token == query[tup.QIdx] {
			identitySeen[tup.Token] = true
		}
	}
	if len(identitySeen) != len(query) {
		t.Fatalf("identity tuples for %d/%d query elements", len(identitySeen), len(query))
	}
}

func TestStreamIdentityFirstAndOOV(t *testing.T) {
	// Query elements that the index does not cover still yield identity
	// tuples before anything else.
	m := testModel()
	ex := NewExact(m.Tokens(), m.Vector)
	query := []string{"out-of-vocab-1", "out-of-vocab-2"}
	st := NewStream(query, ex, 0.8)
	for i := 0; i < 2; i++ {
		tup, ok := st.Next()
		if !ok {
			t.Fatal("stream ended before identity tuples")
		}
		if tup.Sim != 1 || tup.Token != query[tup.QIdx] {
			t.Fatalf("tuple %d = %+v, want identity", i, tup)
		}
	}
	if _, ok := st.Next(); ok {
		t.Fatal("OOV-only query should have no further tuples")
	}
}

func TestStreamCompleteness(t *testing.T) {
	// Every (q, token) pair with sim ≥ α must appear exactly once.
	m := testModel()
	vocab := m.Tokens()
	ex := NewExact(vocab, m.Vector)
	query := vocab[:5]
	alpha := 0.75
	want := map[[2]string]float64{}
	for _, q := range query {
		for _, tok := range vocab {
			if tok == q {
				continue
			}
			if s := m.Sim(q, tok); s >= alpha {
				want[[2]string{q, tok}] = s
			}
		}
	}
	p := NewProbe(query, ex, alpha, nil)
	n := 0
	for i := range query {
		n += len(p.Neighbors(i))
	}
	p.Release()
	if n != len(want) {
		t.Fatalf("the probe holds %d neighbors, want %d", n, len(want))
	}
	st := NewStream(query, ex, alpha)
	got := map[[2]string]float64{}
	for {
		tup, ok := st.Next()
		if !ok {
			break
		}
		if tup.Token == query[tup.QIdx] {
			continue // identity
		}
		key := [2]string{query[tup.QIdx], tup.Token}
		if _, dup := got[key]; dup {
			t.Fatalf("pair %v emitted twice", key)
		}
		got[key] = tup.Sim
	}
	if len(got) != len(want) {
		t.Fatalf("stream emitted %d pairs, want %d", len(got), len(want))
	}
	for k, s := range want {
		// The index computes Dot on re-normalized float32 copies while the
		// model uses Cosine on the originals; allow float32-level slack.
		if gs, ok := got[k]; !ok || gs < s-1e-6 || gs > s+1e-6 {
			t.Fatalf("pair %v: got %v, want %v", k, got[k], s)
		}
	}
}

func TestStreamEmptyQuery(t *testing.T) {
	m := testModel()
	ex := NewExact(m.Tokens(), m.Vector)
	st := NewStream(nil, ex, 0.8)
	if _, ok := st.Next(); ok {
		t.Fatal("empty query produced a tuple")
	}
}

func TestInvertedPostingsPositions(t *testing.T) {
	r := repo()
	inv := NewInverted(r)
	// Every posting entry must carry the token's position inside its set's
	// element slice, and the CSR view must agree with the string view.
	for tid := int32(0); tid < int32(r.VocabSize()); tid++ {
		sids, poss := inv.Postings(tid)
		if len(sids) != len(poss) {
			t.Fatalf("token %d: %d sids, %d positions", tid, len(sids), len(poss))
		}
		tok := r.Vocabulary()[tid]
		for i, sid := range sids {
			if got := r.Elements(int(sid))[poss[i]]; got != tok {
				t.Fatalf("token %q posting %d: set %d position %d holds %q",
					tok, i, sid, poss[i], got)
			}
		}
		str := inv.Sets(tok)
		if len(str) != len(sids) {
			t.Fatalf("token %q: Sets returned %v, Postings %v", tok, str, sids)
		}
	}
	// Out-of-range IDs (the -1 of an OOV query element) yield nil.
	if sids, poss := inv.Postings(-1); sids != nil || poss != nil {
		t.Fatalf("Postings(-1) = %v, %v", sids, poss)
	}
	if sids, _ := inv.Postings(int32(r.VocabSize())); sids != nil {
		t.Fatal("Postings past vocabulary not nil")
	}
}

func TestNeighborIDsMatchVocabPositions(t *testing.T) {
	m := testModel()
	vocab := m.Tokens()
	for name, src := range map[string]NeighborSource{
		"exact": NewExact(vocab, m.Vector),
		"ivf":   NewIVF(vocab, m.Vector, 8, 8, 1),
		"func":  NewFuncIndex(vocab, m),
		"hnsw":  NewHNSW(vocab, m.Vector, HNSWConfig{Seed: 1}),
	} {
		for _, q := range vocab[:10] {
			for _, n := range src.Neighbors(q, 0.7) {
				if n.ID < 0 || int(n.ID) >= len(vocab) || vocab[n.ID] != n.Token {
					t.Fatalf("%s: neighbor %q has ID %d (vocab[%d] = %q)",
						name, n.Token, n.ID, n.ID, vocab[n.ID])
				}
			}
		}
	}
}

// lshRecall is the share of the α-neighbours of queries a brute-force scan
// of l's vocabulary finds that l finds too.
func lshRecall(l *MinHashLSH, queries []string, alpha float64) float64 {
	exact := NewFuncIndex(l.tokens, l.fn)
	found, want := 0, 0
	for _, q := range queries {
		truth := exact.Neighbors(q, alpha)
		got := l.Neighbors(q, alpha)
		gotSet := make(map[string]bool, len(got))
		for _, n := range got {
			gotSet[n.Token] = true
		}
		want += len(truth)
		for _, n := range truth {
			if gotSet[n.Token] {
				found++
			}
		}
	}
	if want == 0 {
		return 1
	}
	return float64(found) / float64(want)
}
