package segment

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/matching"
	"repro/internal/sets"
	"repro/internal/sim"
)

// editOracleTokens builds a token pool with planted edit neighbourhoods:
// short base words with one- and two-byte mutations, the empty string,
// tokens past the 64-byte single-word kernel, tokens past the 255-byte
// sketch length, and multi-byte runes.
func editOracleTokens(rng *rand.Rand) []string {
	mutate := func(s string) string {
		b := []byte(s)
		switch op := rng.Intn(3); {
		case op == 0 && len(b) > 1:
			i := rng.Intn(len(b))
			b = append(b[:i], b[i+1:]...)
		case op == 1:
			i := rng.Intn(len(b) + 1)
			b = append(b[:i], append([]byte{byte('a' + rng.Intn(26))}, b[i:]...)...)
		default:
			b[rng.Intn(len(b))] = byte('a' + rng.Intn(26))
		}
		return string(b)
	}
	bases := []string{
		"sinuda", "karelo", "mipotava", "dule", "tenoriga", "vasu", "belomira", "quix",
		"naïve", "日本語のトークン", "éclair", "Ünïcödé",
		strings.Repeat("ab", 40),              // 80 bytes: block kernel
		strings.Repeat("lorem ipsum ", 25),    // 300 bytes: saturated sketch length
		strings.Repeat("x", 254) + "yz",       // 256 bytes
		strings.Repeat("longtoken", 29)[:255], // exactly 255 bytes
	}
	seen := map[string]bool{"": true}
	pool := []string{""}
	for _, b := range bases {
		for _, tok := range []string{b, mutate(b), mutate(b), mutate(mutate(b))} {
			if !seen[tok] {
				seen[tok] = true
				pool = append(pool, tok)
			}
		}
	}
	return pool
}

// bruteEditTopK answers a query with nothing the engine uses: every pair
// scored by EditSimilarity.Sim, thresholded at alpha, one dense Hungarian
// matching per live set. It returns each candidate's overlap by name and
// the overlaps in descending order.
func bruteEditTopK(rows []sets.Set, query []string, alpha float64) (map[string]float64, []float64) {
	var fn sim.EditSimilarity
	dedup := func(in []string) []string {
		seen := map[string]bool{}
		var out []string
		for _, s := range in {
			if !seen[s] {
				seen[s] = true
				out = append(out, s)
			}
		}
		return out
	}
	q := dedup(query)
	byName := map[string]float64{}
	var scores []float64
	for _, row := range rows {
		c := dedup(row.Elements)
		if len(q) == 0 || len(c) == 0 {
			continue
		}
		w := make([][]float64, len(q))
		for i := range w {
			w[i] = make([]float64, len(c))
			for j := range c {
				if s := fn.Sim(q[i], c[j]); s >= alpha {
					w[i][j] = s
				}
			}
		}
		if so := matching.Hungarian(w).Score; so > 0 {
			byName[row.Name] = so
			scores = append(scores, so)
		}
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(scores)))
	return byName, scores
}

// TestEditSearchMatchesBruteForce checks the whole edit-similarity search
// path — sketch admission, kernel scan, stream, refinement, verification —
// against an oracle that shares none of it, on a collection that is grown,
// shrunk, sealed and compacted between checks.
func TestEditSearchMatchesBruteForce(t *testing.T) {
	for _, alpha := range []float64{0.5, 0.8, 1} {
		t.Run(fmt.Sprint("alpha=", alpha), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(alpha * 1000)))
			pool := editOracleTokens(rng)
			randomSet := func() []string {
				n := 1 + rng.Intn(8)
				elems := make([]string, n)
				for i := range elems {
					elems[i] = pool[rng.Intn(len(pool))]
				}
				return elems
			}
			const k = 5
			opts := core.Options{K: k, Alpha: alpha, Partitions: 2, Workers: 2, ExactScores: true}.WithDefaults()
			o := newOracle()
			var seed []sets.Set
			for i := 0; i < 30; i++ {
				s := sets.Set{Name: fmt.Sprintf("seed-%d", i), Elements: randomSet()}
				seed = append(seed, s)
				o.insert(s.Name, s.Elements)
			}
			m := NewManager(seed, func(dict *sets.Dictionary) index.NeighborSource {
				return index.NewDynamicFunc(dict, sim.EditSimilarity{})
			}, opts, Config{SealThreshold: 6, MaxSegments: 2, ForegroundCompaction: true})

			check := func(label string) {
				t.Helper()
				rows := o.sets()
				queries := [][]string{randomSet(), randomSet(), rows[rng.Intn(len(rows))].Elements, {"", "sinuda", "nowhere"}}
				for _, q := range queries {
					got, _, err := m.Search(context.Background(), q, 0)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					exact, ranked := bruteEditTopK(rows, q, alpha)
					if want := min(k, len(ranked)); len(got) != want {
						t.Fatalf("%s q=%.40q: %d results, want %d", label, q, len(got), want)
					}
					seen := map[string]bool{}
					for i, r := range got {
						so, live := exact[r.Name]
						switch {
						case !live:
							t.Fatalf("%s q=%.40q: result %q is not a live candidate", label, q, r.Name)
						case seen[r.Name]:
							t.Fatalf("%s q=%.40q: %q returned twice", label, q, r.Name)
						case math.Abs(r.Score-so) > 1e-9:
							t.Fatalf("%s q=%.40q: %q scored %v, brute force %v", label, q, r.Name, r.Score, so)
						case math.Abs(so-ranked[i]) > 1e-9:
							t.Fatalf("%s q=%.40q: rank %d holds overlap %v, brute force has %v there", label, q, i, so, ranked[i])
						}
						seen[r.Name] = true
					}
				}
			}

			check("seed")
			for i := 0; i < 20; i++ { // crosses several seals and a compaction
				name, elems := fmt.Sprintf("ins-%d", i), randomSet()
				if _, err := m.Insert(name, elems); err != nil {
					t.Fatal(err)
				}
				o.insert(name, elems)
			}
			check("after inserts")
			for i := 0; i < 30; i += 3 {
				name := fmt.Sprintf("seed-%d", i)
				if _, err := m.Delete(name); err != nil {
					t.Fatal(err)
				}
				o.delete(name)
			}
			check("after deletes")
			if err := m.Flush(); err != nil {
				t.Fatal(err)
			}
			check("after seal")
			if err := m.Compact(); err != nil {
				t.Fatal(err)
			}
			if sealed, mem, _ := m.Segments(); sealed != 1 || mem != 0 {
				t.Fatalf("after compaction: %d sealed segments, %d memtable sets", sealed, mem)
			}
			check("after compaction")
		})
	}
}
