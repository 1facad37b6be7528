package segment

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/model"
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

// TestEditSearchMatchesBruteForce checks the whole edit-similarity search
// path — sketch admission, kernel scan, stream, refinement, verification —
// against the reference model (internal/model), which shares none of it,
// by names and score bits, on a collection that is grown, shrunk, sealed
// and compacted between checks.
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
			o := model.NewCollection()
			var seed []sets.Set
			for i := 0; i < 30; i++ {
				s := sets.Set{Name: fmt.Sprintf("seed-%d", i), Elements: randomSet()}
				seed = append(seed, s)
				o.Insert(s.Name, s.Elements)
			}
			m := NewManager(seed, func(dict *sets.Dictionary) index.NeighborSource {
				return index.NewDynamicFunc(dict, sim.EditSimilarity{})
			}, opts, Config{SealThreshold: 6, MaxSegments: 2})

			check := func(label string) {
				t.Helper()
				rows := o.Sets()
				queries := [][]string{randomSet(), randomSet(), rows[rng.Intn(len(rows))].Elements, {"", "sinuda", "nowhere"}}
				for _, q := range queries {
					got, _, err := m.Search(context.Background(), q, 0)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if want := modelTopK(t, rows, sim.EditSimilarity{}, alpha, q, k); !sameAnswer(got, want) {
						t.Fatalf("%s q=%.40q: %v, the model %v", label, q, got, want)
					}
				}
			}

			check("seed")
			for i := 0; i < 20; i++ { // crosses several seals and a compaction
				name, elems := fmt.Sprintf("ins-%d", i), randomSet()
				if _, err := m.Insert(name, elems); err != nil {
					t.Fatal(err)
				}
				maintain(m)
				o.Insert(name, elems)
			}
			check("after inserts")
			for i := 0; i < 30; i += 3 {
				name := fmt.Sprintf("seed-%d", i)
				if _, err := m.Delete(name); err != nil {
					t.Fatal(err)
				}
				o.Delete(name)
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
