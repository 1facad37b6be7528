// Package koios is an exact, efficient engine for top-k semantic overlap
// set search, a from-scratch Go implementation of
//
//	Mundra, Zhang, Nargesian, Augsten:
//	"Koios: Top-k Semantic Overlap Set Search", ICDE 2023.
//
// # The problem
//
// Given a query set Q of strings, a collection of candidate sets, and an
// element similarity function sim (cosine over embeddings, Jaccard over
// q-grams, …), the semantic overlap SO(Q,C) is the score of the maximum
// bipartite matching between Q and C where an edge (q,c) weighs sim(q,c) if
// sim(q,c) ≥ α and 0 otherwise. Semantic overlap generalizes the vanilla
// (exact-match) overlap: synonyms, typos, and related entities contribute
// to set similarity even when they share no characters. A top-k search
// returns the k sets with the largest semantic overlap.
//
// Computing one semantic overlap requires an assignment-problem solve
// (O(n³) on a dense matrix), so scanning a repository is infeasible. Koios
// is a filter–verification framework: a refinement phase streams vocabulary
// tokens in descending similarity to the query and maintains cheap,
// incrementally tightening lower and upper bounds per candidate, pruning
// the vast majority without any matching; a post-processing phase orders
// the survivors by upper bound, skips matchings whose outcome is already
// decided (No-EM filter), and aborts matchings whose dual sum — itself an
// upper bound — falls below the running top-k threshold. The
// result is exact.
//
// # Quick start
//
//	collection := []koios.Set{
//	    {Name: "west-coast", Elements: []string{"LA", "Portland", "Seattle"}},
//	    // ...
//	}
//	eng := koios.New(collection, koios.JaccardQGrams(3), koios.Config{K: 5, Alpha: 0.7})
//	results, stats := eng.Search([]string{"Los Angeles", "Sea-Tac", "SFO"})
//
// The collection stays mutable after construction — the engine serves
// searches from immutable segments (DESIGN.md §4), so writes never block
// readers:
//
//	eng.Insert(koios.Set{Name: "mountain", Elements: []string{"Denver", "Boise"}})
//	eng.Delete("west-coast")
//	results, _ = eng.Search([]string{"Denver"}) // sees the new state
//
// For embedding-based similarity, use NewWithVectors with any func that
// maps a token to its vector.
//
// To keep the collection across restarts, open the engine over a data
// directory instead (DESIGN.md §8): inserts and deletes are write-ahead
// logged, sealed segments are snapshotted to disk, and reopening the
// directory — even after a crash — recovers the exact collection:
//
//	eng, err := koios.Open("./data", collection, koios.JaccardQGrams(3), koios.Config{K: 5, Alpha: 0.7})
//	// ... Insert/Delete/Search ...
//	err = eng.Close() // checkpoint; the next Open replays nothing
//
// See the examples/ directory for runnable programs and DESIGN.md /
// EXPERIMENTS.md for the paper reproduction.
package koios
