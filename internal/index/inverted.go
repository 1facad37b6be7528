// Package index implements the two index structures of Koios's refinement
// phase (§IV) and the similarity indexes that feed them:
//
//   - Inverted: the inverted index Is mapping each vocabulary token to the
//     sets that contain it, stored in CSR layout over interned token IDs;
//   - Stream: the token stream Ie, a merged, globally descending stream of
//     (query element, token, similarity) tuples realized with one
//     NeighborSource per similarity function and a priority queue of size
//     |Q| (§IV);
//   - Exact: brute-force threshold retrieval over embedding vectors (the
//     exact stand-in for the paper's Faiss index — Koios stays exact);
//   - IVF: an inverted-file approximate vector index mirroring Faiss IVF;
//   - FuncIndex: threshold retrieval for an arbitrary sim.Func;
//   - MinHashLSH: banding LSH over q-gram sets for Jaccard similarity [20].
//
// The exhaustive sources (Exact, DynamicExact, FuncIndex, DynamicFunc)
// probe each vocabulary token once per α: a neighbour memo (memo.go) keeps
// the α-neighbour list each scan found, by the token's arena row or
// dictionary ID, and answers every later probe of that token from it, ID
// for ID and bit for bit as a scan of the probe's view would (DESIGN.md §9).
package index

import (
	"repro/internal/sets"
)

// Inverted is the inverted index Is in CSR (compressed sparse row) layout:
// one flat postings arena indexed through per-token offsets, addressed by
// the repository's dense int32 token IDs instead of a string-keyed map. The
// arena stores, for every (token, set) pair, the global set ID and the
// token's position inside the set's element slice — the position is what
// lets refinement track greedily matched candidate tokens as a bitset over
// candidate-local positions (DESIGN.md §3).
type Inverted struct {
	repo    *sets.Repository
	offsets []int32 // len = vocab+1; postings of token t live in [offsets[t], offsets[t+1])
	sids    []int32 // arena: global set IDs
	poss    []int32 // arena: element position of the token inside the set
}

// NewInverted builds the inverted index over all sets of the repository.
func NewInverted(r *sets.Repository) *Inverted {
	return NewInvertedSubset(r, 0, r.Len())
}

// NewInvertedSubset builds the inverted index over the sets with IDs in
// [lo, hi) only (one partition, §VI); each posting list is in ascending set
// ID. Construction is two-pass: count postings per token, prefix-sum into
// the offset table, then fill the arena — no per-token allocations.
func NewInvertedSubset(r *sets.Repository, lo, hi int) *Inverted {
	vocab := r.VocabSize()
	inv := &Inverted{repo: r, offsets: make([]int32, vocab+1)}
	for sid := lo; sid < hi; sid++ {
		for _, id := range r.Set(sid).ElemIDs {
			inv.offsets[id+1]++
		}
	}
	for t := 0; t < vocab; t++ {
		inv.offsets[t+1] += inv.offsets[t]
	}
	total := inv.offsets[vocab]
	inv.sids = make([]int32, total)
	inv.poss = make([]int32, total)
	next := make([]int32, vocab)
	copy(next, inv.offsets[:vocab])
	for sid := lo; sid < hi; sid++ {
		for pos, id := range r.Set(sid).ElemIDs {
			at := next[id]
			inv.sids[at] = int32(sid)
			inv.poss[at] = int32(pos)
			next[id] = at + 1
		}
	}
	return inv
}

// Postings returns the posting list for a token ID as parallel slices of
// global set IDs and candidate-local element positions. IDs outside the
// vocabulary (e.g. the -1 of an out-of-vocabulary query element) yield nil.
// Callers must not mutate the results.
func (inv *Inverted) Postings(id int32) (sids, poss []int32) {
	if id < 0 || int(id) >= len(inv.offsets)-1 {
		return nil, nil
	}
	lo, hi := inv.offsets[id], inv.offsets[id+1]
	return inv.sids[lo:hi], inv.poss[lo:hi]
}

// Sets returns the posting list for a token string, or nil when the token
// occurs in no indexed set — the string-keyed view kept for the baseline
// systems; the engine hot path uses Postings. Callers must not mutate the
// result.
func (inv *Inverted) Sets(token string) []int32 {
	sids, _ := inv.Postings(inv.repo.TokenID(token))
	if len(sids) == 0 {
		return nil
	}
	return sids
}
