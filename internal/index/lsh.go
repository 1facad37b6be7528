package index

import (
	"hash/fnv"
	"math/rand"

	"repro/internal/sim"
)

// MinHashLSH is a banding locality-sensitive hash index over the q-gram
// sets of vocabulary tokens, approximating Jaccard similarity retrieval
// (Broder [20]; the paper names MinHash LSH as the pluggable index when sim
// is the Jaccard of token sets, §IV). Candidates found in matching buckets
// are verified with the exact Jaccard, so precision is 1 while recall
// depends on the band configuration.
type MinHashLSH struct {
	q       int
	bands   int
	rows    int
	seedsA  []uint64
	seedsB  []uint64
	buckets []map[uint64][]int // one bucket map per band
	tokens  []string
	ids     []int32 // vocab position of each indexed token
	grams   [][]string
	sigs    [][]uint64
	byToken map[string]int
	fn      sim.JaccardQGrams
}

// NewMinHashLSH indexes vocab with bands·rows MinHash functions over
// q-grams. Typical configurations: bands=16, rows=4 targets α≈0.5;
// bands=8, rows=8 targets α≈0.8.
func NewMinHashLSH(vocab []string, q, bands, rows int, seed int64) *MinHashLSH {
	if q <= 0 {
		q = 3
	}
	if bands <= 0 {
		bands = 8
	}
	if rows <= 0 {
		rows = 8
	}
	l := &MinHashLSH{
		q:       q,
		bands:   bands,
		rows:    rows,
		byToken: make(map[string]int, len(vocab)),
		fn:      sim.JaccardQGrams{Q: q},
	}
	rng := rand.New(rand.NewSource(seed))
	n := bands * rows
	l.seedsA = make([]uint64, n)
	l.seedsB = make([]uint64, n)
	for i := 0; i < n; i++ {
		l.seedsA[i] = rng.Uint64() | 1 // odd multiplier
		l.seedsB[i] = rng.Uint64()
	}
	l.buckets = make([]map[uint64][]int, bands)
	for b := range l.buckets {
		l.buckets[b] = make(map[uint64][]int)
	}
	for vi, tok := range vocab {
		if _, dup := l.byToken[tok]; dup {
			continue
		}
		id := len(l.tokens)
		l.byToken[tok] = id
		l.tokens = append(l.tokens, tok)
		l.ids = append(l.ids, int32(vi))
		grams := sim.QGrams(tok, q)
		l.grams = append(l.grams, grams)
		sig := l.signature(grams)
		l.sigs = append(l.sigs, sig)
		for b := 0; b < bands; b++ {
			key := bandKey(sig[b*rows : (b+1)*rows])
			l.buckets[b][key] = append(l.buckets[b][key], id)
		}
	}
	return l
}

func (l *MinHashLSH) signature(grams []string) []uint64 {
	n := l.bands * l.rows
	sig := make([]uint64, n)
	for i := range sig {
		sig[i] = ^uint64(0)
	}
	for _, g := range grams {
		h := fnv64(g)
		for i := 0; i < n; i++ {
			v := l.seedsA[i]*h + l.seedsB[i]
			if v < sig[i] {
				sig[i] = v
			}
		}
	}
	return sig
}

// Neighbors implements NeighborSource: LSH candidates verified with exact
// Jaccard ≥ alpha, descending.
func (l *MinHashLSH) Neighbors(q string, alpha float64) []Neighbor {
	grams := sim.QGrams(q, l.q)
	var sig []uint64
	if id, ok := l.byToken[q]; ok {
		sig = l.sigs[id]
	} else {
		sig = l.signature(grams)
	}
	seen := make(map[int]bool)
	var out []Neighbor
	for b := 0; b < l.bands; b++ {
		key := bandKey(sig[b*l.rows : (b+1)*l.rows])
		for _, id := range l.buckets[b][key] {
			if seen[id] || l.tokens[id] == q {
				continue
			}
			seen[id] = true
			if s := l.fn.Sim(q, l.tokens[id]); s >= alpha {
				out = append(out, Neighbor{Token: l.tokens[id], Sim: s, ID: l.ids[id]})
			}
		}
	}
	sortNeighbors(out)
	return out
}

// Len returns the number of indexed tokens.
func (l *MinHashLSH) Len() int { return len(l.tokens) }

func bandKey(rows []uint64) uint64 {
	var k uint64 = 1469598103934665603
	for _, r := range rows {
		k ^= r
		k *= 1099511628211
	}
	return k
}

func fnv64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}
