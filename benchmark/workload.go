package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/collection"
	"repro/internal/datagen"
	"repro/internal/sets"
)

// sourceKind selects the similarity source a workload serves with.
type sourceKind int

const (
	// vectorSource is index.DynamicExact over the dataset's embedding
	// vectors: one dot product per (query element, vocabulary token).
	vectorSource sourceKind = iota
	// editSource is index.DynamicFunc over sim.EditSimilarity: the
	// function-scan path with the Myers kernel and the admission filters.
	editSource
)

// spec fixes one workload's shape. The dataset comes from datagen's default
// spec for (kind, scale) — a fixed corpus, the same for every seed — and the
// run's seed decides which sets become queries, which are held out for
// inserts, and in what order the ops are issued. Keeping the corpus fixed is
// deliberate: two seeds then time the same kind and amount of work, so the
// spread across seeds measures the machine and not the sampling of a corpus.
type spec struct {
	name, why string
	kind      datagen.Kind
	scale     float64
	source    sourceKind
	// clients is the number of closed-loop clients, and with it everything
	// else that decides how much runs at once: GOMAXPROCS, the server's search
	// workers and the HTTP connections. The search workloads use the box's
	// two cores. mixed_rw uses one: its requests are 0.1 ms ping-pongs, and on
	// two Ps every hand-off between the client's and the server's goroutine
	// is a wake-up across vCPUs, whose cost on a shared host swings by a
	// quarter for minutes at a time (NOISE.md); on one P the hand-offs stay
	// on one thread.
	clients int
	// queries is how many distinct query sets a round holds, drawn from the
	// sets whose cardinality lies in [cardLo, cardHi) (cardHi 0 = no limit).
	queries        int
	cardLo, cardHi int
	// mixed_rw only: durable registry with two collections, each round
	// inserts insertsPerRound held-out sets interleaved with
	// searchesPerRound searches from a pool of hotPool queries, then deletes
	// them again.
	durable          bool
	insertsPerRound  int
	searchesPerRound int
	hotPool          int
	// warmupOps is how many ops of the round set-up replays untimed (0 =
	// the whole round; see subset).
	warmupOps int
	// traceOps is how many ops of the round the traced run replays (0 = the
	// whole round; see subset): it makes five single-client passes over them.
	traceOps int
	// checkEvery re-answers every n-th distinct query from scratch in the
	// output check.
	checkEvery int
}

// The sizes are chosen so that one round takes one to two seconds on the
// 2-vCPU box: set-up replays one round as its warm-up and runs three times
// per process, and ninety-odd whole runs have to fit the driver's budget.
var specs = []spec{
	{
		name:    "search_small",
		why:     "small twitter-shape queries over 5000 sets, vector source: vocabulary scan and sim cache (working set far beyond the cache) do most of the work",
		kind:    datagen.Twitter,
		scale:   1.0,
		source:  vectorSource,
		clients: 2,
		queries: 120, warmupOps: 60, traceOps: 60, checkEvery: 8,
	},
	{
		name:    "search_large",
		why:     "every opendata-shape set of 100-400 elements as a query: core refinement, edge completion and Hungarian verification dominate, the index scan does not",
		kind:    datagen.OpenData,
		scale:   0.1,
		source:  vectorSource,
		clients: 2,
		queries: 40, cardLo: 100, cardHi: 400, warmupOps: 12, traceOps: 8, checkEvery: 8,
	},
	{
		name:    "search_edit",
		why:     "same search path with edit similarity: Myers kernel and admission filters instead of dot products, pair working set small enough to hit the sim cache",
		kind:    datagen.Twitter,
		scale:   1.0,
		source:  editSource,
		clients: 2,
		queries: 150, checkEvery: 8,
	},
	{
		name:            "mixed_rw",
		why:             "inserts and deletes beside searches on two durable collections: HTTP, quota accounting, WAL, seals and scheduled compaction carry the ops",
		kind:            datagen.Twitter,
		scale:           0.5,
		source:          vectorSource,
		clients:         1,
		durable:         true,
		insertsPerRound: 600, searchesPerRound: 48, hotPool: 8, checkEvery: 1,
	},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// quickened shrinks a spec to the -quick size the tests run: a twentieth of
// the corpus and a tenth of the ops.
func (s spec) quickened() spec {
	s.scale = 0.05
	shrink := func(n int) int {
		if n == 0 {
			return 0
		}
		return max(n/10, 4)
	}
	s.queries = shrink(s.queries)
	s.insertsPerRound = shrink(s.insertsPerRound)
	s.searchesPerRound = shrink(s.searchesPerRound)
	if s.cardLo > 0 {
		// The quick opendata corpus caps cardinalities well below 100.
		s.cardLo, s.cardHi = 20, 120
	}
	return s
}

type opKind uint8

const (
	opSearch opKind = iota
	opInsert
	opDelete
)

func (k opKind) String() string {
	return [...]string{"search", "insert", "delete"}[k]
}

// op is one request of the fixed op list.
type op struct {
	kind opKind
	// coll indexes workload.collections.
	coll int
	// name is the set written or deleted; empty for searches.
	name string
	// elems is the query, or the inserted set's elements.
	elems []string
	// query indexes workload.queries for searches, -1 otherwise.
	query int
}

// workload is everything generated from (spec, seed): the corpus, the sets
// live before the first op, and one round's op list. The program under test
// receives only these inputs.
type workload struct {
	spec spec
	ds   *datagen.Dataset
	// collections names the collections the ops address; every one holds
	// seedSets before the first op and again after every round.
	collections []string
	seedSets    []sets.Set
	// queries are the distinct query sets.
	queries [][]string
	// phases is one round: each phase is drained by the clients in list
	// order, with a barrier between phases (so no delete can overtake the
	// insert of the same set).
	phases [][]op
}

func (w *workload) opsPerRound() int {
	n := 0
	for _, p := range w.phases {
		n += len(p)
	}
	return n
}

// subset returns n ops of a read-only round for the warm-up and the traced
// run, where the whole round would take too long: the ops are sorted by query
// cardinality and every (len/n)-th is taken, so the subset costs every seed
// the same. n of 0, or a round no longer than n, returns the whole round.
func (w *workload) subset(n int) [][]op {
	round := w.phases[0]
	if n == 0 || n >= len(round) || len(w.phases) > 1 {
		return w.phases
	}
	byCard := append([]op(nil), round...)
	sort.SliceStable(byCard, func(a, b int) bool { return len(byCard[a].elems) < len(byCard[b].elems) })
	out := make([]op, n)
	for i := range out {
		out[i] = byCard[(2*i+1)*len(byCard)/(2*n)]
	}
	return [][]op{out}
}

// buildWorkload generates the workload for (s, seed). Same arguments, same
// result, byte for byte.
//
// Every choice the seed makes is stratified by set cardinality, the property
// the cost of an op depends on most (see stratified): two seeds issue
// different sets of the same cardinalities, so the spread between seeds
// measures the machine rather than the luck of the draw.
func buildWorkload(s spec, seed int64) (*workload, error) {
	ds := datagen.Generate(datagen.DefaultSpec(s.kind, s.scale))
	all := ds.Repo.Sets()
	rng := rand.New(rand.NewSource(seed))
	w := &workload{spec: s, ds: ds, collections: []string{collection.DefaultName}}

	var eligible []int
	for i, st := range all {
		n := len(st.Elements)
		if n >= max(s.cardLo, 1) && (s.cardHi == 0 || n < s.cardHi) {
			eligible = append(eligible, i)
		}
	}
	sort.SliceStable(eligible, func(a, b int) bool {
		return len(all[eligible[a]].Elements) < len(all[eligible[b]].Elements)
	})
	card := func(id int) int { return len(all[id].Elements) }
	if len(eligible) == 0 {
		return nil, fmt.Errorf("%s: no set has a cardinality in [%d,%d)", s.name, s.cardLo, s.cardHi)
	}

	if !s.durable {
		w.seedSets = all
		picked := stratified(rng, eligible, s.queries, card)
		rng.Shuffle(len(picked), func(a, b int) { picked[a], picked[b] = picked[b], picked[a] })
		phase := make([]op, len(picked))
		for qi, id := range picked {
			w.queries = append(w.queries, all[id].Elements)
			phase[qi] = op{kind: opSearch, elems: all[id].Elements, query: qi}
		}
		w.phases = [][]op{phase}
		return w, nil
	}

	// mixed_rw: of every two sets adjacent in cardinality order the seed
	// makes one live and holds the other out for the inserts.
	w.collections = append(w.collections, "tenant-b")
	isLive := make([]bool, len(all))
	var live, heldOut []int
	for i := 0; i+1 < len(eligible); i += 2 {
		a, b := eligible[i], eligible[i+1]
		if rng.Intn(2) == 1 {
			a, b = b, a
		}
		isLive[a] = true
		live, heldOut = append(live, a), append(heldOut, b)
	}
	// Seed sets keep corpus order, so the from-scratch reference sees the
	// rows in the order the collection stores them.
	for id, st := range all {
		if isLive[id] {
			w.seedSets = append(w.seedSets, sets.Set{Name: st.Name, Elements: st.Elements})
		}
	}
	// The hot queries all have the corpus's median cardinality: their
	// latencies then form one distribution, whose percentiles move with the
	// interference from writes and background work and not with which of a
	// few differently sized queries the percentile happens to fall on.
	var hot []int
	for _, id := range live {
		if card(id) == card(eligible[len(eligible)/2]) {
			hot = append(hot, id)
		}
	}
	rng.Shuffle(len(hot), func(a, b int) { hot[a], hot[b] = hot[b], hot[a] })
	for _, id := range hot[:min(s.hotPool, len(hot))] {
		w.queries = append(w.queries, all[id].Elements)
	}
	inserted := stratified(rng, heldOut, s.insertsPerRound, card)
	if len(inserted) == 0 || len(w.queries) == 0 {
		return nil, fmt.Errorf("%s: corpus of %d sets is too small", s.name, len(all))
	}
	collOf := make(map[int]int, len(inserted))
	first := make([]op, 0, len(inserted)+s.searchesPerRound)
	for j, id := range inserted {
		collOf[id] = j % len(w.collections)
		first = append(first, op{kind: opInsert, coll: collOf[id], name: all[id].Name, elems: all[id].Elements, query: -1})
	}
	// Every hot query is asked equally often, on alternating collections.
	for j := 0; j < s.searchesPerRound; j++ {
		qi := j % len(w.queries)
		first = append(first, op{kind: opSearch, coll: (j / len(w.queries)) % len(w.collections), elems: w.queries[qi], query: qi})
	}
	rng.Shuffle(len(first), func(a, b int) { first[a], first[b] = first[b], first[a] })
	second := make([]op, len(inserted))
	for j, p := range rng.Perm(len(inserted)) {
		id := inserted[p]
		second[j] = op{kind: opDelete, coll: collOf[id], name: all[id].Name, query: -1}
	}
	w.phases = [][]op{first, second}
	return w, nil
}

// stratified picks k distinct members of ids, which are sorted by
// cardinality: ids is cut into k equal slices, and for each slice rng picks
// among the sets that have exactly the cardinality of the slice's middle
// member. Every seed therefore issues sets of the same cardinalities — the
// same amount of work — while the sets themselves differ. With k at or above
// len(ids) it returns them all.
func stratified(rng *rand.Rand, ids []int, k int, card func(id int) int) []int {
	n := len(ids)
	if k >= n {
		return append([]int(nil), ids...)
	}
	used := make(map[int]bool, k)
	out := make([]int, 0, k)
	for i := 0; i < k; i++ {
		mid := (i*n/k + (i+1)*n/k) / 2
		var run []int
		for j := mid; j >= 0 && card(ids[j]) == card(ids[mid]); j-- {
			if !used[ids[j]] {
				run = append(run, ids[j])
			}
		}
		for j := mid + 1; j < n && card(ids[j]) == card(ids[mid]); j++ {
			if !used[ids[j]] {
				run = append(run, ids[j])
			}
		}
		if len(run) == 0 {
			// Earlier slices used up this cardinality; any unused set does.
			for _, id := range ids {
				if !used[id] {
					run = append(run, id)
				}
			}
		}
		pick := run[rng.Intn(len(run))]
		used[pick] = true
		out = append(out, pick)
	}
	return out
}

// userBytes is the payload a client hands over with a write: the set's name
// plus its elements. It is the base of the WAL write-amplification ratio.
func userBytes(name string, elems []string) int64 {
	n := int64(len(name))
	for _, e := range elems {
		n += int64(len(e))
	}
	return n
}

// medianCardinality reports the median element count of the round's
// searches, printed with the results so a reader knows the input size the
// throughput was measured at.
func (w *workload) medianCardinality() int {
	var cards []float64
	for _, p := range w.phases {
		for _, o := range p {
			if o.kind == opSearch {
				cards = append(cards, float64(len(o.elems)))
			}
		}
	}
	return int(math.Round(median(cards)))
}
