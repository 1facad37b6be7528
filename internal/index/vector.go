package index

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/sim"
)

// Neighbor is a vocabulary token with its similarity to a query element.
// ID is the token's position in the vocabulary slice the index was built
// over; when that slice is a repository's Vocabulary() — the wiring every
// engine constructor uses — ID is the repository's interned token ID, so
// stream consumers never need a string lookup.
type Neighbor struct {
	Token string
	Sim   float64
	ID    int32
}

// NeighborSource performs threshold-based similarity retrieval over the
// vocabulary: all tokens with sim(q, token) ≥ alpha, descending by
// similarity, excluding q itself (the token stream emits the identity tuple
// separately, per the OOV rule of §V). This is the only capability Koios
// needs from a similarity index, which is what makes the algorithm
// independent of the choice of sim (§IV).
type NeighborSource interface {
	Neighbors(q string, alpha float64) []Neighbor
}

// vecRows is the vector storage Exact and DynamicExact share: one arena of
// L2-normalized vectors with a fixed stride (the length of the first vector
// added), plus each row's token and vocabulary ID. The arena is
// block-interleaved: rows 4b…4b+3 form block b, and element j of the four
// rows is contiguous, so one 16-byte load feeds four per-row accumulators —
// one row in each vector lane (DESIGN.md §12). Beside it, u8 holds every
// row quantised for the screen (screen.go): 16-row blocks of 64-byte
// groups, dword l of group k holding elements 4k…4k+3 of row 16B+l.
//
// It is append-only: add writes only the lanes and bytes of the row it
// appends, never one an earlier row owns, so a copy of the struct is an
// immutable view of the rows it was taken over, however the original grows
// afterwards. A view reads its ⌊n/4⌋ full blocks and ⌊n/16⌋ full 16-row
// blocks in place, and copies the lanes and bytes of its own rows in a
// partial block into a zeroed scratch block before a kernel reads them
// (DESIGN.md §12): the remaining lanes and bytes of a partial block belong
// to rows the view does not have, which a concurrent add may be writing.
//
// Scores are bit-identical to sim.Dot over normalizeCopy vectors: the same
// float64(a[j])*float64(b[j]) products summed in index order into one
// accumulator per row, with the same clamps. A vector whose length differs
// from the stride is stored as a zero row and scores 0 against everything,
// as sim.Dot's length check made it do against every stride-length vector.
type vecRows struct {
	tokens []string
	ids    []int32 // vocabulary position of each row's token, ascending
	dim    int
	data   []float32 // element j of row i is data[(i/4*dim+j)*4+i%4]
	u8     []byte    // round(127·element j of row i) + 128 at lane8(i) + 64·(j/4) + j%4
	nan    []int32   // the rows holding a NaN, ascending
	// vocab is the vocabulary by ID, through the last row's ID at least,
	// and memo the neighbour lists the source's probes scanned, by row;
	// every view of the source shares the memo.
	vocab []string
	memo  *neighbourMemo
}

// useAVX routes dotBlocks to its assembly kernels and useFMA picks the
// fused ones; useAVX2 routes screenBlocks to its AVX2 kernel and useVNNI to
// its AVX-512 VNNI one; useVPOPCNT routes classMasks, the function scan's
// sketch test, to its AVX-512 VPOPCNTDQ kernel, and useAVX512F routes
// PartitionPostings, the walk's bound filter, to its AVX-512F kernel. All
// are set once at init, on amd64, from CPUID (dot_amd64.go); tests clear
// them to run the slower kernels and the portable loops.
var useAVX, useFMA, useAVX2, useVNNI, useVPOPCNT, useAVX512F bool

// lane returns the arena offset of element 0 of row i; element j is 4j
// further on.
func (r *vecRows) lane(i int) int { return (i&^3)*r.dim + i&3 }

// row returns the arena from row i's element 0 on: the row as dotBlocks
// reads it, element j at [4j] (nothing at stride 0).
func (r *vecRows) row(i int) []float32 {
	if r.dim == 0 {
		return nil
	}
	return r.data[r.lane(i):]
}

// add appends one row: v normalized with normalize32's arithmetic, written
// straight into the row's lane, then quantised into its bytes of u8.
func (r *vecRows) add(tok string, id int32, v []float32) {
	i := len(r.tokens)
	if i == 0 {
		r.dim = len(v)
	}
	r.tokens = append(r.tokens, tok)
	r.ids = append(r.ids, id)
	if i%4 == 0 {
		r.data = append(r.data, make([]float32, 4*r.dim)...) // a new zero block
	}
	if i%16 == 0 {
		r.u8 = append(r.u8, make([]byte, 64*r.groups())...)
	}
	at := r.lane(i)
	if len(v) == r.dim {
		var n float64
		for _, x := range v {
			n += float64(x) * float64(x)
		}
		n = math.Sqrt(n)
		for j, x := range v {
			if n != 0 {
				x = float32(float64(x) / n)
			}
			r.data[at+4*j] = x
		}
	}
	if r.quantise(i) {
		r.nan = append(r.nan, int32(i))
	}
}

// dot returns the similarity of rows a and b: sim.Dot's arithmetic over the
// two lanes.
func (r *vecRows) dot(a, b int) float64 {
	pa, pb := r.lane(a), r.lane(b)
	var d float64
	for j := 0; j < 4*r.dim; j += 4 {
		d += float64(r.data[pa+j]) * float64(r.data[pb+j])
	}
	return clamp01(d)
}

// clamp01 is sim.Dot's clamp of a raw dot product to [0, 1]; NaN passes
// through.
func clamp01(s float64) float64 {
	if s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}

// dotBlocksGo is the exact kernel in portable Go, and the reference the
// assembly kernels are tested against: out[4b+l] = Σ_j float64(q[4j])·
// float64(element j of row 4b+l), unclamped, for the len(out)/4 blocks data
// starts with. q is a query row's lane in the arena: dim elements, one
// every four floats.
func dotBlocksGo(q []float32, dim int, data []float32, out []float64) {
	for b := 0; b < len(out)/4; b++ {
		blk := data[4*b*dim:][:4*dim]
		var d0, d1, d2, d3 float64
		for j := 0; j+3 < len(blk); j += 4 {
			x := float64(q[j])
			d0 += x * float64(blk[j])
			d1 += x * float64(blk[j+1])
			d2 += x * float64(blk[j+2])
			d3 += x * float64(blk[j+3])
		}
		o := out[4*b:][:4]
		o[0], o[1], o[2], o[3] = d0, d1, d2, d3
	}
}

// scanChunk is how many 4-row blocks of the arena the scan screens and
// scores every query row against before it moves on: the chunk stays in
// cache for all of a search's rows, and the assembly kernels, which cannot
// be preempted, return to Go every 256 rows. The screen kernels know it as
// maskRow (screen_amd64.s).
const scanChunk = 64

// scanScratch is what one scan needs beside its output: the query rows
// quantised for screenBlocks with their thresholds (and, for the AVX2
// kernel, split into words), one mask byte per query row and block of a
// chunk, and the zeroed copies of a partial 16-row block's bytes and a
// partial 4-row block's lanes that the kernels read in their place; and,
// for a search's probe, its elements' rows and output lists. dotBlocks
// reads the query rows in place.
type scanScratch struct {
	q8    []int8
	q16   []int16
	thr   []int32
	mask  []byte
	pad8  []byte
	pad32 []float32
	qis   []int
	at    []int
	bufs  [][]Neighbor
}

var scanScratches = sync.Pool{New: func() any { return new(scanScratch) }}

// scanAll appends to bufs[g] every row except qis[g] with similarity ≥ alpha
// to row qis[g], unsorted, in one pass of the arena. A chunk at a time, the
// int8 screen marks for every query row the blocks that may hold a match
// and dotBlocks → appendMatches score those, in maximal runs: every score
// that leaves is the exact kernel's, the screen only decides where it need
// not run. The ≤ 3 rows of a partial last block are scored by the same
// kernel on a zero-padded copy of their lanes (tailBlock). s is the scan's
// scratch.
//
// Two classes of α have nothing to screen. α ≤ 0 admits every row once the
// lower clamp has lifted it to 0, so every block is flagged without looking
// (as it is at a stride whose sums an int32 cannot hold); α > 1 and NaN
// admit none, whatever the arena holds. Nor does a scan without query rows
// (a probe none of whose elements has a vector), which returns before the
// screen sizes its masks for none.
func (r *vecRows) scanAll(s *scanScratch, qis []int, alpha float64, bufs [][]Neighbor) {
	if !(alpha <= 1) || len(qis) == 0 {
		return
	}
	nq, dim := len(qis), r.dim
	quads := (nq + 3) / 4 // the screen takes query rows four at a time: the last quad is filled with zero rows
	s.mask = sized(s.mask, 4*quads*scanChunk)
	mask := s.mask
	floor, screen := screenFloor(alpha, dim)
	if screen {
		r.prepareScreen(s, qis, floor)
	} else {
		for i := range mask {
			mask[i] = 15
		}
	}
	n := len(r.tokens)
	full := n &^ 3
	var dots [4 * scanChunk]float64
	for i := 0; i < full; i += 4 * scanChunk {
		chunk, nblk := r.data[i*dim:], min(scanChunk, (full-i)/4)
		if screen {
			r.screenChunk(s, nq, i, nblk)
		}
		for g, qi := range qis {
			m, q := mask[g*scanChunk:][:nblk], r.row(qi)
			for b := 0; b < nblk; {
				if b+8 <= nblk && binary.LittleEndian.Uint64(m[b:]) == 0 {
					b += 8
					continue
				}
				if m[b] == 0 {
					b++
					continue
				}
				end := b + 1
				for end < nblk && m[end] != 0 {
					end++
				}
				d := dots[:4*(end-b)]
				dotBlocks(q, dim, chunk[4*b*dim:], d)
				bufs[g] = r.appendMatches(bufs[g], i+4*b, d, qi, alpha)
				b = end
			}
		}
	}
	if full == n {
		return
	}
	tail := r.tailBlock(s, full, n)
	for g, qi := range qis {
		d := dots[:4]
		dotBlocks(r.row(qi), dim, tail, d)
		bufs[g] = r.appendMatches(bufs[g], full, d[:n-full], qi, alpha)
	}
}

// tailBlock returns a block holding the lanes of rows full…n−1, the ≤ 3
// rows of the view's partial last block, and zeros in the other lanes: a
// copy in s, read lane by lane from the arena, so the kernel never reads a
// lane of a row the view does not have.
func (r *vecRows) tailBlock(s *scanScratch, full, n int) []float32 {
	s.pad32 = sized(s.pad32, 4*r.dim)
	clear(s.pad32)
	blk := r.data[full*r.dim:]
	for j := 0; j < 4*r.dim; j += 4 {
		copy(s.pad32[j:j+n-full], blk[j:])
	}
	return s.pad32
}

// sized returns buf with length n, reallocated only when its capacity is
// short; what it holds is not preserved.
func sized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// probe is the LazySource probe of the sources over a vecRows: each element
// rowOf finds a row for (≥ 0) is answered from the memo when its entry
// covers this view at alpha, and the rest are scanned together in one pass
// of the arena, each into its list of bufs, and stored. An element without
// a row has no vector to search with, so no semantic neighbors: its list
// stays empty.
func (r *vecRows) probe(qs []string, alpha float64, bufs [][]Neighbor, rowOf func(string) int) {
	s := scanScratches.Get().(*scanScratch)
	qis, at, group := s.qis[:0], s.at[:0], s.bufs[:0]
	limit := int32(0) // the ID after the view's last row's
	if n := len(r.ids); n > 0 {
		limit = r.ids[n-1] + 1
	}
	for i, q := range qs {
		qi := rowOf(q)
		if qi < 0 {
			continue
		}
		if e := r.memo.load(qi, alpha, len(r.tokens)); e != nil {
			bufs[i] = e.appendTo(bufs[i], r.vocab, limit)
			continue
		}
		qis, at, group = append(qis, qi), append(at, i), append(group, bufs[i])
	}
	r.scanAll(s, qis, alpha, group)
	for g, i := range at {
		r.memo.store(qis[g], alpha, len(r.tokens), group[g][len(bufs[i]):])
		bufs[i] = group[g]
	}
	clear(group) // the caller owns the lists
	s.qis, s.at, s.bufs = qis, at, group
	scanScratches.Put(s)
}

// appendMatches appends rows first, first+1, … whose raw dots clamp to a
// similarity ≥ alpha, except row qi. For α in (0, 1] a raw dot below α
// stays below it once clamped, so the other rows of a flagged block leave
// on the first compare; α ≤ 0 admits what the lower clamp raises to 0, so there every
// row takes the full test. NaN (as score or α) matches nothing, as in
// clamp-then-compare.
func (r *vecRows) appendMatches(buf []Neighbor, first int, dots []float64, qi int, alpha float64) []Neighbor {
	cut := alpha
	if alpha <= 0 {
		cut = math.Inf(-1)
	}
	for k, s := range dots {
		if s < cut {
			continue
		}
		if s = clamp01(s); s >= alpha && first+k != qi {
			buf = append(buf, Neighbor{Token: r.tokens[first+k], Sim: s, ID: r.ids[first+k]})
		}
	}
	return buf
}

// Exact is a brute-force NeighborSource over normalized embedding vectors.
// It plays the role of the paper's Faiss index but returns exact results, so
// the overall search stays exact. Retrieval is one linear scan of the vector
// arena, once per vocabulary token and α: the memo keeps what it found.
type Exact struct {
	rows    vecRows
	byToken map[string]int
}

// NewExact indexes the vocabulary tokens that vec covers. Vectors are
// copied and L2-normalized so retrieval can use the dot product.
func NewExact(vocab []string, vec func(string) ([]float32, bool)) *Exact {
	e := &Exact{byToken: make(map[string]int, len(vocab))}
	for vi, tok := range vocab {
		v, ok := vec(tok)
		if !ok {
			continue
		}
		e.byToken[tok] = len(e.rows.tokens)
		e.rows.add(tok, int32(vi), v)
	}
	e.rows.vocab, e.rows.memo = vocab, new(neighbourMemo)
	e.rows.memo.grow(len(e.rows.tokens))
	return e
}

// Neighbors implements NeighborSource: an out-of-vocabulary query element
// has no semantic neighbors.
func (e *Exact) Neighbors(q string, alpha float64) []Neighbor {
	return neighbors(e, q, alpha)
}

// ScanNeighbors implements LazySource: the scan still computes every
// similarity (that is what keeps Exact exact), for all the elements the
// memo cannot answer in one pass of the arena, but neighbors are only
// ordered as they are consumed.
func (e *Exact) ScanNeighbors(qs []string, alpha float64, bufs [][]Neighbor) {
	e.rows.probe(qs, alpha, bufs, func(q string) int {
		if qi, ok := e.byToken[q]; ok {
			return qi
		}
		return -1
	})
}

// PairSim implements CompleteScorer: the exact dot product retrieval uses,
// 0 when either token has no vector.
func (e *Exact) PairSim(a, b string) float64 {
	ai, ok := e.byToken[a]
	if !ok {
		return 0
	}
	bi, ok := e.byToken[b]
	if !ok {
		return 0
	}
	return e.rows.dot(ai, bi)
}

// IVF is an inverted-file approximate vector index in the style of Faiss
// IVF: vectors are clustered with k-means and a query probes only the
// NProbe nearest clusters. Recall is below 1, so a Koios search on top of
// IVF trades exactness for speed — the ablation in the bench harness
// quantifies that trade, mirroring the paper's remark that "Koios returns an
// exact solution as long as the index returns exact results" (§VIII-E).
type IVF struct {
	centroids [][]float32
	lists     [][]int // vector indices per centroid
	tokens    []string
	ids       []int32 // vocab position of each indexed token
	vecs      [][]float32
	byToken   map[string]int
	nprobe    int
}

// NewIVF builds an IVF index with nlist clusters (k-means, fixed 8
// iterations) probing nprobe lists per query.
func NewIVF(vocab []string, vec func(string) ([]float32, bool), nlist, nprobe int, seed int64) *IVF {
	ix := &IVF{byToken: make(map[string]int, len(vocab)), nprobe: nprobe}
	for vi, tok := range vocab {
		v, ok := vec(tok)
		if !ok {
			continue
		}
		ix.byToken[tok] = len(ix.tokens)
		ix.tokens = append(ix.tokens, tok)
		ix.ids = append(ix.ids, int32(vi))
		ix.vecs = append(ix.vecs, normalizeCopy(v))
	}
	if nlist <= 0 {
		nlist = 1
	}
	if nlist > len(ix.vecs) {
		nlist = len(ix.vecs)
	}
	if ix.nprobe <= 0 {
		ix.nprobe = 1
	}
	if len(ix.vecs) == 0 {
		return ix
	}
	ix.train(nlist, seed)
	return ix
}

func (ix *IVF) train(nlist int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	dim := len(ix.vecs[0])
	// k-means++ style init: random distinct picks.
	perm := rng.Perm(len(ix.vecs))
	ix.centroids = make([][]float32, nlist)
	for i := 0; i < nlist; i++ {
		c := make([]float32, dim)
		copy(c, ix.vecs[perm[i]])
		ix.centroids[i] = c
	}
	assign := make([]int, len(ix.vecs))
	for iter := 0; iter < 8; iter++ {
		for i, v := range ix.vecs {
			assign[i] = ix.nearestCentroid(v)
		}
		sums := make([][]float64, nlist)
		counts := make([]int, nlist)
		for i := range sums {
			sums[i] = make([]float64, dim)
		}
		for i, v := range ix.vecs {
			c := assign[i]
			counts[c]++
			for d, x := range v {
				sums[c][d] += float64(x)
			}
		}
		for c := range ix.centroids {
			if counts[c] == 0 {
				continue // keep old centroid for empty cluster
			}
			for d := range ix.centroids[c] {
				ix.centroids[c][d] = float32(sums[c][d] / float64(counts[c]))
			}
			normalize32(ix.centroids[c])
		}
	}
	ix.lists = make([][]int, nlist)
	for i, v := range ix.vecs {
		c := ix.nearestCentroid(v)
		ix.lists[c] = append(ix.lists[c], i)
	}
}

func (ix *IVF) nearestCentroid(v []float32) int {
	best, bestSim := 0, math.Inf(-1)
	for c, cent := range ix.centroids {
		if s := sim.Dot(v, cent); s > bestSim {
			bestSim = s
			best = c
		}
	}
	return best
}

// Neighbors implements NeighborSource (approximately).
func (ix *IVF) Neighbors(q string, alpha float64) []Neighbor {
	qi, ok := ix.byToken[q]
	if !ok {
		return nil
	}
	qv := ix.vecs[qi]
	type scored struct {
		c int
		s float64
	}
	cs := make([]scored, len(ix.centroids))
	for c, cent := range ix.centroids {
		cs[c] = scored{c, sim.Dot(qv, cent)}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].s > cs[j].s })
	probes := ix.nprobe
	if probes > len(cs) {
		probes = len(cs)
	}
	var out []Neighbor
	for p := 0; p < probes; p++ {
		for _, i := range ix.lists[cs[p].c] {
			if i == qi {
				continue
			}
			if s := sim.Dot(qv, ix.vecs[i]); s >= alpha {
				out = append(out, Neighbor{Token: ix.tokens[i], Sim: s, ID: ix.ids[i]})
			}
		}
	}
	sortNeighbors(out)
	return out
}

// sorted orders a scan's matches in place and returns them.
func sorted(ns []Neighbor) []Neighbor {
	sortNeighbors(ns)
	return ns
}

// neighbors is Neighbors over a LazySource: q probed alone, its list
// sorted.
func neighbors(ls LazySource, q string, alpha float64) []Neighbor {
	bufs := [1][]Neighbor{}
	ls.ScanNeighbors([]string{q}, alpha, bufs[:])
	return sorted(bufs[0])
}

func sortNeighbors(ns []Neighbor) {
	slices.SortFunc(ns, func(a, b Neighbor) int {
		if a.Sim != b.Sim {
			if a.Sim > b.Sim {
				return -1
			}
			return 1
		}
		return strings.Compare(a.Token, b.Token)
	})
}

func normalizeCopy(v []float32) []float32 {
	out := make([]float32, len(v))
	copy(out, v)
	normalize32(out)
	return out
}

func normalize32(v []float32) {
	var n float64
	for _, x := range v {
		n += float64(x) * float64(x)
	}
	n = math.Sqrt(n)
	if n == 0 {
		return
	}
	for i := range v {
		v[i] = float32(float64(v[i]) / n)
	}
}
