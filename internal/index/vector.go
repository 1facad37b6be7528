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
// one row in each vector lane (DESIGN.md §12).
//
// It is append-only: add writes only the lanes of the row it appends, never
// a float32 that an earlier row owns, so a copy of the struct is an
// immutable view of the rows it was taken over, however the original grows
// afterwards. A view reads the ⌊n/4⌋ full blocks whole and the ≤ 3 rows of
// its partial last block lane by lane; the remaining lanes of that block
// belong to rows the view does not have.
//
// Scores are bit-identical to sim.Dot over normalizeCopy vectors: the same
// float64(a[j])*float64(b[j]) products summed in index order into one
// accumulator per row, with the same clamps. A vector whose length differs
// from the stride is stored as a zero row and scores 0 against everything,
// as sim.Dot's length check made it do against every stride-length vector.
type vecRows struct {
	tokens []string
	ids    []int32 // vocabulary position of each row's token
	dim    int
	data   []float32 // element j of row i is data[(i/4*dim+j)*4+i%4]
}

// useAVX routes dotBlocks and screenBlocks to their assembly kernels and
// useFMA picks the fused ones. Both are set once at init, on amd64, from
// CPUID (dot_amd64.go); tests clear them to run the unfused kernels and the
// portable loops.
var useAVX, useFMA bool

// lane returns the arena offset of element 0 of row i; element j is 4j
// further on.
func (r *vecRows) lane(i int) int { return (i&^3)*r.dim + i&3 }

// add appends one row: v normalized with normalize32's arithmetic, written
// straight into the row's lane.
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
	if len(v) != r.dim {
		return
	}
	var n float64
	for _, x := range v {
		n += float64(x) * float64(x)
	}
	n = math.Sqrt(n)
	at := r.lane(i)
	for j, x := range v {
		if n != 0 {
			x = float32(float64(x) / n)
		}
		r.data[at+4*j] = x
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
// assembly kernels are tested against: out[4b+l] = Σ_j q[j]·float64(element j
// of row 4b+l), unclamped, for the len(out)/4 blocks data starts with.
func dotBlocksGo(q []float64, data []float32, out []float64) {
	dim := len(q)
	for b := 0; b < len(out)/4; b++ {
		blk := data[4*b*dim:][:4*dim]
		var d0, d1, d2, d3 float64
		// The slices shrink as the loop advances, so its condition is the
		// only bounds check.
		for qs := q; len(qs) >= 1 && len(blk) >= 4; qs, blk = qs[1:], blk[4:] {
			d0 += qs[0] * float64(blk[0])
			d1 += qs[0] * float64(blk[1])
			d2 += qs[0] * float64(blk[2])
			d3 += qs[0] * float64(blk[3])
		}
		o := out[4*b:][:4]
		o[0], o[1], o[2], o[3] = d0, d1, d2, d3
	}
}

// screenCut is the float32 threshold of the screen for α and a stride: the
// largest float32 not above α − ε, ε = (dim+4)·2⁻²³. ε is a bound, not a
// tuning value (DESIGN.md §12 derives it): a float32 sum of a row's products
// in which no product passes through more than ⌈dim/2⌉+1 roundings — fused
// or not, as in all three screens — and the float64 sum dotBlocks emits are
// less than ε/3 apart when both rows were written by add, so a row that
// scores α or more sums to cut or more. The derivation wants (dim/2+1)·2⁻²⁴
// below 1/8; a stride of 2²² or more gets the cut nothing is below.
func screenCut(alpha float64, dim int) float32 {
	if dim >= 1<<22 {
		return float32(math.Inf(-1))
	}
	c := alpha - float64(dim+4)*0x1p-23
	cut := float32(c)
	if float64(cut) > c {
		cut = math.Nextafter32(cut, float32(math.Inf(-1)))
	}
	return cut
}

// expand writes the screen's form of the query rows qis to xq, 4·dim floats
// a row: element j four times over, so that a step of an expanded row lines
// up with the same step of a block, lane for lane.
func (r *vecRows) expand(qis []int, xq []float32) {
	for g, qi := range qis {
		x := xq[g*4*r.dim:][:4*r.dim]
		for j, at := 0, r.lane(qi); j < len(x); j += 4 {
			v := r.data[at+j]
			x[j], x[j+1], x[j+2], x[j+3] = v, v, v, v
		}
	}
}

// screenBlocksGo is the screen in portable Go: for each of the nq expanded
// query rows in xq and each of the first nblk blocks at data, bit l of
// mask[g·scanChunk+b] is set unless the float32 dot of query row g and row
// 4b+l is less than cut — so a NaN sum, which proves nothing, flags. The
// sums are the assembly's: even and odd elements apart, the two added, then
// a lone last element.
func screenBlocksGo(xq []float32, nq, dim int, data []float32, nblk int, cut float32, mask []byte) {
	for g := 0; g < nq; g++ {
		for b := 0; b < nblk; b++ {
			qs, blk := xq[g*4*dim:][:4*dim], data[4*b*dim:][:4*dim]
			var e0, e1, e2, e3, o0, o1, o2, o3 float32
			// The slices shrink as the loop advances, so its condition is the
			// only bounds check.
			for ; len(qs) >= 8 && len(blk) >= 8; qs, blk = qs[8:], blk[8:] {
				e0 += qs[0] * blk[0]
				e1 += qs[1] * blk[1]
				e2 += qs[2] * blk[2]
				e3 += qs[3] * blk[3]
				o0 += qs[4] * blk[4]
				o1 += qs[5] * blk[5]
				o2 += qs[6] * blk[6]
				o3 += qs[7] * blk[7]
			}
			e0, e1, e2, e3 = e0+o0, e1+o1, e2+o2, e3+o3
			if len(qs) >= 4 && len(blk) >= 4 {
				e0 += qs[0] * blk[0]
				e1 += qs[1] * blk[1]
				e2 += qs[2] * blk[2]
				e3 += qs[3] * blk[3]
			}
			var m byte
			if !(e0 < cut) {
				m = 1
			}
			if !(e1 < cut) {
				m |= 2
			}
			if !(e2 < cut) {
				m |= 4
			}
			if !(e3 < cut) {
				m |= 8
			}
			mask[g*scanChunk+b] = m
		}
	}
}

// scanChunk is how many blocks of the arena the scan screens and scores
// every query row against before it moves on: the chunk stays in cache for
// all of a search's rows, and the assembly kernels, which cannot be
// preempted, return to Go every 256 rows. The screen kernels know it as
// maskRow (dot_amd64.s).
const scanChunk = 64

// scanScratch is what one scan needs beside its output: the query rows
// expanded for screenBlocks, one mask byte per query row and block of a
// chunk, and one query row widened to float64 for dotBlocks.
type scanScratch struct {
	lanes []float32
	mask  []byte
	wide  []float64
}

var scanScratches = sync.Pool{New: func() any { return new(scanScratch) }}

// scan appends every row except qi with similarity ≥ alpha to buf,
// unsorted: scanAll for a group of one.
func (r *vecRows) scan(qi int, alpha float64, buf []Neighbor) []Neighbor {
	bufs := [1][]Neighbor{buf}
	r.scanAll([]int{qi}, alpha, bufs[:])
	return bufs[0]
}

// scanAll appends to bufs[g] every row except qis[g] with similarity ≥ alpha
// to row qis[g], unsorted, in one pass of the arena. A chunk at a time, the
// float32 screen marks for every query row the blocks that may hold a match
// and dotBlocks → appendMatches score those, in maximal runs: every score
// that leaves is the exact kernel's, the screen only decides where it need
// not run. The rows of a partial last block go through dot.
//
// Two classes of α have nothing to screen. α ≤ 0 admits every row once the
// lower clamp has lifted it to 0, so every block is flagged without looking;
// α > 1 and NaN admit none, whatever the arena holds.
func (r *vecRows) scanAll(qis []int, alpha float64, bufs [][]Neighbor) {
	if !(alpha <= 1) {
		return
	}
	s := scanScratches.Get().(*scanScratch)
	defer scanScratches.Put(s)
	nq := len(qis)
	even := nq + nq&1 // the screen takes query rows in pairs: an odd one out rides beside a zero row
	if cap(s.mask) < even*scanChunk {
		s.mask = make([]byte, even*scanChunk)
	}
	if cap(s.wide) < r.dim {
		s.wide = make([]float64, r.dim)
	}
	mask, q := s.mask[:even*scanChunk], s.wide[:r.dim]
	screen, cut := alpha > 0, screenCut(alpha, r.dim)
	var xq []float32
	if screen {
		if cap(s.lanes) < even*4*r.dim {
			s.lanes = make([]float32, even*4*r.dim)
		}
		xq = s.lanes[:even*4*r.dim]
		r.expand(qis, xq)
		clear(xq[nq*4*r.dim:])
	} else {
		for i := range mask {
			mask[i] = 15
		}
	}
	n := len(r.tokens)
	full := n &^ 3
	var dots [4 * scanChunk]float64
	for i := 0; i < full; i += 4 * scanChunk {
		chunk, nblk := r.data[i*r.dim:], min(scanChunk, (full-i)/4)
		if screen {
			screenBlocks(xq, nq, r.dim, chunk, nblk, cut, mask)
		}
		for g, qi := range qis {
			m := mask[g*scanChunk:][:nblk]
			widened := false // q holds row qi
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
				if !widened {
					for j, at := 0, r.lane(qi); j < r.dim; j++ {
						q[j] = float64(r.data[at+4*j])
					}
					widened = true
				}
				d := dots[:4*(end-b)]
				dotBlocks(q, chunk[4*b*r.dim:], d)
				bufs[g] = r.appendMatches(bufs[g], i+4*b, d, qi, alpha)
				b = end
			}
		}
	}
	for g, qi := range qis {
		for i := full; i < n; i++ {
			dots[i-full] = r.dot(qi, i)
		}
		bufs[g] = r.appendMatches(bufs[g], full, dots[:n-full], qi, alpha)
	}
}

// cursors is the LazySource probe of the sources over a vecRows: one cursor
// per query element, the elements rowOf finds a row for (≥ 0) scanned
// together. An element without a row has no vector to search with, so no
// semantic neighbors: its cursor is empty.
func (r *vecRows) cursors(qs []string, alpha float64, rowOf func(string) int) []NeighborCursor {
	out := make([]NeighborCursor, len(qs))
	qis, at := make([]int, 0, len(qs)), make([]int, 0, len(qs))
	for i, q := range qs {
		if qi := rowOf(q); qi >= 0 {
			qis, at = append(qis, qi), append(at, i)
		} else {
			out[i] = &eagerCursor{}
		}
	}
	bufs := make([][]Neighbor, len(qis))
	r.scanAll(qis, alpha, bufs)
	for g, i := range at {
		out[i] = newLazyScan(bufs[g])
	}
	return out
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
// arena.
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
	return e
}

// Len returns the number of indexed (covered) tokens.
func (e *Exact) Len() int { return len(e.rows.tokens) }

// Neighbors implements NeighborSource.
func (e *Exact) Neighbors(q string, alpha float64) []Neighbor {
	qi, ok := e.byToken[q]
	if !ok {
		return nil // out-of-vocabulary query element: no semantic neighbors
	}
	return sorted(e.rows.scan(qi, alpha, nil))
}

// NeighborCursors implements LazySource: the scan still computes every
// similarity (that is what keeps Exact exact), for all the elements in one
// pass of the arena, but neighbors are only ordered as they are consumed.
func (e *Exact) NeighborCursors(qs []string, alpha float64) []NeighborCursor {
	return e.rows.cursors(qs, alpha, func(q string) int {
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
