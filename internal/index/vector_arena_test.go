package index

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/embedding"
	"repro/internal/sets"
	"repro/internal/sim"
)

// arenaFixture is a vocabulary with one vector per token and the reference
// the arena must reproduce: sim.Dot over normalizeCopy vectors.
type arenaFixture struct {
	tokens []string
	vecs   map[string][]float32
	ref    [][]float32
}

// newArenaFixture draws n random vectors of the given dimension, then makes
// one of them all zeros and one a component too long. Neither is the first
// vector, so the stride is dim.
func newArenaFixture(rng *rand.Rand, n, dim int) *arenaFixture {
	f := &arenaFixture{vecs: make(map[string][]float32)}
	for i := 0; i < n; i++ {
		v := make([]float32, dim)
		for j := range v {
			v[j] = float32(rng.NormFloat64())
		}
		switch i {
		case 2:
			clear(v)
		case 5:
			v = append(v, 0.5)
		}
		tok := fmt.Sprintf("tok%03d", i)
		f.tokens = append(f.tokens, tok)
		f.vecs[tok] = v
		f.ref = append(f.ref, normalizeCopy(v))
	}
	return f
}

func (f *arenaFixture) vec(tok string) ([]float32, bool) {
	v, ok := f.vecs[tok]
	return v, ok
}

// want returns the reference neighbors of token qi among the first n tokens.
func (f *arenaFixture) want(qi, n int, alpha float64) []Neighbor {
	var out []Neighbor
	for j := 0; j < n; j++ {
		if j == qi {
			continue
		}
		if s := sim.Dot(f.ref[qi], f.ref[j]); s >= alpha {
			out = append(out, Neighbor{Token: f.tokens[j], Sim: s, ID: int32(j)})
		}
	}
	sortNeighbors(out)
	return out
}

func sameNeighborBits(got, want []Neighbor) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d neighbors, want %d\ngot:  %v\nwant: %v", len(got), len(want), got, want)
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Token != w.Token || g.ID != w.ID || math.Float64bits(g.Sim) != math.Float64bits(w.Sim) {
			return fmt.Errorf("rank %d: %+v (bits %x), want %+v (bits %x)",
				i, g, math.Float64bits(g.Sim), w, math.Float64bits(w.Sim))
		}
	}
	return nil
}

// scanModes runs f on the scan this CPU selected and on every slower one it
// can also run: the unfused AVX kernel where the selected one is FMA, and
// the portable loop where there is a kernel at all.
func scanModes(f func(mode string)) {
	defer func(avx, fma bool) { useAVX, useFMA = avx, fma }(useAVX, useFMA)
	f("selected")
	if useAVX && useFMA {
		useFMA = false
		f("unfused")
	}
	if useAVX {
		useAVX = false
		f("portable")
	}
}

// drain empties a cursor in chunks of seven.
func drain(c NeighborCursor) []Neighbor {
	var out []Neighbor
	for chunk := c.Next(7); len(chunk) > 0; chunk = c.Next(7) {
		out = append(out, chunk...)
	}
	return out
}

// TestVectorArenaBitIdentical: the arena scan (one row per vector lane,
// query row widened once) must reproduce sim.Dot over normalizeCopy vectors
// bit for bit — AVX kernel, portable loop and strided PairSim alike, on
// Exact and DynamicExact — because the repository benchmark's output check
// compares served scores with an index.NewExact reference for equality, and
// every equivalence test in core compares scores across sources the same
// way. The sizes sit on the scan's seams: no full block, the kernel's
// one-block remainder loop, its eight-block loop, a whole 64-block chunk,
// each with and without tail rows.
func TestVectorArenaBitIdentical(t *testing.T) {
	t.Run("growth", testVectorArenaGrowth)
	scanModes(func(mode string) {
		rng := rand.New(rand.NewSource(91))
		for _, dim := range []int{1, 3, 32, 33, 300} {
			for _, n := range []int{0, 1, 3, 4, 5, 31, 32, 33, 35, 36, 61, 255, 256, 257, 260} {
				testArenaSeam(t, mode, newArenaFixture(rng, n, dim), dim)
			}
		}
	})
}

func testArenaSeam(t *testing.T, mode string, f *arenaFixture, dim int) {
	n := len(f.tokens)
	dict, err := sets.NewDictionaryFromTokens(f.tokens)
	if err != nil {
		t.Fatal(err)
	}
	sources := map[string]interface {
		NeighborSource
		LazySource
		CompleteScorer
	}{
		"Exact":        NewExact(f.tokens, f.vec),
		"DynamicExact": NewDynamicExact(dict, f.vec),
	}
	// Small fixtures query every row; large ones the first row, the zero
	// and the off-stride row, a row in a full block, the first row after
	// the full blocks and the last row.
	var queries []int
	for qi := 0; qi < n; qi++ {
		if n <= 36 || qi == 0 || qi == 2 || qi == 5 || qi == n/2 || qi == n&^3 || qi == n-1 {
			queries = append(queries, qi)
		}
	}
	// One threshold is a similarity that occurs, so the s == α boundary is
	// exercised: that pair must be retrieved.
	edge := -1.0
	for j := 1; j < n && edge <= 0; j++ {
		edge = sim.Dot(f.ref[0], f.ref[j])
	}
	for name, src := range sources {
		label := fmt.Sprintf("%s scan, %s dim=%d n=%d", mode, name, dim, n)
		if got := src.Neighbors("never-indexed", 0); got != nil {
			t.Fatalf("%s: neighbors of an unindexed token: %v", label, got)
		}
		for _, alpha := range []float64{0, 0.3, 0.8, edge} {
			for _, qi := range queries {
				want := f.want(qi, n, alpha)
				if err := sameNeighborBits(src.Neighbors(f.tokens[qi], alpha), want); err != nil {
					t.Fatalf("%s q=%d α=%v: Neighbors: %v", label, qi, alpha, err)
				}
				if err := sameNeighborBits(drain(src.NeighborCursors([]string{f.tokens[qi]}, alpha)[0]), want); err != nil {
					t.Fatalf("%s q=%d α=%v: NeighborCursors: %v", label, qi, alpha, err)
				}
			}
		}
		// All the queries and an unindexed token as one search's elements:
		// one pass of the arena, each cursor its own element's neighbors.
		batch := []string{"never-indexed"}
		for _, qi := range queries {
			batch = append(batch, f.tokens[qi])
		}
		for _, alpha := range []float64{0.3, edge} {
			curs := src.NeighborCursors(batch, alpha)
			if got := drain(curs[0]); len(got) != 0 {
				t.Fatalf("%s α=%v: cursor of an unindexed token: %v", label, alpha, got)
			}
			for g, qi := range queries {
				if err := sameNeighborBits(drain(curs[g+1]), f.want(qi, n, alpha)); err != nil {
					t.Fatalf("%s q=%d α=%v: NeighborCursors, element %d of %d: %v", label, qi, alpha, g+1, len(batch), err)
				}
			}
		}
		if edge > 0 {
			found := false
			for _, nb := range src.Neighbors(f.tokens[0], edge) {
				found = found || nb.Sim == edge
			}
			if !found {
				t.Fatalf("%s: the pair with s == α = %v was not retrieved", label, edge)
			}
		}
		for _, a := range queries {
			for b := range f.tokens {
				if a == b && len(f.ref[a]) != dim {
					continue // an off-stride vector scores 0 even against itself
				}
				got, want := src.PairSim(f.tokens[a], f.tokens[b]), sim.Dot(f.ref[a], f.ref[b])
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: PairSim(%d,%d) = %v, want %v", label, a, b, got, want)
				}
			}
		}
		if n > 0 {
			if got := src.PairSim(f.tokens[0], "never-indexed"); got != 0 {
				t.Fatalf("%s: PairSim with an unindexed token = %v, want 0", label, got)
			}
		}
	}
}

// TestArenaDegenerateShapes: the shapes the assembly kernel cannot take —
// its loops count down from dim and from the block count — go through the
// portable loop and still score as sim.Dot does.
func TestArenaDegenerateShapes(t *testing.T) {
	for _, tc := range []struct {
		name string
		vecs [][]float32 // vecs[0] sets the stride
	}{
		{"dim 0, no full block", [][]float32{{}, {}, {1}}},
		{"dim 0, full blocks", [][]float32{{}, {}, {1, 2}, {}, {}, {}, {}, {}, {3}}},
		{"no full block", [][]float32{{1, 0}, {1, 1}, {0, 1}}},
		{"one row", [][]float32{{1, 0}}},
	} {
		scanModes(func(mode string) {
			var r vecRows
			for i, v := range tc.vecs {
				r.add(fmt.Sprint(i), int32(i), v)
			}
			for qi := range tc.vecs {
				for _, alpha := range []float64{0, 0.5} {
					var want []Neighbor
					for i, v := range tc.vecs {
						s := 0.0
						if len(v) == r.dim {
							s = sim.Dot(normalizeCopy(tc.vecs[qi]), normalizeCopy(v))
						}
						if i != qi && s >= alpha {
							want = append(want, Neighbor{Token: r.tokens[i], Sim: s, ID: r.ids[i]})
						}
					}
					if err := sameNeighborBits(r.scan(qi, alpha, nil), want); err != nil {
						t.Fatalf("%s, %s scan: q=%d α=%v: %v", tc.name, mode, qi, alpha, err)
					}
				}
			}
		})
	}
	dotBlocks(nil, nil, nil)                                                       // no rows at all
	dotBlocks([]float64{1}, nil, nil)                                              // no full block
	dotBlocks(nil, nil, make([]float64, 8))                                        // dim 0
	screenBlocks(nil, 0, 3, nil, 0, 0.5, nil)                                      // no query rows
	screenBlocks(make([]float32, 8), 1, 1, nil, 0, 0.5, make([]byte, 2*scanChunk)) // no full block
	screenBlocks(nil, 1, 0, nil, 2, 0.5, make([]byte, 2*scanChunk))                // dim 0
}

// TestArenaEmitThresholds: the emit pass drops a row on one raw s < α
// compare; it must emit exactly what clamp-then-compare emits, for every
// α including those outside (0, 1] and NaN.
func TestArenaEmitThresholds(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	dots := []float64{nan, -inf, -0.5, math.Copysign(0, -1), 0, 5e-324, 0.5, 1 - 1e-16, 1, 1 + 3e-16, 7, inf}
	var r vecRows
	for i := range dots {
		r.add(fmt.Sprint(i), int32(i), []float32{1})
	}
	for _, alpha := range []float64{nan, -inf, -1, math.Copysign(0, -1), 0, 5e-324, 0.5, 1, 1 + 1e-16, 1 + 3e-16, 2, inf} {
		for _, qi := range []int{-1, 3, 8} {
			var want []Neighbor
			for i, s := range dots {
				if s < 0 { // sim.Dot's clamps
					s = 0
				} else if s > 1 {
					s = 1
				}
				if s >= alpha && i != qi {
					want = append(want, Neighbor{Token: r.tokens[i], Sim: s, ID: r.ids[i]})
				}
			}
			if err := sameNeighborBits(r.appendMatches(nil, 0, dots, qi, alpha), want); err != nil {
				t.Fatalf("α=%v q=%d: %v", alpha, qi, err)
			}
		}
	}
}

// arenaFromBytes builds an arena of at most maxRows rows of stride dim (the
// first row may set another: r.dim is what counts) from data — zero,
// off-stride, denormal, huge and infinite components among ordinary ones —
// and the reference vectors sim.Dot scores: normalizeCopy of what each row
// stores.
func arenaFromBytes(dim int, data []byte, maxRows int) (r vecRows, ref [][]float32) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	for len(data) > 0 && len(ref) < maxRows {
		v := make([]float32, dim)
		switch next() & 7 {
		case 0: // zero vector
		case 1: // off-stride (or, as the first row, the stride setter)
			v = append(v, 1)
			fallthrough
		default:
			for j := range v {
				switch b := next(); b >> 5 {
				case 0:
					v[j] = 0
				case 1:
					v[j] = math.Float32frombits(uint32(b&31) + 1) // denormal
				case 2:
					v[j] = float32(int(b&31)-16) * 2e37 // huge
				case 3:
					v[j] = float32(math.Inf(int(b&1) - 1)) // normalizes to NaN
				default:
					v[j] = float32(int(b&63)-32) / 8
				}
			}
		}
		r.add(fmt.Sprint(len(ref)), int32(len(ref)), v)
		if len(v) != r.dim {
			v = make([]float32, r.dim) // off-stride: stored as a zero row
		}
		ref = append(ref, normalizeCopy(v))
	}
	return r, ref
}

// screenFlags screens the full blocks of r for the query rows qis on the
// selected kernel, a chunk at a time as scanAll does, and returns each query
// row's mask bytes, one per block.
func screenFlags(r *vecRows, qis []int, alpha float64) [][]byte {
	nq := len(qis)
	even := nq + nq&1
	xq, mask := make([]float32, even*4*r.dim), make([]byte, even*scanChunk)
	r.expand(qis, xq)
	cut, flags := screenCut(alpha, r.dim), make([][]byte, nq)
	for b, blocks := 0, len(r.tokens)/4; b < blocks; b += scanChunk {
		nblk := min(scanChunk, blocks-b)
		screenBlocks(xq, nq, r.dim, r.data[4*b*r.dim:], nblk, cut, mask)
		for g := range flags {
			flags[g] = append(flags[g], mask[g*scanChunk:][:nblk]...)
		}
	}
	return flags
}

// checkScreen holds the selected screen to its contract for an α it is
// used at: a clear bit means the row cannot reach α. So every row of a full
// block whose score[g][i] — the pair's sim.Dot — is not below α has its bit
// set for query row g, and that includes a NaN score, which is not below
// anything: the screen rules only on sums it can order.
func checkScreen(t *testing.T, mode string, r *vecRows, qis []int, score [][]float64, alpha float64) {
	t.Helper()
	for g, m := range screenFlags(r, qis, alpha) {
		for i := range 4 * len(m) {
			if s := score[g][i]; !(s < alpha) && m[i/4]>>(i%4)&1 == 0 {
				t.Fatalf("%s screen, dim=%d n=%d α=%v, element %d of %v: row %d scores %v (%v below α) in block %d, flagged %04b",
					mode, r.dim, len(r.tokens), alpha, g, qis, i, s, alpha-s, i/4, m[i/4])
			}
		}
	}
}

// checkArenaBatch scores the query rows qis in one scanAll, and each in a
// scan of its own, on every kernel this CPU runs: both must return, for
// every element, exactly the rows whose per-pair sim.Dot reaches alpha,
// with that score, in row order, and where the scan screens — α in (0, 1] —
// the screen must have flagged them (checkScreen). PairSim's strided dot is
// held to the same reference.
func checkArenaBatch(t *testing.T, r *vecRows, ref [][]float32, qis []int, alpha float64) {
	t.Helper()
	want, score := make([][]Neighbor, len(qis)), make([][]float64, len(qis))
	for g, qi := range qis {
		for i, v := range ref {
			s := sim.Dot(ref[qi], v)
			if got := r.dot(qi, i); math.Float64bits(got) != math.Float64bits(s) && !(got != got && s != s) {
				t.Fatalf("dot(%d,%d) = %v, want %v", qi, i, got, s)
			}
			score[g] = append(score[g], s)
			if i != qi && s >= alpha {
				want[g] = append(want[g], Neighbor{Token: r.tokens[i], Sim: s, ID: r.ids[i]})
			}
		}
	}
	scanModes(func(mode string) {
		bufs := make([][]Neighbor, len(qis))
		r.scanAll(qis, alpha, bufs)
		for g, qi := range qis {
			if err := sameNeighborBits(bufs[g], want[g]); err != nil {
				t.Fatalf("%s scanAll, dim=%d n=%d α=%v, element %d of %v: %v", mode, r.dim, len(ref), alpha, g, qis, err)
			}
			if err := sameNeighborBits(r.scan(qi, alpha, nil), want[g]); err != nil {
				t.Fatalf("%s scan, dim=%d n=%d q=%d α=%v: %v", mode, r.dim, len(ref), qi, alpha, err)
			}
		}
		if alpha > 0 && alpha <= 1 {
			checkScreen(t, mode, r, qis, score, alpha)
		}
	})
}

// TestScreenIsABound: the float32 screen may clear a row's bit only if the
// row cannot reach α, on the fused, unfused and portable screens alike. The
// rows that could catch it out are the ones whose exact score sits within a
// few float32 ulps of α, where the float32 sum lands on either side: for
// every stride 1–40 and 300 the fixture scales one component of a copy of
// the query row until the pair scores 0.8, then steps that component ulp by
// ulp, and screens at 0.8 and at the middle row's own score. Around them:
// zero, off-stride, denormal, huge, ±Inf and NaN rows (the last three are
// NaN rows once normalized, and as query rows score NaN against everything)
// and a block of −q, which any screen worth running leaves unflagged.
func TestScreenIsABound(t *testing.T) {
	// The cut itself: the float32 next below α − ε, never the one above.
	for _, dim := range []int{0, 1, 32, 300, 1<<22 - 1} {
		for _, alpha := range []float64{5e-324, 0.3, 0.8, 1} {
			cut, c := screenCut(alpha, dim), alpha-float64(dim+4)/(1<<23)
			if up := math.Nextafter32(cut, 2); !(float64(cut) <= c && float64(up) > c) {
				t.Fatalf("screenCut(%v, %d) = %v, next float32 %v, want them around %v", alpha, dim, cut, up, c)
			}
		}
	}
	if cut := screenCut(0.8, 1<<22); !math.IsInf(float64(cut), -1) {
		t.Fatalf("screenCut at a stride the bound is not derived for = %v, want -Inf", cut)
	}
	rng := rand.New(rand.NewSource(95))
	const target, steps = 0.8, 8
	ulp := float64(math.Nextafter32(target, 1)) - float64(float32(target))
	for _, dim := range append(seq(1, 40), 300) {
		q := make([]float32, dim)
		c := 0 // the component to scale: the largest, so that scaling it down crosses any α
		for j := range q {
			q[j] = float32(rng.NormFloat64())
			if math.Abs(float64(q[j])) > math.Abs(float64(q[c])) {
				c = j
			}
		}
		with := func(x float32) []float32 {
			v := slices.Clone(q)
			v[c] = x
			return v
		}
		refQ := normalizeCopy(q)
		// The pair's score rises with the scale t up to t = 1: bisect.
		lo, hi := -1e3, 1.0
		for range 64 {
			if mid := (lo + hi) / 2; sim.Dot(refQ, normalizeCopy(with(float32(mid)*q[c]))) < target {
				lo = mid
			} else {
				hi = mid
			}
		}
		random := func() []float32 {
			v := make([]float32, dim)
			for j := range v {
				v[j] = float32(rng.NormFloat64())
			}
			return v
		}
		fill := func(x float32) []float32 {
			v := make([]float32, dim)
			for j := range v {
				v[j] = x
			}
			return v
		}
		inf := float32(math.Inf(1))
		denormal := with(math.Float32frombits(3)) // normalizes to a row that keeps a denormal
		vecs := [][]float32{q, random(), make([]float32, dim), append(random(), 1), fill(math.Float32frombits(7)), denormal,
			fill(-3e38), with(inf), with(-inf), with(float32(math.NaN()))}
		queries := []int{0, 1, 2, 4, 5, 7, 9}
		for len(vecs)%4 != 0 {
			vecs = append(vecs, random())
		}
		opposite, minusQ := len(vecs)/4, make([]float32, dim)
		for j := range q {
			minusQ[j] = -q[j]
		}
		vecs = append(vecs, minusQ, minusQ, minusQ, minusQ)
		near := len(vecs)
		if dim > 1 {
			at := math.Float32bits(float32(hi) * q[c])
			for k := -steps; k <= steps; k++ {
				vecs = append(vecs, with(math.Float32frombits(uint32(int(at)+k))))
			}
		}
		for len(vecs) < near+40 {
			vecs = append(vecs, random())
		}
		var r vecRows
		var ref [][]float32
		for i, v := range vecs {
			r.add(fmt.Sprint(i), int32(i), v)
			if len(v) != dim {
				v = make([]float32, dim)
			}
			ref = append(ref, normalizeCopy(v))
		}
		score := make([][]float64, len(queries))
		for g, qi := range queries {
			for _, v := range ref {
				score[g] = append(score[g], sim.Dot(ref[qi], v))
			}
		}
		alphas := []float64{target, 1}
		if dim > 1 {
			// The fixture must do what it is for: a row a few float32 ulps
			// below the target and one as close at or above it.
			mid := score[0][near+steps]
			alphas = append(alphas, mid)
			below, above := math.Inf(1), math.Inf(1)
			for _, s := range score[0][near : near+2*steps+1] {
				if s < target {
					below = min(below, target-s)
				} else {
					above = min(above, s-target)
				}
			}
			if below > 4*ulp || above > 4*ulp {
				t.Fatalf("dim=%d: nearest rows %.3g below and %.3g above α, want both within %.3g", dim, below, above, 4*ulp)
			}
		}
		scanModes(func(mode string) {
			for _, alpha := range alphas {
				checkScreen(t, mode, &r, queries, score, alpha)
			}
			if m := screenFlags(&r, queries[:1], target)[0][opposite]; m != 0 {
				t.Fatalf("%s screen, dim=%d: the block of −q is flagged %04b at α=%v", mode, dim, m, target)
			}
		})
	}
}

// seq returns lo, lo+1, …, hi.
func seq(lo, hi int) []int {
	var out []int
	for i := lo; i <= hi; i++ {
		out = append(out, i)
	}
	return out
}

// TestArenaGroupKernel walks the group pass over its seams: every stride
// from 1 to 40 (the odd ones end in the screen's 128-bit half step), block
// counts that end in each of the screen's and the exact kernel's loops (none,
// the one-block loops, the four- and eight-block loops with and without a
// remainder), 0–3 rows in the partial last block, searches of one element
// (beside the screen's zero row) up to two pairs and an odd row out, with
// one row twice in the first pair, and every class of α — over rows that
// hold zero, off-stride, denormal, huge, infinite and NaN components. The
// screen's pair loops are held to checkScreen: a step that multiplies the
// wrong expanded row into an accumulator clears bits it may not clear.
func TestArenaGroupKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	for dim := 1; dim <= 40; dim++ {
		for _, nblk := range []int{0, 1, 3, 4, 5, 8, 9, 13} {
			for tail := 0; tail < 4; tail++ {
				n := 4*nblk + tail
				if n == 0 {
					continue
				}
				data := make([]byte, n*(dim+2)) // a row reads at most dim+2 bytes
				rng.Read(data)
				data[0] |= 2 // the first row sets the stride: not zero, not off-stride
				r, ref := arenaFromBytes(dim, data, n)
				if len(ref) != n || r.dim != dim {
					t.Fatalf("fixture has %d rows of stride %d, want %d of %d", len(ref), r.dim, n, dim)
				}
				alphas := []float64{0.3, 0.8}
				if (dim+nblk+tail)%5 == 0 {
					alphas = []float64{math.NaN(), -1, 0, 5e-324, 0.3, 0.8, 1, 1.5}
				}
				for size := 1; size <= 5; size++ {
					qis := make([]int, size)
					for g := range qis {
						qis[g] = rng.Intn(len(ref))
					}
					if size >= 2 {
						qis[1] = qis[0] // one row twice in the first pair
					}
					for _, alpha := range alphas {
						checkArenaBatch(t, &r, ref, qis, alpha)
					}
				}
			}
		}
	}
}

// FuzzArenaScan: bytes → stride, rows (zero, off-stride, denormal, huge and
// infinite components among ordinary ones), α and a search's query rows —
// one to eight, one of them possibly twice; the group pass and the single
// scan, on every kernel this CPU runs, and PairSim must equal per-pair
// sim.Dot over normalizeCopy vectors.
func FuzzArenaScan(f *testing.F) {
	f.Add([]byte{3, 128, 0, 2, 0x91, 0x92, 0x93, 2, 0x94, 0x95, 0x96, 0, 1, 0x90, 2, 0x21, 0x41, 0x9f})
	f.Add([]byte{0, 0, 1, 2, 2, 1, 0x90, 2, 2, 2, 2, 2, 2, 2})
	big := []byte{32, 200, 70} // 40 rows of 32 ordinary components: the multi-block loops, three query rows
	for i := 0; i < 40*33; i++ {
		big = append(big, byte(130+i*37%120))
	}
	f.Add(big)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		dim := int(data[0]) % 41
		alpha := float64(data[1]) / 250
		if special := []float64{0, -1, math.NaN(), 1, 1.5}; int(data[1]) < len(special) {
			alpha = special[data[1]]
		}
		pick := int(data[2])
		r, ref := arenaFromBytes(dim, data[3:], 300)
		if len(ref) == 0 {
			return
		}
		qis := make([]int, 1+pick>>5)
		for g := range qis {
			qis[g] = (pick + g*(1+pick%3)) % len(ref)
		}
		if pick&16 != 0 {
			qis[len(qis)-1] = qis[0]
		}
		checkArenaBatch(t, &r, ref, qis, alpha)
	})
}

// BenchmarkArenaScan measures the arena scan — every block screened, the
// flagged ones scored, α-matches appended — per row and query element, at
// the benchmark's search_small size (≈ 11k tokens, 32 dimensions), at a size
// that fits L2 and at one that does not (40k rows, 5 MB: what the kernels'
// prefetch is for): one probe at a time on the selected kernels, the unfused
// ones and the portable loops, and the 168 elements of a search_large query
// in one group pass. Among Gaussian rows no pair reaches 0.8, so those
// arenas time the screen and an emit pass that finds each query row's own
// block; the model arena has search_small's vocabulary shape — clusters of
// 2–6 tokens, noise 0.07, in no particular order — and so the matches a
// search retrieves. flagged/blk is the share of (query row, block) pairs the
// screen hands to the exact kernel.
func BenchmarkArenaScan(b *testing.B) {
	const dim = 32
	type arena struct {
		name string
		rows *vecRows
	}
	var arenas []arena
	for _, n := range []int{11000, 2000, 40000} {
		rng := rand.New(rand.NewSource(93))
		r, v := new(vecRows), make([]float32, dim)
		for i := 0; i < n; i++ {
			for j := range v {
				v[j] = float32(rng.NormFloat64())
			}
			r.add(fmt.Sprint(i), int32(i), v)
		}
		arenas = append(arenas, arena{fmt.Sprintf("%dx%d", n, dim), r})
	}
	model := embedding.NewModel(embedding.Config{Dim: dim, Clusters: 2750, Seed: 93})
	clustered, toks := new(vecRows), slices.Clone(model.Tokens())
	rand.New(rand.NewSource(93)).Shuffle(len(toks), func(i, j int) { toks[i], toks[j] = toks[j], toks[i] })
	for i, tok := range toks {
		v, _ := model.Vector(tok)
		clustered.add(tok, int32(i), v)
	}
	for _, a := range append(arenas, arena{"model", clustered}) {
		name, r := a.name, a.rows
		n := len(r.tokens)
		for _, mode := range []struct {
			name     string
			avx, fma bool
			elems    int
		}{{"kernel", true, true, 1}, {"unfused", true, false, 1}, {"portable", false, false, 1},
			{"kernel-grouped", true, true, 168}, {"unfused-grouped", true, false, 168}, {"portable-grouped", false, false, 168}} {
			b.Run(name+"/"+mode.name, func(b *testing.B) {
				if mode.avx && !useAVX || mode.fma && !useFMA {
					b.Skip("not on this CPU")
				}
				defer func(avx, fma bool) { useAVX, useFMA = avx, fma }(useAVX, useFMA)
				useAVX, useFMA = mode.avx, mode.fma
				qis := make([]int, mode.elems)
				bufs := make([][]Neighbor, mode.elems)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for g := range qis {
						qis[g], bufs[g] = (i*len(qis)+g)%n, bufs[g][:0]
					}
					r.scanAll(qis, 0.8, bufs)
				}
				b.StopTimer()
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n)/float64(mode.elems), "ns/row")
				flagged, blocks := 0, 0
				for _, m := range screenFlags(r, qis, 0.8) {
					blocks += len(m)
					flagged += len(m) - bytes.Count(m, []byte{0})
				}
				b.ReportMetric(float64(flagged)/float64(blocks), "flagged/blk")
			})
		}
	}
}

// testVectorArenaGrowth: a scan that loaded a view keeps reading exactly
// that view while Sync appends rows (and reallocates the arena) behind it.
// The first view ends in a partial block (42 rows), so the rows Sync adds
// next land in lanes of a block the old view still reads. The second half
// does the same from concurrent goroutines, one row per Sync, for -race.
func testVectorArenaGrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(92))
	const n0, n1, dim = 42, 400, 16
	f := newArenaFixture(rng, n1, dim)
	dict, err := sets.NewDictionaryFromTokens(f.tokens[:n0])
	if err != nil {
		t.Fatal(err)
	}
	e := NewDynamicExact(dict, f.vec)
	old := e.current()
	if len(old.tokens) != n0 {
		t.Fatalf("first view covers %d tokens, want %d", len(old.tokens), n0)
	}
	for _, tok := range f.tokens[n0 : n0+100] {
		dict.Intern(tok)
	}
	e.Sync()
	if e.Len() != n0+100 {
		t.Fatalf("Len after growth = %d, want %d", e.Len(), n0+100)
	}
	for qi := 0; qi < n0; qi++ {
		got := old.scan(qi, 0.2, nil)
		sortNeighbors(got)
		if err := sameNeighborBits(got, f.want(qi, n0, 0.2)); err != nil {
			t.Fatalf("old view, q=%d after growth: %v", qi, err)
		}
		if err := sameNeighborBits(e.Neighbors(f.tokens[qi], 0.2), f.want(qi, n0+100, 0.2)); err != nil {
			t.Fatalf("new view, q=%d: %v", qi, err)
		}
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, tok := range f.tokens[n0+100:] {
			dict.Intern(tok)
			e.Sync()
		}
	}()
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 40; round++ {
				qi := (g*13 + round) % n0
				// Whatever view the scan ran on, its neighbors among the
				// first n0+100 tokens are the reference's.
				var got []Neighbor
				for _, nb := range e.Neighbors(f.tokens[qi], 0.2) {
					if nb.ID < n0+100 {
						got = append(got, nb)
					}
				}
				if err := sameNeighborBits(got, f.want(qi, n0+100, 0.2)); err != nil {
					t.Errorf("concurrent scan q=%d: %v", qi, err)
					return
				}
				if got, want := e.PairSim(f.tokens[qi], f.tokens[1]), sim.Dot(f.ref[qi], f.ref[1]); got != want {
					t.Errorf("concurrent PairSim(%d,1) = %v, want %v", qi, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if e.Len() != n1 {
		t.Fatalf("Len after all growth = %d, want %d", e.Len(), n1)
	}
}
