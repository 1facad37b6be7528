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
// can also run: the AVX2 screen where the selected one is VNNI, the unfused
// exact kernel where the selected one is FMA, and the portable loops where
// there is a kernel at all. mode names the screen and the exact kernel.
func scanModes(f func(mode string)) {
	defer func(avx, fma, avx2, vnni bool) { useAVX, useFMA, useAVX2, useVNNI = avx, fma, avx2, vnni }(useAVX, useFMA, useAVX2, useVNNI)
	f("selected " + kernelNames())
	if useVNNI {
		useVNNI = false
		f(kernelNames())
	}
	if useFMA {
		useFMA = false
		f(kernelNames())
	}
	if useAVX || useAVX2 {
		useAVX, useAVX2 = false, false
		f(kernelNames())
	}
}

// scan appends every row except qi with similarity ≥ alpha to buf,
// unsorted: scanAll for a group of one, past the memo.
func (r *vecRows) scan(qi int, alpha float64, buf []Neighbor) []Neighbor {
	bufs := [1][]Neighbor{buf}
	s := scanScratches.Get().(*scanScratch)
	r.scanAll(s, []int{qi}, alpha, bufs[:])
	scanScratches.Put(s)
	return bufs[0]
}

// kernelNames names the screen and the exact kernel scanAll runs now.
func kernelNames() string {
	screen, exact := "go", "go"
	switch {
	case useVNNI:
		screen = "vnni"
	case useAVX2:
		screen = "avx2"
	}
	switch {
	case useFMA:
		exact = "fma"
	case useAVX:
		exact = "avx"
	}
	return "screen=" + screen + " exact=" + exact
}

// TestVectorArenaBitIdentical: the arena scan (one row per vector lane,
// query row read in place) must reproduce sim.Dot over normalizeCopy vectors
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
				if err := sameNeighborBits(scanSorted(src, []string{f.tokens[qi]}, alpha)[0], want); err != nil {
					t.Fatalf("%s q=%d α=%v: ScanNeighbors: %v", label, qi, alpha, err)
				}
			}
		}
		// All the queries and an unindexed token as one search's elements:
		// one pass of the arena, each list its own element's neighbors.
		batch := []string{"never-indexed"}
		for _, qi := range queries {
			batch = append(batch, f.tokens[qi])
		}
		for _, alpha := range []float64{0.3, edge} {
			lists := scanSorted(src, batch, alpha)
			if got := lists[0]; len(got) != 0 {
				t.Fatalf("%s α=%v: neighbors of an unindexed token: %v", label, alpha, got)
			}
			for g, qi := range queries {
				if err := sameNeighborBits(lists[g+1], f.want(qi, n, alpha)); err != nil {
					t.Fatalf("%s q=%d α=%v: ScanNeighbors, element %d of %d: %v", label, qi, alpha, g+1, len(batch), err)
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
	dotBlocks(nil, 0, nil, nil)                // no rows at all
	dotBlocks([]float32{1}, 1, nil, nil)       // no full block
	dotBlocks(nil, 0, nil, make([]float64, 8)) // dim 0
	s := &scanScratch{q8: make([]int8, 16), q16: make([]int16, 8), thr: make([]int32, 4), mask: make([]byte, 4*scanChunk)}
	screenBlocks(new(scanScratch), 0, 3, nil, 0) // no query rows
	screenBlocks(s, 1, 1, nil, 0)                // no full block
	screenBlocks(s, 1, 0, nil, 2)                // dim 0
	// dim 0 as prepareScreen leaves it: no query bytes at all, two rows.
	screenBlocks(&scanScratch{thr: make([]int32, 4), mask: make([]byte, 4*scanChunk)}, 2, 0, nil, 2)
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
	nq, blocks := len(qis), len(r.tokens)/4
	flags := make([][]byte, nq)
	floor, ok := screenFloor(alpha, r.dim)
	if !ok { // nothing is screened: every block is flagged
		for g := range flags {
			flags[g] = bytes.Repeat([]byte{15}, blocks)
		}
		return flags
	}
	s := &scanScratch{mask: make([]byte, 4*((nq+3)/4)*scanChunk)}
	r.prepareScreen(s, qis, floor)
	for b := 0; b < blocks; b += scanChunk {
		nblk := min(scanChunk, blocks-b)
		r.screenChunk(s, nq, 4*b, nblk)
		for g := range flags {
			flags[g] = append(flags[g], s.mask[g*scanChunk:][:nblk]...)
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
		r.scanAll(new(scanScratch), qis, alpha, bufs)
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

// TestScreenIsABound: the int8 screen may clear a row's bit only if the row
// cannot reach α, on every screen kernel. The rows that could catch it out
// are the ones whose exact score sits within a quantisation step (1/127) of
// α, where the integer sum lands on either side of the threshold: for every
// stride 1–40 and 300 the fixture scales one component of a copy of the
// query row until the pair scores 0.8 + k/1016 for k = −8…8, steps that
// component ulp by ulp around 0.8 itself, and screens at 0.8, at 1 and at
// the middle row's own score. Around them: zero, off-stride, denormal, huge,
// ±Inf and NaN rows (the last three are NaN rows once normalized, and as
// query rows score NaN against everything) and a block of −q, which any
// screen worth running leaves unflagged. Setting the slack to 0 fails it,
// and so does leaving the +128·Σq̃ term out of the thresholds.
func TestScreenIsABound(t *testing.T) {
	// The screen runs for α in (0, 1] at a stride whose sums fit int32.
	for _, tc := range []struct {
		alpha float64
		dim   int
		ok    bool
	}{{0.8, 0, true}, {5e-324, 32, true}, {1, 66311, true}, {0.8, 66312, false}, {0, 32, false}, {-1, 32, false}, {math.NaN(), 32, false}} {
		if _, ok := screenFloor(tc.alpha, tc.dim); ok != tc.ok {
			t.Fatalf("screenFloor(%v, %d) runs the screen: %v, want %v", tc.alpha, tc.dim, ok, tc.ok)
		}
	}
	// The slack of one global scale: 0.045 at dim 32, 0.141 at dim 300.
	for _, tc := range []struct {
		dim       int
		slackLow  float64
		slackHigh float64
	}{{32, 0.045, 0.046}, {300, 0.141, 0.142}} {
		floor, _ := screenFloor(1, tc.dim)
		if slack := float64(127*127-floor) / (127 * 127); slack < tc.slackLow || slack > tc.slackHigh {
			t.Fatalf("dim %d: slack %v, want it in [%v, %v]", tc.dim, slack, tc.slackLow, tc.slackHigh)
		}
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
		scaleFor := func(score float64) float64 {
			lo, hi := -1e3, 1.0
			for range 64 {
				if mid := (lo + hi) / 2; sim.Dot(refQ, normalizeCopy(with(float32(mid)*q[c]))) < score {
					lo = mid
				} else {
					hi = mid
				}
			}
			return hi
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
		near, coarse := len(vecs), len(vecs)
		if dim > 1 {
			at := math.Float32bits(float32(scaleFor(target)) * q[c])
			for k := -steps; k <= steps; k++ {
				vecs = append(vecs, with(math.Float32frombits(uint32(int(at)+k))))
			}
			coarse = len(vecs)
			for k := -steps; k <= steps; k++ {
				vecs = append(vecs, with(float32(scaleFor(target+float64(k)/(8*127)))*q[c]))
			}
		}
		for len(vecs) < coarse+2*steps+1+40 {
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
			// below the target and one as close at or above it, and rows
			// across a quantisation step on both sides.
			mid := score[0][near+steps]
			alphas = append(alphas, mid)
			below, above := math.Inf(1), math.Inf(1)
			for _, s := range score[0][near:coarse] {
				if s < target {
					below = min(below, target-s)
				} else {
					above = min(above, s-target)
				}
			}
			if below > 4*ulp || above > 4*ulp {
				t.Fatalf("dim=%d: nearest rows %.3g below and %.3g above α, want both within %.3g", dim, below, above, 4*ulp)
			}
			for k := -steps; k <= steps; k++ {
				if s, want := score[0][coarse+k+steps], target+float64(k)/(8*127); math.Abs(s-want) > 1e-6 {
					t.Fatalf("dim=%d: row %d scores %v, want %v", dim, k, s, want)
				}
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

// TestScreenKernelsAgree: the screen's sums are exact integers, so the VNNI
// kernel, the AVX2 kernel and the portable loop must write the same mask
// bytes — on random bytes and thresholds drawn around the true sums, so that
// about half the bits are set, for 1–9 query rows (one to three quads, the
// last one part filled), strides from one group to 75 (dim 300) and block
// counts at every seam of the kernels' loops — and those bytes must be the
// ones a per-row sum of the arena's bytes gives. Then, through screenChunk
// on arenas of 0–15 rows past their last full 16-row block, every kernel
// must flag exactly the rows whose per-row sum reaches the threshold, or
// which hold a NaN.
func TestScreenKernelsAgree(t *testing.T) {
	type kernel struct {
		name       string
		avx2, vnni bool
	}
	kernels, names := []kernel{{"go", false, false}}, "go"
	if useAVX2 {
		kernels, names = append(kernels, kernel{"avx2", true, false}), names+" avx2"
	}
	if useVNNI {
		kernels, names = append(kernels, kernel{"vnni", true, true}), names+" vnni"
	}
	t.Logf("screen kernels on this CPU: %s; scanAll runs %s", names, kernels[len(kernels)-1].name)
	defer func(avx2, vnni bool) { useAVX2, useVNNI = avx2, vnni }(useAVX2, useVNNI)
	rng := rand.New(rand.NewSource(96))
	for _, groups := range []int{1, 2, 3, 8, 9, 75} {
		for _, nblk := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 16} {
			for _, nq := range []int{1, 3, 4, 5, 9} {
				quads := (nq + 3) / 4
				q8, data := make([]int8, 16*groups*quads), make([]byte, 64*groups*nblk)
				for i := range q8 {
					if g := i % 16 / 4; g+4*(i/(16*groups)) < nq {
						q8[i] = int8(rng.Intn(255) - 127)
					}
				}
				rng.Read(data)
				// The reference: each row's sum from its own bytes.
				sum := func(g, row int) int32 {
					var s int32
					for k := 0; k < groups; k++ {
						for e := 0; e < 4; e++ {
							s += int32(data[64*groups*(row/16)+64*k+4*(row%16)+e]) * int32(q8[(g/4*groups+k)*16+4*(g%4)+e])
						}
					}
					return s
				}
				thr := make([]int32, 4*quads)
				for g := range thr {
					thr[g] = math.MaxInt32
					if g < nq && nblk > 0 {
						thr[g] = sum(g, rng.Intn(16*nblk)) + int32(rng.Intn(3)) - 1
					}
				}
				want := make([]byte, 4*quads*scanChunk)
				for g := 0; g < 4*quads; g++ {
					for row := 0; row < 16*nblk; row++ {
						if sum(g, row) >= thr[g] {
							want[g*scanChunk+row/4] |= 1 << (row % 4)
						}
					}
				}
				for _, k := range kernels {
					useAVX2, useVNNI = k.avx2, k.vnni
					s := &scanScratch{q8: q8, thr: thr, mask: make([]byte, 4*quads*scanChunk)}
					s.pairWords(nq, groups)
					screenBlocks(s, nq, groups, data, nblk)
					if got := s.mask[:nq*scanChunk]; !bytes.Equal(got, want[:nq*scanChunk]) {
						t.Fatalf("%s kernel, %d groups, %d blocks, %d query rows: masks\n%x\nwant\n%x", k.name, groups, nblk, nq, got, want[:nq*scanChunk])
					}
				}
			}
		}
	}
	for _, dim := range []int{1, 5, 32, 300} {
		for _, nblk := range []int{0, 1, 4, 5, 16, 17} {
			for tail := 0; tail < 16; tail++ {
				n := 16*nblk + tail
				if n == 0 {
					continue
				}
				data := make([]byte, n*(dim+2))
				rng.Read(data)
				data[0] |= 2 // the first row sets the stride
				r, _ := arenaFromBytes(dim, data, n)
				qis := []int{rng.Intn(n), rng.Intn(n), rng.Intn(n), rng.Intn(n), rng.Intn(n)}
				for _, alpha := range []float64{0.01, 0.3, 0.8} {
					floor, _ := screenFloor(alpha, dim)
					s := &scanScratch{}
					r.prepareScreen(s, qis, floor)
					for _, k := range kernels {
						useAVX2, useVNNI = k.avx2, k.vnni
						for g, m := range screenFlags(&r, qis, alpha) {
							for i := range 4 * len(m) {
								_, nan := slices.BinarySearch(r.nan, int32(i))
								flag := nan || r.rowSum(s.q8, g, i) >= s.thr[g]
								if got := m[i/4]>>(i%4)&1 == 1; got != flag {
									t.Fatalf("%s kernel, dim=%d n=%d α=%v: row %d against query row %d flagged %v, want %v", k.name, dim, n, alpha, i, g, got, flag)
								}
							}
						}
					}
				}
			}
		}
	}
}

// rowSum is the reference for the screen kernels: the screen's sum of
// query row g of q8 and arena row i, read from row i's bytes alone.
func (r *vecRows) rowSum(q8 []int8, g, i int) int32 {
	gs, at8 := r.groups(), r.lane8(i)
	var sum int32
	for k := 0; k < gs; k++ {
		d, q := r.u8[at8+64*k:][:4], q8[(g/4*gs+k)*16+4*(g%4):][:4]
		sum += int32(d[0])*int32(q[0]) + int32(d[1])*int32(q[1]) + int32(d[2])*int32(q[2]) + int32(d[3])*int32(q[3])
	}
	return sum
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
// from 1 to 40 (those not a multiple of four end in a padded group of the
// screen), block counts that end in each of the screen's and the exact
// kernel's loops (none, the one-block loops, the four- and eight-block loops
// with and without a remainder, and the 4-row blocks the screen takes row by
// row after its last full 16-row block), 0–3 rows in the partial last
// block, searches of one element up to a quad and an odd row out, with one
// row twice in the first pair, and every class of α — over rows that hold
// zero, off-stride, denormal, huge, infinite and NaN components. The
// screen's quad and pair loops are held to checkScreen: a step that
// multiplies the wrong query row into an accumulator clears bits it may not
// clear.
func TestArenaGroupKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(94))
	for dim := 1; dim <= 40; dim++ {
		for _, nblk := range []int{0, 1, 3, 4, 5, 8, 9, 13, 16, 21} {
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

// TestArenaScanNoQueryRows: a probe none of whose elements has a vector
// scans with no query rows. It must come back empty, also over arenas whose
// chunks end in 4-row blocks after their last full 16-row block, which the
// screen would otherwise pad for query rows there are none of.
func TestArenaScanNoQueryRows(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for _, n := range []int{1, 5, 16, 20, 16*3 + 7, 4*scanChunk + 21} {
		f := newArenaFixture(rng, n, 8)
		dict, err := sets.NewDictionaryFromTokens(f.tokens)
		if err != nil {
			t.Fatal(err)
		}
		e := NewDynamicExact(dict, f.vec)
		scanModes(func(mode string) {
			for _, alpha := range []float64{0, 0.8} {
				bufs := make([][]Neighbor, 2)
				e.ScanNeighbors([]string{"no vector", "nor this"}, alpha, bufs)
				if bufs[0] != nil || bufs[1] != nil {
					t.Fatalf("%s, n=%d α=%v: elements without a vector have neighbours %v", mode, n, alpha, bufs)
				}
			}
		})
	}
}

// TestArenaPartialBlocks: the 4-row blocks after a chunk's last full 16-row
// block are screened, and the rows after the last full 4-row block scored,
// by the kernels on zero-padded copies (screenChunk, tailBlock). On arenas
// of every length mod 16, below one 16-row block, past a few and past a
// whole chunk, scanned with 1–9 query rows (the last quad or pair part
// filled), every screen and exact kernel this CPU runs must return
// per-pair sim.Dot's matches bit for bit and flag every row of a full
// block that reaches α (checkArenaBatch).
func TestArenaPartialBlocks(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for _, dim := range []int{1, 5, 32} {
		for _, blocks16 := range []int{0, 1, 3, 16} {
			for tail := 0; tail < 16; tail++ {
				n := 16*blocks16 + tail
				if n == 0 {
					continue
				}
				data := make([]byte, n*(dim+2))
				rng.Read(data)
				data[0] |= 2 // the first row sets the stride
				r, ref := arenaFromBytes(dim, data, n)
				if len(ref) != n {
					t.Fatalf("fixture has %d rows, want %d", len(ref), n)
				}
				for nq := 1; nq <= 9; nq++ {
					qis := make([]int, nq)
					for g := range qis {
						qis[g] = rng.Intn(n)
					}
					qis[nq-1] = n - 1 // a row of the partial blocks among the queries
					for _, alpha := range []float64{0.3, 0.8} {
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
// scan, on every screen and exact kernel this CPU runs (scanModes: VNNI,
// AVX2 and the portable screen; FMA, AVX and the portable exact loop), and
// PairSim must equal per-pair sim.Dot over normalizeCopy vectors, with no
// α-match behind a clear screen bit.
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
// that fits L2 and at one that does not (40k rows, 5 MB: what the exact
// kernels' prefetch is for): one probe at a time and the 168 elements of a
// search_large query in one group pass, on each screen kernel this CPU has,
// named after it, beside the exact kernel the CPU selected (the portable
// screen beside the portable exact loop); -v logs both. Among Gaussian rows
// no pair reaches 0.8, so those arenas time the screen and an emit pass
// that finds each query row's own block; the model arena has search_small's
// vocabulary shape — clusters of 2–6 tokens, noise 0.07, in no particular
// order — and so the matches a search retrieves. flagged/blk is the share
// of (query row, 4-row block) pairs the screen hands to the exact kernel.
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
			screen          string
			vnni, avx2, avx bool
			elems           int
		}{{"vnni", true, true, true, 1}, {"avx2", false, true, true, 1}, {"portable", false, false, false, 1},
			{"vnni-grouped", true, true, true, 168}, {"avx2-grouped", false, true, true, 168}, {"portable-grouped", false, false, false, 168}} {
			b.Run(name+"/"+mode.screen, func(b *testing.B) {
				if mode.vnni && !useVNNI || mode.avx2 && !useAVX2 || mode.avx && !useAVX {
					b.Skip("not on this CPU")
				}
				defer func(avx, avx2, vnni bool) { useAVX, useAVX2, useVNNI = avx, avx2, vnni }(useAVX, useAVX2, useVNNI)
				useAVX, useAVX2, useVNNI = mode.avx, mode.avx2, mode.vnni
				b.Log(kernelNames())
				qis := make([]int, mode.elems)
				bufs := make([][]Neighbor, mode.elems)
				s := new(scanScratch)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					for g := range qis {
						qis[g], bufs[g] = (i*len(qis)+g)%n, bufs[g][:0]
					}
					r.scanAll(s, qis, 0.8, bufs)
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
// The first view ends in a partial 4-row block and a partial 16-row one (42
// rows), so the rows Sync adds next land in lanes of a block the old view
// still reads and in bytes of a screen block it screens through a padded
// copy (screenChunk, tailBlock). The second half does the same from
// concurrent goroutines, one row per Sync, for -race: a copy that read a
// lane or byte of a row the view does not have — a whole group of the
// screen block, a whole 4-row block — is a race with the append.
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
