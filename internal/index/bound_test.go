package index

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// boundKernelName names the kernel PartitionPostings runs now.
func boundKernelName() string {
	if useAVX512F {
		return "avx512"
	}
	return "portable"
}

// boundCase is one bound filter input: postings, the bound of each set ID
// below len(bound), and the level below.
type boundCase struct {
	sids, poss []int32
	bound      []float64
	below      float64
}

// newBoundCase builds a case from a fuzzer's bytes: data[0:2] the number
// of postings (0–511, every tail length), data[2] the number of sets (few,
// so set IDs repeat, or up to ten thousand), data[3] the level, data[4]
// which bounds occur — the settled mark −1, +0, −0, the level and one ulp
// on either side of it, half and twice it, ±Inf, NaN and multiples of
// 1/16 — and the rest seeds the draws.
func newBoundCase(data []byte) boundCase {
	at := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	h := fnv.New64a()
	if len(data) > 5 {
		h.Write(data[5:])
	}
	rng := rand.New(rand.NewSource(int64(h.Sum64())))
	m := int(at(0)) | int(at(1)&1)<<8
	nb := 1 + int(at(2)&63)
	if at(2)&64 != 0 {
		nb = 1 + int(at(2))*40
	}
	levels := []float64{1, 0.5, 3.75, math.SmallestNonzeroFloat64, 1e300, math.Inf(1), math.NaN(), 0.35}
	below := levels[int(at(3))%len(levels)]
	values := []float64{-1, 0, math.Copysign(0, -1), below, math.Nextafter(below, math.Inf(1)), math.Nextafter(below, math.Inf(-1)),
		below / 2, below * 2, math.Inf(1), math.NaN(), math.Inf(-1)}
	use := at(4) | 1
	c := boundCase{sids: make([]int32, m), poss: make([]int32, m), bound: make([]float64, nb), below: below}
	for i := range c.bound {
		if v := rng.Intn(len(values) + 1); v < len(values) && use&(1<<(v%8)) != 0 {
			c.bound[i] = values[v]
		} else {
			c.bound[i] = float64(rng.Intn(64)) / 16
		}
	}
	for i := range c.sids {
		c.sids[i], c.poss[i] = int32(rng.Intn(nb)), rng.Int31()-1<<30
	}
	return c
}

// checkBoundKernel holds the kernel to PartitionPostingsGo on c: the same
// counts, the same kept postings and settling sets in the same order, and
// nothing written past the counts. On a CPU with the kernel the dispatch
// hands it every nonempty list whose set IDs are in range, as here; on
// any other the check is skipped.
func checkBoundKernel(t *testing.T, label string, c boundCase) {
	t.Helper()
	m := len(c.sids)
	ks, kp, fs := make([]int32, m), make([]int32, m), make([]int32, m)
	n, f := PartitionPostingsGo(c.sids, c.poss, c.bound, c.below, ks, kp, fs)
	if !useAVX512F || m == 0 {
		return
	}
	const pad, mark = 16, -7
	gks, gkp, gfs := make([]int32, m+pad), make([]int32, m+pad), make([]int32, m+pad)
	for _, s := range [][]int32{gks, gkp, gfs} {
		for i := range s {
			s[i] = mark
		}
	}
	gn, gf := PartitionPostings(c.sids, c.poss, c.bound, c.below, gks, gkp, gfs)
	if gn != n || gf != f {
		t.Fatalf("%s: kernel kept %d, settles %d; the Go loop keeps %d, settles %d", label, gn, gf, n, f)
	}
	if !slices.Equal(gks[:n], ks[:n]) || !slices.Equal(gkp[:n], kp[:n]) || !slices.Equal(gfs[:f], fs[:f]) {
		t.Fatalf("%s: kernel kept %v at %v and settles %v; the Go loop keeps %v at %v and settles %v",
			label, gks[:n], gkp[:n], gfs[:f], ks[:n], kp[:n], fs[:f])
	}
	for _, tail := range [][]int32{gks[n:], gkp[n:], gfs[f:]} {
		if i := slices.IndexFunc(tail, func(v int32) bool { return v != mark }); i >= 0 {
			t.Fatalf("%s: kernel wrote %d entries past its count", label, len(tail)-i)
		}
	}
}

// TestPartitionPostingsKernel runs the kernel against the Go loop on every
// length from 0 to 300, so every tail length 0–15 meets every level and
// mixture of bounds. -v logs the kernel this CPU has.
func TestPartitionPostingsKernel(t *testing.T) {
	t.Logf("bound filter on this CPU: %s", boundKernelName())
	for m := 0; m <= 300; m++ {
		for variant := 0; variant < 8; variant++ {
			data := []byte{byte(m), byte(m >> 8), byte(variant * 37), byte(variant), byte(0x55 << (variant & 1)), byte(m), byte(variant)}
			checkBoundKernel(t, fmt.Sprintf("%d postings, variant %d", m, variant), newBoundCase(data))
		}
	}
}

// TestPartitionPostingsIndexCheck: a set ID outside the bounds, negative
// or past the end, in any block, or any set ID with no bounds at all, fails
// PartitionPostings' index check as it fails the Go loop's.
func TestPartitionPostingsIndexCheck(t *testing.T) {
	c := newBoundCase([]byte{40, 0, 12, 0, 0xff, 1, 2, 3})
	check := func(sids []int32, bound []float64) {
		for _, fn := range []func([]int32, []int32, []float64, float64, []int32, []int32, []int32) (int, int){PartitionPostingsGo, PartitionPostings} {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("set IDs %v over %d bounds: no index panic", sids, len(bound))
					}
				}()
				fn(sids, c.poss, bound, c.below, make([]int32, 40), make([]int32, 40), make([]int32, 40))
			}()
		}
	}
	for _, at := range []int{0, 15, 16, 39} {
		for _, bad := range []int32{-1, int32(len(c.bound)), math.MaxInt32} {
			sids := slices.Clone(c.sids)
			sids[at] = bad
			check(sids, c.bound)
		}
	}
	check(c.sids, nil)
}

// FuzzPartitionPostings: bytes → a bound filter input (newBoundCase); the
// kernel writes what PartitionPostingsGo writes (checkBoundKernel).
func FuzzPartitionPostings(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0})
	f.Add([]byte{15, 0, 3, 0, 0xff, 9})
	f.Add([]byte{33, 0, 200, 1, 0x3b, 1, 2})
	f.Add([]byte{255, 1, 0x4f, 5, 0xff, 7, 7, 7})
	f.Add([]byte{17, 0, 1, 6, 0x81, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkBoundKernel(t, fmt.Sprintf("input %x", data), newBoundCase(data))
	})
}

// BenchmarkPartitionPostings is the bound filter's layer number: ns per
// posting of PartitionPostings, per kernel this CPU has (avx512, portable),
// on lists of 530 and of 12 postings over 5,000 sets whose bounds are
// uniform in [0, 2) at a level of 1, a fifth of them settled: about two
// fifths of the postings are kept and two fifths settle.
func BenchmarkPartitionPostings(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	bound := make([]float64, 5000)
	for i := range bound {
		bound[i] = 2 * rng.Float64()
		if rng.Intn(5) == 0 {
			bound[i] = -1
		}
	}
	defer func(v bool) { useAVX512F = v }(useAVX512F)
	kernels := []bool{false}
	if useAVX512F {
		kernels = append(kernels, true)
	}
	for _, length := range []int{530, 12} {
		lists := make([][2][]int32, 64)
		for i := range lists {
			sids, poss := make([]int32, length), make([]int32, length)
			for j := range sids {
				sids[j], poss[j] = int32(rng.Intn(len(bound))), int32(j)
			}
			lists[i] = [2][]int32{sids, poss}
		}
		ks, kp, fs := make([]int32, length), make([]int32, length), make([]int32, length)
		for _, k := range slices.Backward(kernels) {
			useAVX512F = k
			b.Run(fmt.Sprintf("%s/n=%d", boundKernelName(), length), func(b *testing.B) {
				kept := 0
				for i := 0; i < b.N; i++ {
					l := &lists[i%len(lists)]
					n, _ := PartitionPostings(l[0], l[1], bound, 1, ks, kp, fs)
					kept += n
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*length), "ns/posting")
				b.ReportMetric(float64(kept)/float64(b.N*length), "kept")
			})
		}
	}
}
