package index

import (
	"encoding/binary"
	"math"
	"slices"
)

// The screen (DESIGN.md §12) rules rows out in exact integer arithmetic
// over a quantised copy of the arena: element x of a row is stored as the
// byte round(127·x) + 128 — rows are unit vectors, so one scale fits all —
// and a query row's elements as the signed bytes round(127·x). The sum
// Σ(r̃ⱼ+128)·q̃ⱼ of a pair is then exact in int32 on every kernel, so the
// kernels produce the same masks bit for bit, and a row is flagged iff that
// sum reaches its query row's threshold. The threshold is derived, not
// tuned (screenFloor), so a clear bit proves that the row's float64 score,
// the one the exact kernel would emit, is below α.

// groups is the number of 4-element groups a row spans in u8: ⌈dim/4⌉.
func (r *vecRows) groups() int { return (r.dim + 3) / 4 }

// lane8 returns the offset in u8 of row i's dword in group 0; its dword in
// group k is 64k further on.
func (r *vecRows) lane8(i int) int { return (i&^15)*4*r.groups() + 4*(i&15) }

// quantise writes row i's bytes of u8 from its float32 lane, a NaN element
// as if it were 0, and reports whether the row holds a NaN. A padding byte
// (element dim and on, up to the end of the last group) stays 0: the query
// side's padding is 0 too, so it adds nothing to a sum.
func (r *vecRows) quantise(i int) (nan bool) {
	at, at8 := r.lane(i), r.lane8(i)
	for j := 0; j < r.dim; j++ {
		x := float64(r.data[at+4*j])
		if x != x {
			nan, x = true, 0
		}
		r.u8[at8+64*(j/4)+j%4] = byte(math.Round(127*x) + 128)
	}
	return nan
}

// screenFloor returns ⌊127²·α − slack⌋, the least integer sum Σr̃ⱼq̃ⱼ a pair
// that the exact kernel emits at α can have, and whether the screen runs at
// all: α in (0, 1] (the caller has already dropped α > 1), and a stride at
// which no sum of the kernels leaves int32 (dim·255·127 < 2³¹). slack is
// the quantisation error, 127·√dim·(1+2⁻²²) + dim/4, plus the float64 error
// of the emitted sum, 127²·dim·2⁻⁵²; DESIGN.md §12 derives both.
func screenFloor(alpha float64, dim int) (int64, bool) {
	if !(alpha > 0) || dim*255*127 >= 1<<31 {
		return 0, false
	}
	d := float64(dim)
	slack := 127*math.Sqrt(d)*(1+0x1p-22) + d/4 + 127*127*d*0x1p-52
	return int64(math.Floor(127*127*alpha - slack)), true
}

// prepareScreen writes the screen's form of the query rows qis to s. q8
// holds their quantised elements, four rows interleaved — element j of row
// g at q8[(g/4·groups + j/4)·16 + 4·(g%4) + j%4] — so that one step of a
// kernel reads one dword of each row of a quad; padding elements and the
// zero rows that fill the last quad hold 0. thr holds each row's threshold:
// floor + 128·Σq̃ⱼ (the +128 the arena's bytes carry, accounted for on this
// side), the least int32 for a row holding a NaN, which scores NaN against
// every row and so flags them all, and the greatest for a filler row. The
// AVX2 kernel reads the rows in pairWords' form instead.
func (r *vecRows) prepareScreen(s *scanScratch, qis []int, floor int64) {
	gs, quads := r.groups(), (len(qis)+3)/4
	s.q8 = sized(s.q8, 16*gs*quads)
	s.thr = sized(s.thr, 4*quads)
	clear(s.q8)
	for g, qi := range qis {
		at8 := r.lane8(qi)
		var sum int64
		for j := 0; j < r.dim; j++ {
			v := int8(int(r.u8[at8+64*(j/4)+j%4]) - 128)
			s.q8[(g/4*gs+j/4)*16+4*(g%4)+j%4] = v
			sum += int64(v)
		}
		s.thr[g] = int32(floor + 128*sum)
		if _, ok := slices.BinarySearch(r.nan, int32(qi)); ok {
			s.thr[g] = math.MinInt32
		}
	}
	for g := len(qis); g < len(s.thr); g++ {
		s.thr[g] = math.MaxInt32
	}
	if useAVX2 && !useVNNI {
		s.pairWords(len(qis), gs)
	}
}

// pairWords writes s.q16, the nq query rows of s.q8 as the AVX2 kernel
// reads them: two rows at a time, and per group the int16 words (q̃₀, q̃₂)
// and (q̃₁, q̃₃) of the pair's first row, then of its second — the elements
// that meet a group's even and odd bytes. The odd row out of an odd nq
// rides beside a zero row.
func (s *scanScratch) pairWords(nq, groups int) {
	s.q16 = sized(s.q16, 8*groups*((nq+1)/2))
	clear(s.q16)
	for g := 0; g < nq; g++ {
		for k := 0; k < groups; k++ {
			q := s.q8[(g/4*groups+k)*16+4*(g%4):][:4]
			w := s.q16[(g/2*groups+k)*8+4*(g%2):][:4]
			w[0], w[1], w[2], w[3] = int16(q[0]), int16(q[2]), int16(q[1]), int16(q[3])
		}
	}
}

// screenChunk writes s.mask for the nblk 4-row blocks that start at row
// first and the nq query rows prepareScreen wrote: the chunk's full 16-row
// blocks through screenBlocks in place, the ≤ 3 blocks after them through
// screenBlocks on a zero-padded copy of their bytes (they may end the view,
// whose last 16-row block then holds bytes of rows it does not have), and
// last a bit for every row holding a NaN, against every query row: such a
// row scores NaN, and a NaN proves nothing.
func (r *vecRows) screenChunk(s *scanScratch, nq, first, nblk int) {
	gs, full := r.groups(), nblk/4
	screenBlocks(s, nq, gs, r.u8[first*4*gs:], full)
	if rest := nblk - 4*full; rest > 0 {
		// Bytes [64k, 64k+16·rest) of each group are the rest blocks' rows.
		s.pad8 = sized(s.pad8, 64*gs)
		clear(s.pad8)
		part := r.u8[(first+16*full)*4*gs:]
		for k := 0; k < 64*gs; k += 64 {
			copy(s.pad8[k:k+16*rest], part[k:])
		}
		// The padded block's masks land at block 4·full of each query row:
		// its first rest bytes are the ones that count, and those after
		// them lie past the chunk's nblk blocks, where no one reads.
		mask := s.mask
		s.mask = mask[4*full:]
		screenBlocks(s, nq, gs, s.pad8, 1)
		s.mask = mask
	}
	lo, _ := slices.BinarySearch(r.nan, int32(first))
	for _, i := range r.nan[lo:] {
		if int(i) >= first+4*nblk {
			break
		}
		b, bit := (int(i)-first)/4, byte(1)<<(i&3)
		for g := 0; g < nq; g++ {
			s.mask[g*scanChunk+b] |= bit
		}
	}
}

// screenBlocksGo is the screen in portable Go, and the reference the
// assembly kernels are tested against: for each of the first nq query rows
// g of q8 and each of the first nblk 16-row blocks b at data, it writes the
// four mask bytes of the block's 4-row blocks at mask[g·scanChunk+4b], bit
// l of byte c set iff row 16b+4c+l sums to thr[g] or more. It takes the
// query rows two at a time in one int64 multiplier, q̃ + q̃′·2³²: both sums
// come out of one multiply-add chain, exactly — each fits int32, so the low
// half of the total is the first and the rest, shifted, the second. An odd
// row out pairs with the zero row that fills its quad in q8.
func screenBlocksGo(q8 []int8, nq, groups int, data []byte, nblk int, thr []int32, mask []byte) {
	for g := 0; g < nq; g += 2 {
		oa, ob := g/4*groups*16+4*(g%4), (g+1)/4*groups*16+4*((g+1)%4)
		for b := 0; b < nblk; b++ {
			blk := data[64*groups*b:][:64*groups]
			var acc [16]int64
			for k := 0; k < groups; k++ {
				a, c := q8[oa+16*k:][:4], q8[ob+16*k:][:4]
				q0, q1 := int64(a[0])+int64(c[0])<<32, int64(a[1])+int64(c[1])<<32
				q2, q3 := int64(a[2])+int64(c[2])<<32, int64(a[3])+int64(c[3])<<32
				grp := (*[64]byte)(blk[64*k:])
				for l := range acc {
					acc[l] += int64(grp[4*l])*q0 + int64(grp[4*l+1])*q1 + int64(grp[4*l+2])*q2 + int64(grp[4*l+3])*q3
				}
			}
			var m, m2 uint32
			for l, sum := range acc {
				lo := int32(sum)
				if lo >= thr[g] {
					m |= 1 << l
				}
				if g+1 < nq && int32((sum-int64(lo))>>32) >= thr[g+1] {
					m2 |= 1 << l
				}
			}
			binary.LittleEndian.PutUint32(mask[g*scanChunk+4*b:], spread(m))
			if g+1 < nq {
				binary.LittleEndian.PutUint32(mask[(g+1)*scanChunk+4*b:], spread(m2))
			}
		}
	}
}

// spread deposits the 16 bits of m in the low nibbles of four bytes, four
// rows to a byte: what PDEP with 0x0F0F0F0F does in the kernels.
func spread(m uint32) uint32 { return m&0xf | m&0xf0<<4 | m&0xf00<<8 | m&0xf000<<12 }
