package sim

// Myers' bit-parallel Levenshtein distance [Myers 1999, in Hyyrö's
// formulation]: the dynamic-programming matrix is encoded column by column
// as vertical delta bit-vectors (Pv/Mv), and one text character advances a
// whole 64-row block with a handful of word operations. The algorithm is
// byte-based — exactly the alphabet of the two-row DP it replaces — so the
// returned distance, and therefore every similarity derived from it, is
// identical to the reference implementation (enforced by FuzzEditKernel and
// TestMyersMatchesDP).

const myersWordBits = 64

// levenshtein returns the byte-level edit distance of a and b. The shorter
// string becomes the pattern: patterns of at most 64 bytes run the
// single-word kernel, longer ones the block-based fallback.
func levenshtein(a, b string) int {
	if len(a) > len(b) {
		a, b = b, a
	}
	if len(a) == 0 {
		return len(b)
	}
	if len(a) <= myersWordBits {
		var peq [256]uint64
		for i := 0; i < len(a); i++ {
			peq[a[i]] |= 1 << uint(i)
		}
		return myersShort(&peq, len(a), b)
	}
	w := (len(a) + myersWordBits - 1) / myersWordBits
	peq := buildBlockPeq(nil, a, w)
	pv := make([]uint64, w)
	mv := make([]uint64, w)
	return myersBlocks(peq, len(a), w, b, pv, mv)
}

// myersShort advances the single-word kernel over text: peq is the pattern's
// per-byte match mask, m its length in bytes (1 ≤ m ≤ 64). Bits of the
// vectors above position m−1 carry garbage, which is harmless: additions
// carry upward, shifts move upward, and the score only ever reads bit m−1.
func myersShort(peq *[256]uint64, m int, text string) int {
	pv := ^uint64(0)
	mv := uint64(0)
	score := m
	last := uint64(1) << uint(m-1)
	for i := 0; i < len(text); i++ {
		eq := peq[text[i]]
		xv := eq | mv
		xh := (((eq & pv) + pv) ^ pv) | eq
		ph := mv | ^(xh | pv)
		mh := pv & xh
		if ph&last != 0 {
			score++
		} else if mh&last != 0 {
			score--
		}
		ph = ph<<1 | 1
		mh <<= 1
		pv = mh | ^(xv | ph)
		mv = ph & xv
	}
	return score
}

// buildBlockPeq lays the pattern's match masks out word-major, in buf's
// backing array when it is large enough: peq[c*w+b] holds byte value c's
// mask for pattern block b.
func buildBlockPeq(buf []uint64, pattern string, w int) []uint64 {
	peq := reuse(buf, 256*w)
	clear(peq)
	for i := 0; i < len(pattern); i++ {
		peq[int(pattern[i])*w+i/myersWordBits] |= 1 << uint(i%myersWordBits)
	}
	return peq
}

// myersBlocks is the block-based fallback for patterns longer than 64 bytes:
// per text byte the ⌈m/64⌉ pattern blocks are advanced bottom-up, chaining
// the horizontal delta (−1, 0, +1) of each block's top row into the next.
// pv/mv are caller-provided w-sized scratch (overwritten here), so a
// prepared kernel reuses them across candidates.
func myersBlocks(peq []uint64, m, w int, text string, pv, mv []uint64) int {
	for b := range pv {
		pv[b] = ^uint64(0)
		mv[b] = 0
	}
	score := m
	lastWord := w - 1
	lastBit := uint64(1) << uint((m-1)%myersWordBits)
	for i := 0; i < len(text); i++ {
		c := int(text[i])
		hin := 1 // boundary row: D[0][j] − D[0][j−1] = +1
		for b := 0; b <= lastWord; b++ {
			eq := peq[c*w+b]
			pvb, mvb := pv[b], mv[b]
			xv := eq | mvb
			if hin < 0 {
				eq |= 1
			}
			xh := (((eq & pvb) + pvb) ^ pvb) | eq
			ph := mvb | ^(xh | pvb)
			mh := pvb & xh
			hiBit := uint64(1) << 63
			if b == lastWord {
				hiBit = lastBit
			}
			hout := 0
			if ph&hiBit != 0 {
				hout = 1
			} else if mh&hiBit != 0 {
				hout = -1
			}
			ph <<= 1
			mh <<= 1
			if hin > 0 {
				ph |= 1
			} else if hin < 0 {
				mh |= 1
			}
			pv[b] = mh | ^(xv | ph)
			mv[b] = ph & xv
			hin = hout
		}
		score += hin
	}
	return score
}

// reuse returns n elements of unspecified content, in buf's backing array
// when it is large enough.
func reuse(buf []uint64, n int) []uint64 {
	if cap(buf) < n {
		return make([]uint64, n)
	}
	return buf[:n]
}
