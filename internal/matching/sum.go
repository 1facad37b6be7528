package matching

import "math"

// Sum returns the sum of ws rounded once to the nearest float64, ties to
// even — the value every order of the same weights gives, so the score of a
// matching follows from its weights alone, not from the order a solver
// meets its rows in. The weights must be finite. The solvers report their
// scores through it.
//
// It keeps the running sum exactly as a list of non-overlapping partials
// (Shewchuk, "Adaptive precision floating-point arithmetic", 1997; the
// algorithm of Python's math.fsum) and rounds them once at the end.
func Sum(ws []float64) float64 {
	var buf [8]float64
	p := buf[:0]
	for _, x := range ws {
		i := 0
		for _, y := range p {
			if math.Abs(x) < math.Abs(y) {
				x, y = y, x
			}
			hi := x + y
			lo := y - (hi - x)
			if lo != 0 {
				p[i] = lo
				i++
			}
			x = hi
		}
		p = append(p[:i], x)
	}
	// The partials ascend in magnitude and do not overlap: add them from
	// the top until the sum stops being exact, and correct the rounding
	// when the rest lies exactly halfway between two floats.
	n := len(p)
	if n == 0 {
		return 0
	}
	n--
	hi, lo := p[n], 0.0
	for n > 0 {
		x := hi
		n--
		y := p[n]
		hi = x + y
		lo = y - (hi - x)
		if lo != 0 {
			break
		}
	}
	if n > 0 && (lo < 0 && p[n-1] < 0 || lo > 0 && p[n-1] > 0) {
		y := lo * 2
		x := hi + y
		if y == x-hi {
			hi = x
		}
	}
	return hi
}
