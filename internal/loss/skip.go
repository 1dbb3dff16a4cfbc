package loss

import (
	"math"
	"math/rand"
)

// geoSkip is the reference geometric skip: the number of Bernoulli failures
// before the next success, inverted from one uniform u in (0, 1) with
// logq = ln(1-p). Every sparse draw stream is defined by this expression,
// which geoNext evaluates once per draw.
func geoSkip(u, logq float64) int { return int(math.Log(u) / logq) } // floor; >= 0

// geoNext returns the smallest success index > prev of Bernoulli(p) trials,
// or limit when the remaining trials all fail; logq = ln(1-p) for 0<p<1.
func geoNext(prev, limit int, p float64, logq float64, rng *rand.Rand) int {
	switch {
	case p <= 0:
		return limit
	case p >= 1:
		return prev + 1
	}
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	next := prev + 1 + geoSkip(u, logq)
	if next < 0 || next > limit { // overflow guard
		return limit
	}
	return next
}

// geoSample appends a Bernoulli(p) subset of the positions [0, limit) to
// dst by geometric skip-sampling, ascending, each mapped through among
// when that is non-nil.
func geoSample(dst, among []int, limit int, p float64, rng *rand.Rand) []int {
	logq := 0.0
	if p > 0 && p < 1 {
		logq = math.Log1p(-p)
	}
	for j := geoNext(-1, limit, p, logq, rng); j < limit; j = geoNext(j, limit, p, logq, rng) {
		if among != nil {
			dst = append(dst, among[j])
		} else {
			dst = append(dst, j)
		}
	}
	return dst
}
