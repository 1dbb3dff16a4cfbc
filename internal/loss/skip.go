package loss

import (
	"math"
	"math/rand"
	"sync"
)

// geoSkip is the reference geometric skip: the number of Bernoulli failures
// before the next success, inverted from one uniform u in (0, 1) with
// logq = ln(1-p). Every sparse draw stream is defined by this expression:
// geoNext evaluates it per draw, and a geoTable is built by searching it
// and falls back to it, so the table follows whatever math.Log the host
// has.
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

// geoSample appends a Bernoulli(p) subset of [0, limit) to dst by
// geometric skip-sampling, ascending.
func geoSample(dst []int, limit int, p float64, rng *rand.Rand) []int {
	logq := 0.0
	if p > 0 && p < 1 {
		logq = math.Log1p(-p)
	}
	for j := geoNext(-1, limit, p, logq, rng); j < limit; j = geoNext(j, limit, p, logq, rng) {
		dst = append(dst, j)
	}
	return dst
}

const (
	// geoMaxSkip is the largest skip a geoTable tabulates; rarer, longer
	// skips (q^1024: 3e-5 of the draws at p = 0.01) take geoSkip.
	geoMaxSkip = 1024
	// geoGuideShift maps a raw draw to its guide bucket: the top 13 of its
	// 63 bits. Bucket g holds about ln((g+1)/g)/p boundaries, so the walk
	// behind the guide averages ln(8192)/(8192 p) steps: 0.1 at p = 0.01.
	geoGuideShift = 50
	// geoGuardShift sets the guard band around a boundary b to b>>40 + 1
	// raw values. float64(v) rounds at relative 2^-53 and an ulp of
	// math.Log moves a boundary by at most 44 * 2^-52 of itself, so
	// outside the band geoSkip is monotone in the raw draw on any host.
	geoGuardShift = 40
	// geoMaxRaw is the largest rng.Int63 value that rand.Float64 does not
	// round up to 1.0 and redraw.
	geoMaxRaw = 1<<63 - 513
)

// geoTable inverts the geometric CDF for one fixed p by guide table
// (Chen and Asau) in the integer domain of the raw draw: cuts[j] brackets
// b[j], the largest raw value v whose reference skip
// geoSkip(float64(v)/(1<<63), logq) is >= j, and a draw v with
// cuts[j+1].above < v <= cuts[j].below has skip j without a logarithm.
// Draws inside a guard band, past the last tabulated boundary, or outside
// [1, geoMaxRaw] are not answered here, which makes the table's stream the
// reference stream by construction. Immutable once built.
type geoTable struct {
	logq float64
	// guide[g] is a skip no draw of bucket g falls short of, where the
	// walk up cuts starts.
	guide [1 << (63 - geoGuideShift)]uint16
	// cuts[0] is the geoMaxRaw cut and cuts[len-1] a sentinel that no draw
	// passes, so lookup needs no range checks of its own.
	cuts []geoCut
}

// geoCut is the guard band around one boundary b: a draw <= below is surely
// at or under b, a draw > above surely over it.
type geoCut struct{ below, above int64 }

// newGeoTable builds the table for 0 < p < 1.
func newGeoTable(p float64) *geoTable {
	t := &geoTable{logq: math.Log1p(-p)}
	skipOf := func(v int64) int { return geoSkip(float64(v)/(1<<63), t.logq) }
	// No draw skips further than the smallest one. (A p so small that the
	// int conversion overflows gets an empty table: every draw falls back.)
	n := max(0, min(geoMaxSkip, skipOf(1)))
	t.cuts = make([]geoCut, n+2)
	b := int64(geoMaxRaw)
	for j := 0; j <= n; j++ {
		if j > 0 {
			b = geoBoundary(skipOf, j, math.Exp(float64(j)*t.logq), b)
		}
		guard := b>>geoGuardShift + 1
		t.cuts[j] = geoCut{below: b - guard, above: b + min(guard, math.MaxInt64-b)}
	}
	t.cuts[n+1] = geoCut{below: -1, above: math.MaxInt64}
	j := n
	for g := range t.guide {
		top := int64(g)<<geoGuideShift | (1<<geoGuideShift - 1)
		for j > 0 && top > t.cuts[j].below {
			j--
		}
		t.guide[g] = uint16(j)
	}
	return t
}

// geoBoundary returns the largest v in [1, hi] with skipOf(v) >= j, given
// that skipOf(1) >= j: a bracket grown around the estimate u * 2^63 (good
// to a few ulps of math.Exp, so ~20 evaluations in all), then bisected.
func geoBoundary(skipOf func(int64) int, j int, u float64, hi int64) int64 {
	est := hi
	if f := u * (1 << 63); f < float64(hi) {
		est = max(int64(f), 1)
	}
	lo, up := est, est
	for step := est>>46 + 1; skipOf(lo) < j; step *= 2 {
		lo = max(lo-step, 1)
	}
	for step := est>>46 + 1; up < hi && skipOf(up) >= j; step *= 2 {
		up += min(step, hi-up)
	}
	if skipOf(up) >= j {
		return up // == hi
	}
	for up-lo > 1 { // skipOf(lo) >= j > skipOf(up)
		if mid := lo + (up-lo)/2; skipOf(mid) >= j {
			lo = mid
		} else {
			up = mid
		}
	}
	return lo
}

// lookup returns the reference skip of raw draw v, or false when only
// geoSkip can tell.
func (t *geoTable) lookup(v int64) (int, bool) {
	j := int(t.guide[v>>geoGuideShift])
	for v <= t.cuts[j+1].below {
		j++
	}
	return j, v > t.cuts[j+1].above && v <= t.cuts[j].below
}

// exact finishes a draw whose first raw value v lookup declined, the way
// geoNext would have: rand.Float64 redraws a raw value that rounds to 1.0,
// geoNext redraws a zero.
func (t *geoTable) exact(v int64, rng *rand.Rand) int {
	u := float64(v) / (1 << 63)
	if u == 1 {
		u = rng.Float64()
	}
	for u == 0 {
		u = rng.Float64()
	}
	return geoSkip(u, t.logq)
}

// sample is geoSample at the table's p: it appends a Bernoulli(p) subset of
// the positions [0, limit) to dst, ascending, each mapped through among
// when that is non-nil, consuming rng exactly as geoSample does.
func (t *geoTable) sample(dst, among []int, limit int, rng *rand.Rand) []int {
	for i := -1; ; {
		v := rng.Int63()
		skip, ok := t.lookup(v)
		if !ok {
			skip = t.exact(v, rng)
		}
		i += 1 + skip
		if i < 0 || i >= limit { // i < 0: overflow guard, as in geoNext
			return dst
		}
		if among != nil {
			dst = append(dst, among[i])
		} else {
			dst = append(dst, i)
		}
	}
}

// geoTables shares one table among all populations with the same p (the
// Monte-Carlo engines build thousands of short-lived ones per sweep point).
var geoTables struct {
	sync.Mutex
	m map[float64]*geoTable
}

// geoTableFor returns the shared table for 0 < p < 1, building it on first
// use.
func geoTableFor(p float64) *geoTable {
	geoTables.Lock()
	defer geoTables.Unlock()
	t := geoTables.m[p]
	if t == nil {
		// A process sweeps a handful of loss probabilities; past that,
		// start over rather than grow without bound.
		if geoTables.m == nil || len(geoTables.m) >= 64 {
			geoTables.m = make(map[float64]*geoTable)
		}
		t = newGeoTable(p)
		geoTables.m[p] = t
	}
	return t
}
