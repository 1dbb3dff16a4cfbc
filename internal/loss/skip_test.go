package loss

import (
	"math"
	"math/rand"
	"testing"
)

// geoTestPs spans the skip's regimes: skips that overflow no limit
// (1e-7), long skips (1e-4, 0.001), the ledger's and the figures' values,
// and skips of a step or two (0.5, 0.9).
var geoTestPs = []float64{1e-7, 1e-4, 0.001, 0.01, 0.0399, 0.05, 0.25, 0.5, 0.9}

// scriptedSource plays back fixed raw draws, then a seeded stream.
type scriptedSource struct {
	script []int64
	rest   rand.Source
}

func (s *scriptedSource) Int63() int64 {
	if len(s.script) == 0 {
		return s.rest.Int63()
	}
	v := s.script[0]
	s.script = s.script[1:]
	return v
}

func (s *scriptedSource) Seed(int64) {}

// FuzzGeoSkip drives geoNext with a chosen first raw draw v at loss
// probability p and holds the reference skip to the geometric law it
// inverts. A raw draw that maps to u = 0, or that rand.Float64 rounds up
// to 1.0, is drawn again. Otherwise the next success lands s steps past
// prev with (1-p)^(s+1) < u <= (1-p)^s, up to a few ulps of math.Log and
// math.Exp, and a skip past limit — one that overflows int included —
// returns limit.
func FuzzGeoSkip(f *testing.F) {
	for _, p := range geoTestPs {
		for _, v := range []uint64{0, 1, 2, 1 << 50, 1<<63 - 513, 1<<63 - 512, 1<<63 - 1, 0x5bd1e995_9e3779b9} {
			f.Add(v, math.Float64bits(p))
		}
	}
	f.Add(uint64(12345), math.Float64bits(5e-324))
	f.Add(uint64(12345), math.Float64bits(1e-18))
	f.Add(uint64(12345), math.Float64bits(1-1.0/(1<<53)))
	f.Fuzz(func(t *testing.T, v, pBits uint64) {
		p := math.Float64frombits(pBits)
		if !(p > 0 && p < 1) {
			t.Skip()
		}
		const prev, limit, seed = 5, 1 << 30, 7
		raw := int64(v & (1<<63 - 1))
		rng := rand.New(&scriptedSource{script: []int64{raw}, rest: rand.NewSource(seed)})
		logq := math.Log1p(-p)
		got := geoNext(prev, limit, p, logq, rng)

		u := float64(raw) / (1 << 63)
		if u == 0 || u == 1 {
			u = rand.New(rand.NewSource(seed)).Float64() // the redraw; never 0 at this seed
		}
		if got == limit {
			if r := math.Log(u) / logq; r < limit-prev-1-1e-6*limit {
				t.Fatalf("p=%g u=%g: returned limit for a skip of %g", p, u, r)
			}
			return
		}
		s := float64(got - prev - 1)
		if s < 0 {
			t.Fatalf("p=%g u=%g: next success %d not after prev %d", p, u, got, prev)
		}
		const tol = 1e-12
		if hi := math.Exp(s * logq); u > hi*(1+tol) {
			t.Fatalf("p=%g u=%g: skip %g overshoots: (1-p)^s = %g < u", p, u, s, hi)
		}
		if lo := math.Exp((s + 1) * logq); u <= lo*(1-tol) {
			t.Fatalf("p=%g u=%g: skip %g falls short: (1-p)^(s+1) = %g >= u", p, u, s, lo)
		}
	})
}
