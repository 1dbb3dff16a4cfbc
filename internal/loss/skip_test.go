package loss

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// geoTestPs spans the table's regimes: no draw inside the table (1e-7),
// most draws past its end (1e-4, 0.001), the ledger's and the figures'
// values, and tables of a handful of cuts (0.5, 0.9).
var geoTestPs = []float64{1e-7, 1e-4, 0.001, 0.01, 0.0399, 0.05, 0.25, 0.5, 0.9}

// checkLookup compares the table's answer for raw draw v with the
// reference expression and reports whether the table answered at all.
// Negative v (a probe that ran off the raw range) is ignored.
func checkLookup(t *testing.T, tab *geoTable, p float64, v int64) bool {
	if v < 0 {
		return false
	}
	got, ok := tab.lookup(v)
	if !ok {
		return false
	}
	if v < 1 || v > geoMaxRaw {
		t.Fatalf("p=%g: table answered raw draw %d, which the reference redraws", p, v)
	}
	if want := geoSkip(float64(v)/(1<<63), tab.logq); got != want {
		t.Fatalf("p=%g: raw draw %d: table skip %d, reference skip %d", p, v, got, want)
	}
	return true
}

// checkCuts verifies the table's structure against the reference: as many
// boundaries as draws can reach, in order, each inside its guard band. It
// returns the number of boundaries.
func checkCuts(t *testing.T, tab *geoTable, p float64) int {
	skipOf := func(v int64) int { return geoSkip(float64(v)/(1<<63), tab.logq) }
	n := len(tab.cuts) - 2
	if want := max(0, min(geoMaxSkip, skipOf(1))); n != want {
		t.Fatalf("p=%g: %d boundaries, want %d", p, n, want)
	}
	for j := 1; j <= n; j++ {
		c := tab.cuts[j]
		if c.below >= 1 && skipOf(c.below) < j {
			t.Fatalf("p=%g: cut %d: skip(%d) = %d below the band", p, j, c.below, skipOf(c.below))
		}
		if c.above < geoMaxRaw && skipOf(c.above+1) >= j {
			t.Fatalf("p=%g: cut %d: skip(%d) = %d above the band", p, j, c.above+1, skipOf(c.above+1))
		}
		if c.below > tab.cuts[j-1].below {
			t.Fatalf("p=%g: cuts %d and %d out of order", p, j-1, j)
		}
	}
	return n
}

// TestGeoSkipTableMatchesReference is the differential test behind the
// table's bit-identity claim: wherever lookup answers, it answers what
// geoSkip answers — around every boundary, at both ends of the raw range
// and on random draws of every magnitude — and each guard band does hold
// its boundary.
func TestGeoSkipTableMatchesReference(t *testing.T) {
	random := 10_000_000
	if testing.Short() {
		random = 200_000
	}
	for _, p := range geoTestPs {
		tab := newGeoTable(p)
		n := checkCuts(t, tab, p)
		for _, c := range tab.cuts[1 : n+1] {
			// Dense at the boundary and at both band edges, a doubling
			// ladder in between and beyond.
			b, guard := c.below+(c.above-c.below)/2, (c.above-c.below)/2
			for d := int64(-64); d <= 64; d++ {
				checkLookup(t, tab, p, b+d)
			}
			for d := guard - 2; d <= guard+2; d++ {
				checkLookup(t, tab, p, b-d)
				checkLookup(t, tab, p, b+d)
			}
			for d := int64(1); d <= 4*guard; d *= 2 {
				checkLookup(t, tab, p, b-d)
				checkLookup(t, tab, p, b+d)
			}
		}
		for d := int64(0); d <= 516; d++ {
			if d < 8 {
				checkLookup(t, tab, p, d)
			}
			checkLookup(t, tab, p, math.MaxInt64-d)
		}
		if _, ok := tab.lookup(0); ok {
			t.Fatalf("p=%g: table answered raw draw 0", p)
		}

		rng := rand.New(rand.NewSource(int64(math.Float64bits(p))))
		answered := 0
		for i := 0; i < random; i++ {
			if checkLookup(t, tab, p, rng.Int63()) {
				answered++
			}
			// The same draw scaled to a uniformly chosen magnitude, so
			// the long-skip end of the table is exercised too.
			checkLookup(t, tab, p, rng.Int63()>>uint(rng.Intn(63)))
		}
		hit := float64(answered) / float64(random)
		t.Logf("p=%-6g %4d boundaries, %5d table bytes, hit rate %.6f, fallback rate %.2e",
			p, n, len(tab.guide)*2+len(tab.cuts)*16, hit, 1-hit)
		// The guard band must stay the exception, never the main path.
		if p == 0.01 && 1-hit >= 1e-3 {
			t.Errorf("p=%g: fallback rate %.2e, want < 1e-3", p, 1-hit)
		}
	}
}

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

// TestGeoTableSampleMatchesGeoSample runs the table sampler and the
// reference sampler over one raw stream that opens with every draw the
// table must hand back — zeros, values rand.Float64 rounds up to 1.0 and
// redraws, band edges — and demands the same indices and the same number
// of raw draws consumed.
func TestGeoTableSampleMatchesGeoSample(t *testing.T) {
	for _, p := range geoTestPs {
		tab := newGeoTable(p)
		script := []int64{0, math.MaxInt64, 0, 0, geoMaxRaw + 1, geoMaxRaw, 1, math.MaxInt64 - 1, 0}
		for _, c := range tab.cuts[:len(tab.cuts)-1] {
			script = append(script, c.below, c.below+1, c.above, min(c.above, math.MaxInt64-1)+1)
		}
		among := make([]int, 50_000)
		for i := range among {
			among[i] = 3*i + 1
		}
		refSrc := &scriptedSource{script: script, rest: rand.NewSource(7)}
		tabSrc := &scriptedSource{script: script, rest: rand.NewSource(7)}
		refRng, tabRng := rand.New(refSrc), rand.New(tabSrc)
		// Until the script is spent and 20 draws more; odd draws go
		// through among.
		for draw, tail := 0, 20; tail > 0; draw++ {
			if len(refSrc.script) == 0 {
				tail--
			}
			want := geoSample(nil, len(among), p, refRng)
			var got []int
			if draw%2 == 0 {
				got = tab.sample(nil, nil, len(among), tabRng)
			} else {
				got = tab.sample(nil, among, len(among), tabRng)
				for i, pos := range want {
					want[i] = among[pos]
				}
			}
			if !slices.Equal(got, want) {
				t.Fatalf("p=%g draw %d: table sampler and geoSample disagree:\n%v\n%v", p, draw, got, want)
			}
		}
		if a, b := refRng.Int63(), tabRng.Int63(); a != b {
			t.Fatalf("p=%g: samplers consumed different numbers of raw draws", p)
		}
	}
}

// FuzzGeoSkip searches for a (draw, p) pair on which the table answers
// differently from the reference.
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
		tab := newGeoTable(p)
		checkCuts(t, tab, p)
		raw := int64(v >> 1)
		checkLookup(t, tab, p, raw)
		for _, c := range tab.cuts[:len(tab.cuts)-1] {
			checkLookup(t, tab, p, c.below+raw%5-2)
			checkLookup(t, tab, p, min(c.above, math.MaxInt64-3)+raw%5-2)
		}
	})
}

// TestGeoTableSharedAndLazy pins how a population comes by its table: none
// until the first sparse draw at 0 < p < 1, one per distinct p however
// many populations and goroutines ask (run under -race by check.sh), and
// the shared table changes no population's stream.
func TestGeoTableSharedAndLazy(t *testing.T) {
	const r, p, draws = 20_000, 0.0173, 50
	stream := func(bp *BernoulliPopulation) uint64 {
		return hashLost(draws*r/100, func() []int { return bp.DrawLost(0.04) })
	}
	first := NewBernoulliPopulation(r, p, rand.New(rand.NewSource(5)))
	if first.tab != nil {
		t.Fatal("table fetched by the constructor")
	}
	for _, edge := range []float64{0, 1} {
		bp := NewBernoulliPopulation(r, edge, rand.New(rand.NewSource(5)))
		bp.DrawLost(0.04)
		bp.DrawLostAmong(0.04, []int{1, 2})
		if bp.tab != nil {
			t.Fatalf("p=%g fetched a table", edge)
		}
	}
	want := stream(first)
	if first.tab == nil {
		t.Fatal("no table after a sparse draw")
	}

	var wg sync.WaitGroup
	pops := make([]*BernoulliPopulation, 8)
	got := make([]uint64, len(pops))
	for i := range pops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Odd workers force a build of their own p alongside.
			if i%2 == 1 {
				NewBernoulliPopulation(r, p+float64(i)/100, rand.New(rand.NewSource(5))).DrawLost(0.04)
			}
			pops[i] = NewBernoulliPopulation(r, p, rand.New(rand.NewSource(5)))
			got[i] = stream(pops[i])
		}()
	}
	wg.Wait()
	for i, bp := range pops {
		if bp.tab != first.tab {
			t.Errorf("population %d has its own table for the same p", i)
		}
		if got[i] != want {
			t.Errorf("population %d: stream hash %#x, want %#x", i, got[i], want)
		}
	}

	among := []int{3, 5, 8, 13, 21, 34, 55, 89, 144}
	if a := testing.AllocsPerRun(100, func() {
		first.DrawLost(0.04)
		first.DrawLostAmong(0.04, among)
	}); a != 0 {
		t.Errorf("steady-state DrawLost + DrawLostAmong allocate %v times per run, want 0", a)
	}
}
