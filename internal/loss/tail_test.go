package loss

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// tailTestTaus are the tails DrawExceeding's tables are checked at: one
// whose skips almost all fall back to geoSkip (1e-6), field_1e6's
// P(Bin(22, 0.01) > 2), a rect group's and a short table's.
var tailTestTaus = []float64{1e-6, 1.41e-3, 0.05, 0.5}

// TestTailTableNextMatchesGeoNext runs a tail table's next and geoNext over
// one raw stream that opens with every draw the table must hand back —
// zeros, values rand.Float64 rounds up to 1.0, both edges of every cut's
// guard band — and demands the same indices, the same raw draws consumed,
// and, wherever the table answers a draw itself, geoSkip's answer.
func TestTailTableNextMatchesGeoNext(t *testing.T) {
	const limit = 1 << 40 // no skip reaches it: every draw is compared
	for _, tau := range tailTestTaus {
		tab := geoTableFor(tau, tailDepth(tau))
		skipOf := func(v int64) int { return geoSkip(float64(v)/(1<<63), tab.logq) }
		if n, want := len(tab.cuts)-2, min(tailDepth(tau), skipOf(1)); n != want {
			t.Fatalf("tau=%g: %d boundaries, want %d", tau, n, want)
		}
		script := []int64{0, math.MaxInt64, 0, 0, geoMaxRaw + 1, geoMaxRaw, 1, math.MaxInt64 - 1, 0}
		for _, c := range tab.cuts[:len(tab.cuts)-1] {
			script = append(script, max(c.below-1, 0), c.below, c.below+1, c.above, min(c.above, math.MaxInt64-1)+1)
		}
		for _, v := range script {
			checkLookup(t, tab, tau, v)
		}
		refSrc := &scriptedSource{script: script, rest: rand.NewSource(11)}
		tabSrc := &scriptedSource{script: script, rest: rand.NewSource(11)}
		refRng, tabRng := rand.New(refSrc), rand.New(tabSrc)
		logq := math.Log1p(-tau)
		ref, got := -1, -1
		for draw, rest := 0, 1000; rest > 0; draw++ {
			if len(refSrc.script) == 0 {
				rest--
			}
			ref = geoNext(ref, limit, tau, logq, refRng)
			got = tab.next(got, limit, tabRng)
			if got != ref {
				t.Fatalf("tau=%g draw %d: table next %d, geoNext %d", tau, draw, got, ref)
			}
		}
		if a, b := refRng.Int63(), tabRng.Int63(); a != b {
			t.Fatalf("tau=%g: next and geoNext consumed different numbers of raw draws", tau)
		}
		// next ends at limit exactly as geoNext does.
		for _, prev := range []int{-1, 5, limit - 2, limit - 1} {
			a := geoNext(prev, prev+1, tau, logq, rand.New(rand.NewSource(3)))
			if b := tab.next(prev, prev+1, rand.New(rand.NewSource(3))); a != b {
				t.Fatalf("tau=%g prev=%d: next %d, geoNext %d at the limit", tau, prev, b, a)
			}
		}
	}
}

// TestTailTableDepth pins the depth rule and how it splits the work: at
// field_1e6's tail the table answers all but ~e^-4 of the skips, and
// tables are shared per (tail, depth), apart from the loss-probability
// tables of the same value.
func TestTailTableDepth(t *testing.T) {
	for _, c := range []struct {
		tau  float64
		want int
	}{{1e-6, tailMaxSkip}, {1.41e-3, 2837}, {0.05, geoMaxSkip}, {0.5, geoMaxSkip}} {
		if got := tailDepth(c.tau); got != c.want {
			t.Errorf("tailDepth(%g) = %d, want %d", c.tau, got, c.want)
		}
	}
	tau := 1.41e-3
	tab := geoTableFor(tau, tailDepth(tau))
	if geoTableFor(tau, tailDepth(tau)) != tab {
		t.Error("a second fetch of the same tail built a new table")
	}
	if geoTableFor(tau, geoMaxSkip) == tab {
		t.Error("the loss-probability table of the same value is the tail table")
	}
	rng := rand.New(rand.NewSource(5))
	const draws = 1_000_000
	fallback := 0
	for i := 0; i < draws; i++ {
		if _, ok := tab.lookup(rng.Int63()); !ok {
			fallback++
		}
	}
	if rate := float64(fallback) / draws; rate < 0.015 || rate > 0.022 {
		t.Errorf("tau=%g: %.4f of the skips fall back to geoSkip, want ~e^-4 = 0.018", tau, rate)
	}
}

// TestFloydSubsetPicksMatchInt63n holds floydSubset's division-free picks
// to rand.Int63n draw for draw, for every n in [1, 64] over 10^6 draws in
// all: a one-element subset of the identity seqs is 1 << Int63n(n). A
// scripted source opens each n with draws at and around Int63n's
// rejection bound. Whole subsets then match Floyd's algorithm run on
// Int63n.
func TestFloydSubsetPicksMatchInt63n(t *testing.T) {
	var ident [64]uint8
	for i := range ident {
		ident[i] = uint8(i)
	}
	const perN = 1_000_000 / 64
	for n := 1; n <= 64; n++ {
		bound := int64(1<<63 - 1 - (1<<63)%uint64(n))
		script := []int64{0, 1, int64(n - 1), int64(n), int64(n + 1), bound - 1, bound, min(bound, math.MaxInt64-1) + 1, math.MaxInt64, 0}
		refRng := rand.New(&scriptedSource{script: script, rest: rand.NewSource(int64(n))})
		pickRng := rand.New(&scriptedSource{script: script, rest: rand.NewSource(int64(n))})
		for i := 0; i < perN; i++ {
			want := refRng.Int63n(int64(n))
			bm := floydSubset(pickRng, &ident, n, 1)
			if bits.OnesCount64(bm) != 1 || int64(bits.TrailingZeros64(bm)) != want {
				t.Fatalf("n=%d draw %d: pick %#x, Int63n %d", n, i, bm, want)
			}
		}
		if a, b := refRng.Int63(), pickRng.Int63(); a != b {
			t.Fatalf("n=%d: the picks consumed a different number of raw draws", n)
		}
	}

	seqs := [64]uint8{}
	rng := rand.New(rand.NewSource(9))
	for i, s := range rng.Perm(64) {
		seqs[i] = uint8(s)
	}
	refRng, pickRng := rand.New(rand.NewSource(10)), rand.New(rand.NewSource(10))
	for trial := 0; trial < 20_000; trial++ {
		n := 1 + trial%64
		c := trial % (n + 1)
		var want uint64
		for i := n - c; i < n; i++ {
			s := uint64(1) << seqs[refRng.Int63n(int64(i+1))]
			if want&s != 0 {
				s = 1 << seqs[i]
			}
			want |= s
		}
		if got := floydSubset(pickRng, &seqs, n, c); got != want {
			t.Fatalf("n=%d c=%d: subset %#x, Floyd on Int63n %#x", n, c, got, want)
		}
	}
}
